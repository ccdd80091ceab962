"""repro — ranked subsequence matching via ranked union.

A from-scratch reproduction of Han, Lee, Moon, Hwang, Yu,
*A New Approach for Processing Ranked Subsequence Matching Based on
Ranked Union* (SIGMOD 2011): exact top-k subsequence search under
banded dynamic time warping, evaluated as a ranked union over matching
subsequence equivalence classes with cost-aware density-based
scheduling (RU-COST), together with the baselines the paper compares
against (SeqScan, HLMJ, adapted PSM) and every substrate they need
(paged storage with an LRU buffer pool, an R*-tree, the
LB_Keogh / LB_PAA lower-bound stack, DualMatch windowing, deferred
retrieval).

Quickstart::

    import numpy as np
    from repro import SubsequenceDatabase

    db = SubsequenceDatabase(omega=64, features=4)
    db.insert(0, np.cumsum(np.random.standard_normal(100_000)))
    db.build()
    result = db.search(query, k=25, method="ru-cost", deferred=True)
"""

from repro.api import QueryFacade, SubsequenceDatabase
from repro.control import (
    CancellationToken,
    Deadline,
    ExecutionControl,
    QueryBudget,
)
from repro.core.clock import Clock, FakeClock, MonotonicClock
from repro.core.distance import dtw_distance, lp_distance
from repro.core.envelope import Envelope, query_envelope
from repro.core.metrics import QueryStats
from repro.core.results import Match
from repro.engines.base import (
    QuerySpec,
    FaultReport,
    PartialResult,
    SearchResult,
)
from repro.engines.cost_density import CostDensityConfig
from repro.engines.ranked_union import MatchStream
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    CorruptPageError,
    ExecutionInterrupted,
    IntegrityError,
    PartialSaveError,
    ProtocolError,
    ReproError,
    ServiceOverloadedError,
    StorageError,
    TransientIOError,
)
from repro.serve import (
    QosClass,
    QueryRequest,
    QueryService,
    ServeClient,
    ServiceConfig,
    ServiceResponse,
    SocketServer,
    TenantPolicy,
)
from repro.shard import (
    ShardedDatabase,
    ShardedMatchStream,
    ShardPlan,
    ShardPlanner,
)
from repro.storage.backends import (
    FileBackend,
    MmapBackend,
    StorageBackend,
    resolve_backend,
)
from repro.storage.buffer import RetryPolicy
from repro.storage.circuit import CircuitBreaker
from repro.storage.faults import FaultInjector, FaultSpec, FaultyPager

__version__ = "1.19.0"

__all__ = [
    "QueryFacade",
    "SubsequenceDatabase",
    "ShardedDatabase",
    "ShardedMatchStream",
    "ShardPlan",
    "ShardPlanner",
    "SearchResult",
    "PartialResult",
    "MatchStream",
    "QuerySpec",
    "CostDensityConfig",
    "Match",
    "QueryStats",
    "Envelope",
    "query_envelope",
    "dtw_distance",
    "lp_distance",
    "QueryBudget",
    "Deadline",
    "CancellationToken",
    "ExecutionControl",
    "CircuitBreaker",
    "QosClass",
    "QueryRequest",
    "QueryService",
    "ServeClient",
    "ServiceConfig",
    "ServiceResponse",
    "SocketServer",
    "TenantPolicy",
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "ReproError",
    "ConfigurationError",
    "StorageError",
    "TransientIOError",
    "CorruptPageError",
    "IntegrityError",
    "PartialSaveError",
    "ExecutionInterrupted",
    "CircuitOpenError",
    "ProtocolError",
    "ServiceOverloadedError",
    "FaultInjector",
    "FaultSpec",
    "FaultyPager",
    "FaultReport",
    "RetryPolicy",
    "StorageBackend",
    "FileBackend",
    "MmapBackend",
    "resolve_backend",
    "__version__",
]
