"""Query engines.

Five engines implement Problem Definition 1 (exact top-k subsequence
matching under banded DTW); all of them must return the same distance
multiset:

* :mod:`repro.engines.seqscan` — LB_Keogh-filtered sequential scan.
* :mod:`repro.engines.hlmj` — the HLMJ baseline [12]: one global priority
  queue with MDMWP-distance pruning.
* :mod:`repro.engines.psm` — the adapted PSM baseline [22]: progressive
  index merge with bloom-filter join signatures.
* :mod:`repro.engines.ranked_union` — the paper's contribution: the
  ranked-union operator tree (``∪_r`` over one ``Φ_i`` per MSEQ), driven
  by one :class:`~repro.engines.ranked_union.RankedUnion` for one
  database and for N shards alike.  The query's ``method`` picks each
  ``Φ_i``'s queue selection: ``"ru"`` is max-delta
  (:func:`repro.engines.ranked_union.max_delta`); ``"ru-cost"`` is
  cost-aware density-based scheduling with selective expansion, on the
  paper's constants (:mod:`repro.engines.cost_density`).

Shared plumbing lives in :mod:`repro.engines.base` (candidate evaluation,
deferred retrieval, stats) and :mod:`repro.engines.operators` (the
extended iterator protocol of Definition 5).
"""

from repro.engines.base import Engine, QuerySpec, SearchResult
from repro.engines.hlmj import HlmjEngine
from repro.engines.psm import PsmEngine, build_sliding_index
from repro.engines.range_search import RangeSearchEngine
from repro.engines.ranked_union import MatchStream, RankedUnion
from repro.engines.seqscan import SeqScanEngine

__all__ = [
    "Engine",
    "QuerySpec",
    "SearchResult",
    "SeqScanEngine",
    "HlmjEngine",
    "PsmEngine",
    "build_sliding_index",
    "RangeSearchEngine",
    "RankedUnion",
    "MatchStream",
]
