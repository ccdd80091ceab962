"""Sharded indexes under one ranked union.

Partition the sequence store and DualMatch index across N shards.  A
ranked-union query runs every shard's `Φ_i` subqueries under one
union with one collector; other queries run per shard and merge
through the paper's multi-way ranked-union frontier.  Exactness
certificates compose shard-wise.  See ``docs/sharding.md``.

Public surface:

* :class:`~repro.shard.planner.ShardPlanner` /
  :class:`~repro.shard.planner.ShardPlan` — deterministic hash/range
  partitioning.
* :class:`~repro.shard.database.ShardedDatabase` — the facade: the
  query API of :class:`~repro.api.QueryFacade`, byte-identical results.
* :func:`~repro.shard.merge.merge_search_results` and
  :class:`~repro.shard.merge.ShardedMatchStream` — ranked-union
  composition with shard-wise certificates and ``shard_stats``; the
  stream emits from :class:`~repro.shard.merge.UnionFanOut`, the one
  union over every shard.
* :class:`~repro.shard.executor.ThreadShardExecutor` — the one thread
  pool the shard subqueries of the other methods run on.
"""

from repro.shard.database import (
    SHARD_MANIFEST_NAME,
    ShardedDatabase,
    shard_dir_name,
)
from repro.shard.executor import ThreadShardExecutor
from repro.shard.merge import (
    REASON_SHARD_LOST,
    LostShard,
    ShardedMatchStream,
    merge_search_results,
)
from repro.shard.planner import (
    POLICIES,
    ShardPlan,
    ShardPlanner,
    hash_shard,
)

__all__ = [
    "LostShard",
    "POLICIES",
    "REASON_SHARD_LOST",
    "SHARD_MANIFEST_NAME",
    "ShardPlan",
    "ShardPlanner",
    "ShardedDatabase",
    "ShardedMatchStream",
    "ThreadShardExecutor",
    "hash_shard",
    "merge_search_results",
    "shard_dir_name",
]
