"""Sharded indexes under one ranked union.

Partition the sequence store and DualMatch index across N shards.  A
ranked-union query runs every shard's `Φ_i` subqueries under one
union; other queries run per shard, one shard after another.  Every
fan-out shares one collector across its shard runs, and every shard
run executes in the calling thread.  Exactness certificates compose
shard-wise.  See ``docs/sharding.md``.

Public surface:

* :class:`~repro.shard.planner.ShardPlanner` /
  :class:`~repro.shard.planner.ShardPlan` — deterministic hash/range
  partitioning.
* :class:`~repro.shard.database.ShardedDatabase` — the facade: the
  query API of :class:`~repro.api.QueryFacade`, byte-identical results.
* :func:`~repro.shard.merge.merge_search_results` — composition of
  per-shard answers with shard-wise certificates and ``shard_stats``.
  A ranked-union query runs one
  :class:`~repro.engines.ranked_union.RankedUnion` over every shard and
  streams through the same :class:`~repro.engines.ranked_union.MatchStream`
  as an unsharded database.
"""

from repro.shard.database import (
    SHARD_MANIFEST_NAME,
    ShardedDatabase,
    shard_dir_name,
)
from repro.shard.merge import (
    REASON_SHARD_LOST,
    LostShard,
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
    "hash_shard",
    "merge_search_results",
    "shard_dir_name",
]
