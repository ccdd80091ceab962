"""Merging per-shard answers, under its historical import path.

The one ranked union over every shard, and :func:`merge_search_results`
with its certificate rules, live in :mod:`repro.engines.ranked_union`;
this module re-exports the merge for code that imports it from here.
"""

from repro.engines.ranked_union import (
    REASON_SHARD_LOST,
    LostShard,
    merge_search_results,
)

__all__ = ["LostShard", "REASON_SHARD_LOST", "merge_search_results"]
