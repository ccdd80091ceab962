"""Shard assignment: which sequence lives on which shard.

The planner answers exactly one question — ``sid -> shard index`` — and
answers it *deterministically*: the same sequence ids, shard count, and
policy always produce the same plan, on any host, in any process.  That
determinism is what makes the differential suites meaningful (a sharded
database can be rebuilt bit-identically next to its unsharded oracle)
and what lets process-pool workers recompute routing locally instead of
shipping the assignment around.

Two policies (see ``docs/sharding.md``):

``hash``
    Knuth multiplicative integer mixing of the sequence id, reduced
    modulo the shard count.  Python's built-in ``hash`` is *not* used —
    it is salted per process (``PYTHONHASHSEED``), which would break
    cross-process determinism.
``range``
    Sequence ids are sorted and cut into ``num_shards`` contiguous runs
    of near-equal cardinality (the first ``len(sids) % num_shards``
    runs take the extra element).  Keeps id-adjacent sequences
    co-located, which matters when ids encode acquisition order.

Both policies tolerate ``num_shards > len(sids)``: the surplus shards
are simply empty, and :class:`~repro.shard.database.ShardedDatabase`
skips them at query time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.concurrency import shared_across_queries
from repro.exceptions import ConfigurationError

#: Supported partitioning policies.
POLICIES: Tuple[str, ...] = ("hash", "range")

#: Knuth's multiplicative hash constant (2^32 / phi); the full 32-bit
#: mix decorrelates consecutive sids before the modulo.
_KNUTH_MIX = 2654435761
_MASK_32 = 0xFFFFFFFF


def hash_shard(sid: int, num_shards: int) -> int:
    """Deterministic, process-independent shard index for ``sid``."""
    mixed = (abs(int(sid)) * _KNUTH_MIX) & _MASK_32
    mixed ^= mixed >> 16
    return mixed % num_shards


@dataclass(frozen=True)
class ShardPlan:
    """An immutable routing table produced by :meth:`ShardPlanner.plan`."""

    num_shards: int
    policy: str
    #: ``sid -> shard index`` for every planned sequence.
    assignment: Dict[int, int]

    def members(self, shard: int) -> List[int]:
        """Sequence ids assigned to ``shard``, in ascending order."""
        return sorted(
            sid for sid, index in self.assignment.items() if index == shard
        )

    @property
    def empty_shards(self) -> List[int]:
        """Shard indexes that received no sequences."""
        used = set(self.assignment.values())
        return [index for index in range(self.num_shards) if index not in used]


@shared_across_queries
class ShardPlanner:
    """Deterministic sequence partitioner for one shard topology.

    Stateless after construction (safe to share between queries and
    processes); :meth:`plan` is a pure function of the sid set.
    """

    def __init__(self, num_shards: int, policy: str = "hash") -> None:
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown shard policy {policy!r}; expected one of {POLICIES}"
            )
        self.num_shards = num_shards
        self.policy = policy

    def plan(self, sids: Sequence[int]) -> ShardPlan:
        """Assign every sid to a shard under this planner's policy."""
        unique = list(dict.fromkeys(int(sid) for sid in sids))
        if len(unique) != len(sids):
            raise ConfigurationError("duplicate sequence ids in shard plan")
        if self.policy == "hash":
            assignment = {
                sid: hash_shard(sid, self.num_shards) for sid in unique
            }
        else:
            assignment = self._range_assignment(unique)
        return ShardPlan(
            num_shards=self.num_shards,
            policy=self.policy,
            assignment=assignment,
        )

    def _range_assignment(self, sids: List[int]) -> Dict[int, int]:
        ordered = sorted(sids)
        base, extra = divmod(len(ordered), self.num_shards)
        assignment: Dict[int, int] = {}
        cursor = 0
        for shard in range(self.num_shards):
            width = base + (1 if shard < extra else 0)
            for sid in ordered[cursor : cursor + width]:
                assignment[sid] = shard
            cursor += width
        return assignment
