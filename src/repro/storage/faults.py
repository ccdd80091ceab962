"""Deterministic fault injection for the simulated disk.

The paper's guarantees ("no false dismissals", exact top-k) are proved
over a perfect storage device.  This module makes failure a first-class,
*testable* input instead: a :class:`FaultInjector` holds a seeded
schedule of fault specifications and a :class:`FaultyPager` — a drop-in
:class:`~repro.storage.pager.Pager` — consults it on every physical read
and write.

Four fault kinds are modelled:

``transient``
    The read raises :class:`~repro.exceptions.TransientIOError` (a bus
    hiccup, a lost interrupt).  Retryable: the page itself is intact, so
    :class:`~repro.storage.buffer.BufferPool`'s retry policy recovers it.
``corrupt``
    A bit is flipped inside the stored payload and the recorded checksum
    is left untouched — permanent media corruption.  On a sealed pager
    every subsequent read raises
    :class:`~repro.exceptions.CorruptPageError`.
``torn-write``
    A write persists only a prefix of the payload and skips the checksum
    update — a crash in the middle of a multi-sector write.  Detected
    exactly like corruption on the next read.
``latency``
    The read completes but only after sleeping ``latency_s`` — a slow
    or degraded device, for tail-latency experiments.

Determinism: all randomness flows from one ``random.Random(seed)``, and
specs can pin explicit page ids (``page_ids``) or filter by
:class:`~repro.storage.page.PageKind`, so a failing run replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clock import MONOTONIC_CLOCK, Clock
from repro.exceptions import ConfigurationError, TransientIOError
from repro.storage.page import PAGE_SIZE_DEFAULT, PageKind
from repro.storage.pager import Pager

TRANSIENT = "transient"
CORRUPT = "corrupt"
TORN_WRITE = "torn-write"
LATENCY = "latency"

_FAULT_KINDS = (TRANSIENT, CORRUPT, TORN_WRITE, LATENCY)
_READ_FAULTS = (TRANSIENT, CORRUPT, LATENCY)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: what fails, where, and how often.

    Attributes
    ----------
    fault:
        One of ``"transient"``, ``"corrupt"``, ``"torn-write"``,
        ``"latency"``.
    probability:
        Chance a matching access triggers the fault (1.0 = always).
        Draws come from the injector's seeded generator.
    page_ids:
        Explicit schedule: only these page ids are eligible (``None``
        means every page).
    page_kinds:
        Only pages of these kinds are eligible (``None`` means every
        kind) — e.g. corrupt only ``PageKind.DATA`` pages.
    max_triggers:
        Total firing budget across all pages (``None`` = unlimited).
    max_per_page:
        Firing budget per page.  Defaults to 1 for ``corrupt`` and
        ``torn-write`` (corrupting twice is meaningless) and unlimited
        otherwise.
    latency_s:
        Sleep duration for ``latency`` faults.
    """

    fault: str
    probability: float = 1.0
    page_ids: Optional[FrozenSet[int]] = None
    page_kinds: Optional[FrozenSet[PageKind]] = None
    max_triggers: Optional[int] = None
    max_per_page: Optional[int] = None
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.fault not in _FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.fault!r}; expected one of "
                f"{_FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(
                f"latency_s must be >= 0, got {self.latency_s}"
            )
        if self.fault == LATENCY and self.latency_s == 0.0:
            raise ConfigurationError(
                "latency faults need latency_s > 0"
            )
        # Normalise iterables passed instead of frozensets.
        if self.page_ids is not None and not isinstance(
            self.page_ids, frozenset
        ):
            object.__setattr__(self, "page_ids", frozenset(self.page_ids))
        if self.page_kinds is not None and not isinstance(
            self.page_kinds, frozenset
        ):
            object.__setattr__(
                self, "page_kinds", frozenset(self.page_kinds)
            )

    @property
    def per_page_budget(self) -> Optional[int]:
        """Effective per-page cap (destructive faults default to once)."""
        if self.max_per_page is not None:
            return self.max_per_page
        if self.fault in (CORRUPT, TORN_WRITE):
            return 1
        return None


@dataclass
class FaultStats:
    """Counters of faults actually fired."""

    transient_faults: int = 0
    corruptions: int = 0
    torn_writes: int = 0
    latency_injections: int = 0
    latency_total_s: float = 0.0
    corrupted_pages: List[int] = field(default_factory=list)
    torn_pages: List[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return (
            self.transient_faults
            + self.corruptions
            + self.torn_writes
            + self.latency_injections
        )


class FaultInjector:
    """A seeded, deterministic schedule of storage faults.

    Parameters
    ----------
    seed:
        Seeds the single ``random.Random`` used for probability draws
        and bit-position choices; identical seeds and access sequences
        replay identical faults.
    specs:
        Initial fault rules; more can be added with :meth:`add`.
    """

    def __init__(
        self, seed: int = 0, specs: Sequence[FaultSpec] = ()
    ) -> None:
        self._rng = random.Random(seed)
        self.specs: List[FaultSpec] = list(specs)
        self.stats = FaultStats()
        self.enabled = True
        #: (spec index, page id) -> times fired (per-page budgets).
        self._fired_per_page: Dict[Tuple[int, int], int] = {}
        #: spec index -> total times fired (global budgets).
        self._fired_total: Dict[int, int] = {}

    def add(self, spec: FaultSpec) -> "FaultInjector":
        """Append one fault rule (chainable)."""
        self.specs.append(spec)
        return self

    # -- convenience constructors ---------------------------------------

    @classmethod
    def transient_reads(
        cls,
        page_ids: Iterable[int],
        times: int = 1,
        seed: int = 0,
    ) -> "FaultInjector":
        """Fail the first ``times`` reads of each listed page."""
        return cls(
            seed=seed,
            specs=[
                FaultSpec(
                    fault=TRANSIENT,
                    page_ids=frozenset(page_ids),
                    max_per_page=times,
                )
            ],
        )

    @classmethod
    def corrupt_pages(
        cls, page_ids: Iterable[int], seed: int = 0
    ) -> "FaultInjector":
        """Permanently corrupt each listed page on its next read."""
        return cls(
            seed=seed,
            specs=[FaultSpec(fault=CORRUPT, page_ids=frozenset(page_ids))],
        )

    # -- scheduling core -------------------------------------------------

    def _eligible(
        self, spec: FaultSpec, page_id: int, kind: PageKind
    ) -> bool:
        if spec.page_ids is not None and page_id not in spec.page_ids:
            return False
        if spec.page_kinds is not None and kind not in spec.page_kinds:
            return False
        return True

    def _fires(self, spec_index: int, spec: FaultSpec, page_id: int) -> bool:
        if (
            spec.max_triggers is not None
            and self._fired_total.get(spec_index, 0) >= spec.max_triggers
        ):
            return False
        budget = spec.per_page_budget
        key = (spec_index, page_id)
        if budget is not None and self._fired_per_page.get(key, 0) >= budget:
            return False
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return False
        self._fired_total[spec_index] = self._fired_total.get(spec_index, 0) + 1
        self._fired_per_page[key] = self._fired_per_page.get(key, 0) + 1
        return True

    def read_faults(self, page_id: int, kind: PageKind) -> List[FaultSpec]:
        """Read-path faults firing for this access, in spec order."""
        if not self.enabled:
            return []
        return [
            spec
            for index, spec in enumerate(self.specs)
            if spec.fault in _READ_FAULTS
            and self._eligible(spec, page_id, kind)
            and self._fires(index, spec, page_id)
        ]

    def write_faults(self, page_id: int, kind: PageKind) -> List[FaultSpec]:
        """Write-path faults firing for this access, in spec order."""
        if not self.enabled:
            return []
        return [
            spec
            for index, spec in enumerate(self.specs)
            if spec.fault == TORN_WRITE
            and self._eligible(spec, page_id, kind)
            and self._fires(index, spec, page_id)
        ]

    def choose_bit(self, num_bytes: int) -> Tuple[int, int]:
        """Deterministically pick (byte offset, bit index) to flip."""
        return self._rng.randrange(num_bytes), self._rng.randrange(8)


def _flip_bit(data: bytes, byte_offset: int, bit: int) -> bytes:
    buffer = bytearray(data)
    buffer[byte_offset] ^= 1 << bit
    return bytes(buffer)


def _torn_payload(payload: Any) -> Any:
    """The prefix of a payload that "reached disk" before the crash."""
    if isinstance(payload, np.ndarray):
        return payload[: max(1, payload.shape[0] // 2)]
    if hasattr(payload, "refs"):  # an R*-tree node: its leading rows
        return payload.take(slice(0, len(payload.refs) // 2))
    return None


class FaultyPager(Pager):
    """A :class:`~repro.storage.pager.Pager` whose disk misbehaves.

    Drop-in replacement: identical interface and I/O accounting.  A
    transient failure still counts as one physical read (the attempt
    reached the device); the retried read counts again, so fault runs
    naturally report higher page-access numbers.  With no injector, or
    an injector holding no specs, behaviour and counters are *identical*
    to the plain pager.
    """

    def __init__(
        self,
        page_size: int = PAGE_SIZE_DEFAULT,
        injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(page_size=page_size)
        self.injector = injector or FaultInjector()
        #: Latency faults sleep on this clock, so chaos runs can inject
        #: simulated slowness via :class:`~repro.core.clock.FakeClock`
        #: without actually stalling.
        self.clock = clock if clock is not None else MONOTONIC_CLOCK

    def read(self, page_id: int) -> Any:
        self._check(page_id)
        for spec in self.injector.read_faults(page_id, self._kinds[page_id]):
            if spec.fault == LATENCY:
                self.injector.stats.latency_injections += 1
                self.injector.stats.latency_total_s += spec.latency_s
                self.clock.sleep(spec.latency_s)
            elif spec.fault == CORRUPT:
                self._corrupt_payload(page_id)
            elif spec.fault == TRANSIENT:
                self.injector.stats.transient_faults += 1
                self.stats.record_read(page_id)  # the attempt hit the disk
                raise TransientIOError(
                    f"injected transient read failure on page {page_id}"
                )
        return super().read(page_id)

    def write(self, page_id: int, payload: Any) -> None:
        for spec in self.injector.write_faults(page_id, self.kind_of(page_id)):
            if spec.fault == TORN_WRITE:
                self.injector.stats.torn_writes += 1
                self.injector.stats.torn_pages.append(page_id)
                self._check(page_id)
                self.stats.record_write()
                # Persist only a prefix and *skip the checksum update* —
                # the crash happened between the data and checksum
                # sectors, which is exactly what verification catches.
                self._payloads[page_id] = _torn_payload(payload)
                return
        super().write(page_id, payload)

    def _corrupt_payload(self, page_id: int) -> None:
        """Flip one deterministic bit in the stored payload.

        The recorded checksum is left stale on purpose; on a sealed
        pager the very next read raises ``CorruptPageError``.  On an
        unsealed pager the corruption flows through silently — the
        scenario checksumming exists to prevent.
        """
        payload = self._payloads[page_id]
        corrupted = _corrupt(payload, self.injector)
        if corrupted is None:
            return
        self._payloads[page_id] = corrupted
        self.injector.stats.corruptions += 1
        self.injector.stats.corrupted_pages.append(page_id)


def _corrupt(payload: Any, injector: FaultInjector) -> Any:
    """A bit-flipped copy of a payload (``None`` if not corruptible)."""
    if isinstance(payload, np.ndarray):
        raw = payload.tobytes()
        if not raw:
            return None
        offset, bit = injector.choose_bit(len(raw))
        flipped = np.frombuffer(
            _flip_bit(raw, offset, bit), dtype=payload.dtype
        ).reshape(payload.shape)
        flipped.setflags(write=False)
        return flipped
    lows = getattr(payload, "lows", None)
    if lows is not None and len(lows):
        # Flip a bit in one row's MBR low corner.  The node is replaced,
        # not mutated, and the flipped ``lows`` is a copy: columns shared
        # with the clean node (a leaf's ``highs`` is its clean ``lows``)
        # stay intact.
        target = injector._rng.randrange(len(lows))
        raw = np.ascontiguousarray(lows[target], dtype=np.float64).tobytes()
        offset, bit = injector.choose_bit(len(raw))
        flipped = lows.copy()
        flipped[target] = np.frombuffer(
            _flip_bit(raw, offset, bit), dtype=np.float64
        )
        return replace(payload, lows=flipped)
    return None
