"""Injectable monotonic time sources.

Everything in the library that reads or spends time — deadline checks in
:mod:`repro.control`, retry backoff in :mod:`repro.storage.buffer`,
latency faults in :mod:`repro.storage.faults` — goes through a :class:`Clock`
so tests and the chaos harness can substitute :class:`FakeClock` and
never block on real wall-clock time.

This module sits at the bottom of the import graph on purpose: it must
stay importable from both the storage layer and the control plane
without creating a cycle.
"""

from __future__ import annotations

import time

from repro.exceptions import ConfigurationError


class Clock:
    """Injectable time source: monotonic seconds plus a sleep.

    The real implementation (:class:`MonotonicClock`) delegates to
    :mod:`time`; :class:`FakeClock` advances manually so deadline and
    backoff behaviour is testable without wall-clock waits.
    """

    def monotonic(self) -> float:
        """Current monotonic time in seconds."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block (or simulate blocking) for ``seconds``."""
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real clock: ``time.monotonic`` and ``time.sleep``."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


#: Shared default instance — the clock used when none is injected.
MONOTONIC_CLOCK = MonotonicClock()


class FakeClock(Clock):
    """A deterministic clock for tests and the chaos harness.

    ``sleep`` advances simulated time instead of blocking, and
    ``auto_advance`` ticks the clock forward on every ``monotonic()``
    read — which makes deadline expiry a deterministic function of the
    number of checkpoints executed, independent of host speed.
    """

    def __init__(self, start: float = 0.0, auto_advance: float = 0.0) -> None:
        if auto_advance < 0:
            raise ConfigurationError(
                f"auto_advance must be >= 0, got {auto_advance}"
            )
        self._now = float(start)
        self.auto_advance = float(auto_advance)
        #: Total simulated seconds spent inside ``sleep``.
        self.slept_s = 0.0

    def monotonic(self) -> float:
        now = self._now
        self._now += self.auto_advance
        return now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError(f"cannot sleep {seconds} seconds")
        self._now += seconds
        self.slept_s += seconds

    def advance(self, seconds: float) -> None:
        """Move simulated time forward by ``seconds``."""
        if seconds < 0:
            raise ConfigurationError(f"cannot advance by {seconds}")
        self._now += seconds
