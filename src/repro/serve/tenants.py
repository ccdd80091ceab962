"""Per-tenant quality-of-service state for the query service.

Each tenant (a named client of :class:`~repro.serve.service.QueryService`)
carries three pieces of admission state:

* a :class:`QosClass` deciding its scheduling priority and its
  degradation tier under saturation,
* a :class:`TokenBucket` rate limiter bounding its sustained request
  rate (so one chatty tenant cannot monopolise the queue), and
* a per-tenant :class:`~repro.storage.circuit.CircuitBreaker` over
  query *outcomes* — a tenant whose queries keep failing against
  storage is cut off early instead of burning worker time.

All classes here are shared across every service thread and annotated
with the PR 7 concurrency contracts; lint rule RS010 verifies the
locking discipline statically.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.concurrency import (
    guarded_by,
    requires_lock,
    shared_across_queries,
)
from repro.core.clock import MONOTONIC_CLOCK, Clock
from repro.exceptions import ConfigurationError
from repro.storage.circuit import CircuitBreaker


class QosClass(enum.IntEnum):
    """Scheduling class; lower value = higher priority.

    The integer value is also the aging multiplier in
    :class:`~repro.serve.queue.AgingPriorityQueue`: a ``BATCH`` request
    is scheduled as if it arrived ``2 * aging_interval_s`` later than
    an ``INTERACTIVE`` request submitted at the same instant — so
    better classes win ties, but an old request of *any* class
    eventually outranks fresh traffic (no starvation).
    """

    INTERACTIVE = 0
    STANDARD = 1
    BATCH = 2


@shared_across_queries
@guarded_by("_lock", "_tokens", "_last_refill")
class TokenBucket:
    """Classic token-bucket rate limiter on an injectable clock.

    ``rate`` tokens accrue per second up to ``burst``; each admitted
    request spends one.  :meth:`try_acquire` never blocks — on an empty
    bucket it returns the exact wait until a token accrues, which the
    service forwards to clients as a retry-after hint.

    Thread safety: token count and refill timestamp are a single
    check-then-act unit, guarded by ``_lock``.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Optional[Clock] = None,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._last_refill = self._clock.monotonic()

    @requires_lock("_lock")
    def _refill_locked(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_refill)
        self._last_refill = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_acquire(self, cost: float = 1.0) -> float:
        """Spend ``cost`` tokens if available.

        Returns ``0.0`` on success, otherwise the seconds until the
        bucket will hold ``cost`` tokens (a retry-after hint; the
        tokens are *not* spent on failure).
        """
        if cost <= 0:
            raise ConfigurationError(f"cost must be > 0, got {cost}")
        with self._lock:
            now = self._clock.monotonic()
            self._refill_locked(now)
            if self._tokens >= cost:
                self._tokens -= cost
                return 0.0
            return (cost - self._tokens) / self.rate

    @property
    def available(self) -> float:
        """Tokens currently in the bucket (after a refill)."""
        with self._lock:
            self._refill_locked(self._clock.monotonic())
            return self._tokens


@dataclass(frozen=True)
class TenantPolicy:
    """Static admission policy for one tenant (or the default).

    Attributes
    ----------
    qos:
        Scheduling class; see :class:`QosClass`.
    rate:
        Sustained requests per second through the token bucket.
    burst:
        Bucket depth — requests a quiet tenant may issue back-to-back.
    breaker_threshold / breaker_window / breaker_min_samples /
    breaker_reset_s:
        Per-tenant circuit-breaker tuning (failure fraction over the
        outcome window; see :class:`~repro.storage.circuit.CircuitBreaker`).
    """

    qos: QosClass = QosClass.STANDARD
    rate: float = 50.0
    burst: float = 20.0
    breaker_threshold: float = 0.6
    breaker_window: int = 10
    breaker_min_samples: int = 4
    breaker_reset_s: float = 1.0

    def make_breaker(self, clock: Optional[Clock] = None) -> CircuitBreaker:
        """Build this policy's circuit breaker on ``clock``."""
        return CircuitBreaker(
            failure_threshold=self.breaker_threshold,
            window=self.breaker_window,
            min_samples=self.breaker_min_samples,
            reset_timeout_s=self.breaker_reset_s,
            clock=clock,
        )


@dataclass
class TenantCounters:
    """Per-tenant outcome counters (all updates under the tenant lock)."""

    submitted: int = 0
    completed: int = 0
    partial: int = 0
    rejected_rate: int = 0
    rejected_breaker: int = 0
    shed: int = 0
    faults: int = 0


@shared_across_queries
@guarded_by("_lock", "counters")
class TenantState:
    """Live admission state for one tenant.

    The token bucket and circuit breaker are internally locked; the
    mutable counters here are guarded by this object's own ``_lock``.
    """

    def __init__(
        self,
        name: str,
        policy: TenantPolicy,
        clock: Optional[Clock] = None,
    ) -> None:
        self.name = name
        self.policy = policy
        self.bucket = TokenBucket(policy.rate, policy.burst, clock=clock)
        self.breaker = policy.make_breaker(clock=clock)
        self._lock = threading.Lock()
        self.counters = TenantCounters()

    def count(self, field_name: str, amount: int = 1) -> None:
        """Bump one :class:`TenantCounters` field thread-safely."""
        with self._lock:
            setattr(
                self.counters,
                field_name,
                getattr(self.counters, field_name) + amount,
            )

    def snapshot(self) -> TenantCounters:
        """A consistent copy of the counters."""
        with self._lock:
            return TenantCounters(**vars(self.counters))


@shared_across_queries
@guarded_by("_lock", "_tenants")
class TenantRegistry:
    """Name → :class:`TenantState` map with lazy creation.

    ``get_or_create`` is the only way tenants come into being, so the
    check-then-act on the map is guarded by ``_lock``; the returned
    :class:`TenantState` objects are themselves thread-safe and may be
    used outside the registry lock.
    """

    def __init__(
        self,
        default_policy: Optional[TenantPolicy] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.default_policy = (
            default_policy if default_policy is not None else TenantPolicy()
        )
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}

    def get_or_create(
        self, name: str, policy: Optional[TenantPolicy] = None
    ) -> TenantState:
        """The tenant's state, creating it on first sight.

        ``policy`` only applies at creation; an existing tenant keeps
        the policy it was created with (use :meth:`set_policy` to
        replace it).
        """
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = TenantState(
                    name,
                    policy if policy is not None else self.default_policy,
                    clock=self._clock,
                )
                self._tenants[name] = state
            return state

    def set_policy(self, name: str, policy: TenantPolicy) -> TenantState:
        """(Re)create ``name`` with ``policy``, resetting its state."""
        with self._lock:
            state = TenantState(name, policy, clock=self._clock)
            self._tenants[name] = state
            return state

    def names(self) -> List[str]:
        """Known tenant names, sorted."""
        with self._lock:
            return sorted(self._tenants)
