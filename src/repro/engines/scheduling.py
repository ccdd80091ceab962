"""Priority-queue selection for the ``Φ`` operator.

``Φ_i.GetNext()`` must decide which of its per-window priority queues to
consume (``SelectPriorityQueue()`` in the paper).  The query's
``method`` names one of two selectors, which
:class:`~repro.engines.ranked_union.PhiOperator` builds directly:

* ``"ru"`` — :class:`MaxDeltaStrategy`, the paper's **RU**, adopted from
  the multi-feature ranking heuristics of Güntzer et al. [10]: pick the
  queue whose top distance grew the most since it was last selected.
* ``"ru-cost"`` — :class:`CostAwareStrategy`, **RU-COST** (Section 4),
  delegating to
  :class:`~repro.engines.cost_density.CostAwareDensityScheduler`.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence

from repro.engines.cost_density import STICKY_POPS, CostAwareDensityScheduler
from repro.engines.queues import WindowQueue


class SchedulingStrategy(abc.ABC):
    """Chooses which live queue the owning ``Φ`` pops next."""

    @abc.abstractmethod
    def select(self, queues: Sequence[WindowQueue]) -> WindowQueue:
        """Pick one of the (all non-empty) queues."""

    def after_pop(self, queue: WindowQueue) -> None:
        """Hook invoked after the selected queue was popped."""


class MaxDeltaStrategy(SchedulingStrategy):
    """Pick the queue whose top grew the most since its last selection."""

    def select(self, queues: Sequence[WindowQueue]) -> WindowQueue:
        best = queues[0]
        best_delta = -math.inf
        for queue in queues:
            top = queue.top_pow()
            delta = top - queue.reference_top_pow
            if delta > best_delta:
                best_delta = delta
                best = queue
        return best

    def after_pop(self, queue: WindowQueue) -> None:
        queue.reference_top_pow = queue.top_pow()


class CostAwareStrategy(SchedulingStrategy):
    """RU-COST: delegate to the cost-aware density scheduler.

    The densest-queue decision is *sticky*: once selected, a queue is
    consumed for up to ``sticky_pops`` pops before the (comparatively
    expensive, occasionally I/O-incurring) density machinery re-runs.
    Densities drift slowly between consecutive pops, so stickiness cuts
    the scheduling overhead without changing which region of the queue
    space gets consumed.
    """

    def __init__(
        self,
        scheduler: CostAwareDensityScheduler,
        sticky_pops: int = STICKY_POPS,
    ) -> None:
        self._scheduler = scheduler
        self._sticky_pops = max(1, sticky_pops)
        self._current: Optional[WindowQueue] = None
        self._remaining = 0

    def select(self, queues: Sequence[WindowQueue]) -> WindowQueue:
        if (
            self._current is not None
            and self._remaining > 0
            and not self._current.is_empty
            and any(queue is self._current for queue in queues)
        ):
            self._remaining -= 1
            return self._current
        chosen = self._scheduler.select(queues)
        self._current = chosen
        self._remaining = self._sticky_pops - 1
        return chosen
