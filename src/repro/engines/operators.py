"""The extended iterator model (Definition 5 of the paper).

Classic Volcano-style iterators return either a tuple or end-of-results.
The paper extends the contract with a third outcome so that the parent
operator can make fine-grained scheduling decisions: an operator may
report that no tuple is ready yet but that everything it will ever emit
costs at least ``LB``.

Every operator exposes ``get_next()``, which returns a
``(Status, payload)`` pair:

* ``Status.TUPLE`` — payload is the next result (a ranked candidate);
* ``Status.LB`` — payload is the lower bound (p-th power) of the next
  result;
* ``Status.EOR`` — the operator is exhausted; payload is ``None``.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple


class Status(enum.Enum):
    """Outcome of one ``get_next`` call in the extended iterator model."""

    TUPLE = "tuple"
    LB = "lb"
    EOR = "eor"


@dataclass(frozen=True)
class RankedTuple:
    """A fully-evaluated candidate flowing between ranked operators."""

    distance_pow: float
    sid: int
    start: int


StepResult = Tuple[Status, Optional[Any]]


class ExtendedIterator(abc.ABC):
    """Base class for operators following the extended iterator model."""

    @abc.abstractmethod
    def get_next(self) -> StepResult:
        """Advance by one scheduling quantum; see module docstring."""
