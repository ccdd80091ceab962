"""Generalized windowing and matching subsequence equivalence classes.

In the DualMatch scheme [17] data sequences are cut into **disjoint**
windows of size ``omega`` and the query envelope into **sliding**
windows; Definition 4 partitions the sliding windows into ``omega``
equivalence classes (MSEQs): windows whose offsets are congruent modulo
``omega`` always align with the same disjoint data windows, hence match
the same candidate subsequences (Lemma 3).

Following GeneralMatch [16], the construction is generalized by a
**data stride** ``J`` dividing ``omega``: data windows start at
multiples of ``J`` (overlapping when ``J < omega``), and only the query
windows at offsets congruent to ``r (mod omega)`` with ``r < J`` are
used — ``J`` equivalence classes of *disjoint* query windows.  A
candidate at start ``s`` belongs to exactly the class
``r = (-s) mod J``: its first covered grid window sits at
``p = ceil(s / J) * J`` with query offset ``p - s = r``, and because
``J | omega`` every further class window lands on the grid too.
``J = omega`` is DualMatch; ``J = 1`` indexes every sliding data window
(the FRM end of the spectrum).  All the paper's bounds carry over
unchanged: class windows stay pairwise disjoint, so the MSEQ-distance
derivation (Lemma 4) applies verbatim.

All offsets are 0-based.  The paper's 1-based ``MSEQ_{i,j}`` with
``i in [1, omega]``, ``j in [1, |MSEQ_i|]`` maps to ``mseq_class = i - 1``
and ``mseq_position = j - 1`` here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.envelope import Envelope, query_envelope
from repro.core.normalize import znormalize
from repro.core.paa import paa, segment_length
from repro.exceptions import QueryError, QueryTooShortError


def candidate_start(
    data_window_index: int, sliding_offset: int, data_stride: int
) -> int:
    """Start offset of the candidate implied by one matching window pair.

    If sliding query window at offset ``j`` (0-based) aligns with the
    data window ``m`` (0-based, starting at ``m * data_stride``), the
    candidate subsequence starts at ``m * data_stride - j`` — the proof
    of Lemma 3 in 0-based form (``data_stride == omega`` for DualMatch).
    May be negative or run past the sequence end; callers validate with
    :func:`candidate_in_bounds`.
    """
    return data_window_index * data_stride - sliding_offset


def candidate_in_bounds(
    start: int, query_length: int, sequence_length: int
) -> bool:
    """Whether a candidate ``[start, start + Len(Q))`` fits the sequence."""
    return start >= 0 and start + query_length <= sequence_length


@dataclass(frozen=True)
class QueryWindow:
    """One sliding window of the query envelope, PAA-transformed.

    Attributes
    ----------
    sliding_offset:
        0-based offset of the window within the query.
    mseq_class:
        Which equivalence class the window belongs to
        (``sliding_offset % omega``).
    mseq_position:
        0-based position of the window within its class
        (``sliding_offset // omega``).
    paa_lower, paa_upper:
        ``P(E(q))`` — the PAA of the envelope slice for this window.
    """

    sliding_offset: int
    mseq_class: int
    mseq_position: int
    paa_lower: np.ndarray = field(repr=False)
    paa_upper: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class QueryWindowSet:
    """The used query windows of a query, grouped into MSEQs.

    Build with :meth:`from_query`.  ``classes[r]`` lists the windows of
    class ``r`` in position order; ``windows`` lists all *used* windows
    in offset order (with the DualMatch stride ``J == omega`` that is
    every sliding window).
    """

    query: np.ndarray = field(repr=False)
    envelope: Envelope = field(repr=False)
    omega: int
    features: int
    rho: int
    p: float
    data_stride: int
    windows: List[QueryWindow] = field(repr=False)
    classes: List[List[QueryWindow]] = field(repr=False)
    #: Whether :attr:`query` (and hence the envelope and every PAA
    #: window) is the z-normalized form of the caller's query.
    normalized: bool = False

    @property
    def length(self) -> int:
        """``Len(Q)``."""
        return int(self.query.size)

    @property
    def seg_len(self) -> int:
        """Raw values per PAA dimension (``omega / features``)."""
        return segment_length(self.omega, self.features)

    @property
    def num_classes(self) -> int:
        """Number of equivalence classes (the data stride ``J``)."""
        return len(self.classes)

    @classmethod
    def from_query(
        cls,
        query: Sequence[float],
        omega: int,
        features: int,
        rho: int,
        p: float = 2.0,
        envelope: Optional[Envelope] = None,
        data_stride: Optional[int] = None,
        normalize: bool = False,
    ) -> "QueryWindowSet":
        """Construct envelope, query windows, and the MSEQ partition.

        ``data_stride`` (``J``) defaults to ``omega`` (DualMatch) and
        must divide ``omega``.  With ``normalize`` the query is first
        z-normalized (whole-query mean/std, the UCR convention), so the
        envelope and every PAA window live in normalized space; pass no
        precomputed ``envelope`` in that case.

        Raises
        ------
        QueryTooShortError
            If ``Len(Q) < omega + data_stride - 1``.  Below that, a
            candidate can straddle grid-window boundaries without fully
            containing any grid window, so matching could miss it
            (equivalently, Definition 2's ``r`` would be zero).
        """
        stride = omega if data_stride is None else data_stride
        if stride < 1 or omega % stride != 0:
            raise QueryTooShortError(
                f"data stride {stride} must divide omega {omega}"
            )
        array = np.ascontiguousarray(query, dtype=np.float64)
        if array.size < omega + stride - 1:
            raise QueryTooShortError(
                f"query length {array.size} < omega + stride - 1 = "
                f"{omega + stride - 1}; no-false-dismissal guarantee "
                f"would break"
            )
        segment_length(omega, features)  # validates omega/features pairing
        if normalize:
            if envelope is not None:
                raise QueryError(
                    "normalize=True rebuilds the envelope in normalized "
                    "space; do not pass a precomputed envelope"
                )
            array = np.ascontiguousarray(znormalize(array))
        if envelope is None:
            envelope = query_envelope(array, rho)
        windows: List[QueryWindow] = []
        classes: List[List[QueryWindow]] = [[] for _ in range(stride)]
        for offset in range(array.size - omega + 1):
            residue = offset % omega
            if residue >= stride:
                continue  # unused under this stride
            window_env = envelope.slice(offset, omega)
            window = QueryWindow(
                sliding_offset=offset,
                mseq_class=residue,
                mseq_position=offset // omega,
                paa_lower=paa(window_env.lower, features),
                paa_upper=paa(window_env.upper, features),
            )
            windows.append(window)
            classes[residue].append(window)
        return cls(
            query=array,
            envelope=envelope,
            omega=omega,
            features=features,
            rho=rho,
            p=p,
            data_stride=stride,
            windows=windows,
            classes=classes,
            normalized=normalize,
        )

    def class_of(self, sliding_offset: int) -> List[QueryWindow]:
        """The equivalence class containing the window at this offset."""
        residue = sliding_offset % self.omega
        if residue >= self.data_stride:
            raise QueryError(
                f"offset {sliding_offset} is not a used window under "
                f"stride {self.data_stride}"
            )
        return self.classes[residue]

    def window_at(self, sliding_offset: int) -> QueryWindow:
        """The used window at a given sliding offset.

        With the DualMatch stride every offset is used; with a smaller
        stride only offsets whose residue modulo ``omega`` is below the
        stride exist (:class:`~repro.exceptions.QueryError` otherwise).
        """
        cls = self.class_of(sliding_offset)
        window = cls[sliding_offset // self.omega]
        if window.sliding_offset != sliding_offset:
            raise QueryError(
                f"no window at offset {sliding_offset}"
            )
        return window
