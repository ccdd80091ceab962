"""Unit tests for query envelopes (repro.core.envelope)."""

import numpy as np
import pytest

from repro.core.envelope import Envelope, query_envelope
from repro.exceptions import QueryError


def naive_envelope(values, rho):
    """O(n * rho) reference implementation."""
    n = len(values)
    lower = np.empty(n)
    upper = np.empty(n)
    for i in range(n):
        window = values[max(0, i - rho) : min(n, i + rho + 1)]
        lower[i] = min(window)
        upper[i] = max(window)
    return lower, upper


class TestQueryEnvelope:
    def test_contains_query(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(50)
        env = query_envelope(q, rho=4)
        assert np.all(env.lower <= q)
        assert np.all(env.upper >= q)

    def test_rho_zero_is_the_query_itself(self):
        q = np.array([1.0, -2.0, 3.0])
        env = query_envelope(q, rho=0)
        assert env.lower.tolist() == q.tolist()
        assert env.upper.tolist() == q.tolist()

    @pytest.mark.parametrize("rho", [1, 2, 5, 13])
    def test_matches_naive_implementation(self, rho):
        rng = np.random.default_rng(rho)
        q = rng.standard_normal(64)
        env = query_envelope(q, rho=rho)
        lower, upper = naive_envelope(q.tolist(), rho)
        np.testing.assert_allclose(env.lower, lower)
        np.testing.assert_allclose(env.upper, upper)

    def test_rho_larger_than_sequence(self):
        q = np.array([3.0, 1.0, 2.0])
        env = query_envelope(q, rho=10)
        assert env.lower.tolist() == [1.0, 1.0, 1.0]
        assert env.upper.tolist() == [3.0, 3.0, 3.0]

    def test_wider_rho_widens_envelope(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal(40)
        narrow = query_envelope(q, rho=2)
        wide = query_envelope(q, rho=6)
        assert np.all(wide.lower <= narrow.lower)
        assert np.all(wide.upper >= narrow.upper)

    def test_rejects_bad_inputs(self):
        with pytest.raises(QueryError):
            query_envelope([], rho=1)
        with pytest.raises(QueryError):
            query_envelope([1.0], rho=-1)
        with pytest.raises(QueryError):
            query_envelope(np.zeros((2, 2)), rho=1)

    def test_envelope_is_read_only(self):
        env = query_envelope([1.0, 2.0, 3.0], rho=1)
        with pytest.raises(ValueError):
            env.lower[0] = 0.0


class TestSlice:
    def test_slice_values(self):
        env = query_envelope([1.0, 5.0, 2.0, 8.0], rho=1)
        part = env.slice(1, 2)
        assert part.lower.tolist() == env.lower[1:3].tolist()
        assert len(part) == 2

    def test_slice_bounds_checked(self):
        env = query_envelope([1.0, 2.0, 3.0], rho=0)
        with pytest.raises(QueryError):
            env.slice(2, 2)
        with pytest.raises(QueryError):
            env.slice(-1, 2)

    def test_mismatched_halves_rejected(self):
        with pytest.raises(QueryError):
            Envelope(lower=np.zeros(3), upper=np.zeros(4))
