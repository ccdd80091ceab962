"""Small-surface tests: exports, config validation, report helpers."""

import pathlib

import pytest

from repro.engines.base import DEFERRED_FRACTION, QuerySpec, SearchResult
from repro.exceptions import ConfigurationError


class TestPublicExports:
    def test_package_all_resolves(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_all_resolves(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_engines_all_resolves(self):
        import repro.engines as engines

        for name in engines.__all__:
            assert getattr(engines, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_pyproject_takes_its_version_from_the_package(self):
        # Single-sourced: the build reads ``repro.__version__`` and
        # declares no second, static number that could drift from it.
        text = (
            pathlib.Path(__file__).parents[1] / "pyproject.toml"
        ).read_text()
        assert 'dynamic = ["version"]' in text
        assert 'version = { attr = "repro.__version__" }' in text
        assert '\nversion = "' not in text


class TestEngineConfig:
    def test_defaults(self):
        config = QuerySpec(k=5, rho=2)
        assert not config.deferred
        assert DEFERRED_FRACTION == 0.005
        assert config.p == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0, "rho": 1},
            {"k": 1, "rho": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            QuerySpec(**kwargs)

    def test_frozen(self):
        config = QuerySpec(k=1, rho=1)
        with pytest.raises(Exception):
            config.k = 2


class TestSearchResult:
    def test_distances_property(self):
        from repro.core.metrics import QueryStats
        from repro.core.results import Match

        result = SearchResult(
            matches=[
                Match(distance=1.0, sid=0, start=0, length=4),
                Match(distance=2.0, sid=0, start=9, length=4),
            ],
            stats=QueryStats(),
        )
        assert result.distances == [1.0, 2.0]


class TestWorkloadResult:
    def test_metric_lookup(self):
        from repro.bench.harness import WorkloadResult

        result = WorkloadResult(
            label="X",
            queries=1,
            candidates=10.0,
            page_accesses=5.0,
            wall_time_s=0.1,
            modeled_time_s=0.2,
            extras={"bloom_calls": 7.0},
        )
        assert result.metric("candidates") == 10.0
        assert result.metric("bloom_calls") == 7.0
        with pytest.raises(KeyError):
            result.metric("nonexistent")


class TestDatasetSizing:
    def test_scaled_size_floor(self):
        from repro.data.datasets import scaled_size

        # Even at absurdly small scales sizes stay index-worthy.
        assert scaled_size("STOCK", 1e-9) >= 8_192

    def test_default_scale_ordering(self):
        from repro.data.datasets import DATASET_NAMES, scaled_size

        sizes = {name: scaled_size(name) for name in DATASET_NAMES}
        assert sizes["PIPE"] == max(sizes.values())


class TestEngineNames:
    def test_ranked_union_variant_names(self, walk_db):
        from repro.control import ExecutionControl
        from repro.engines.base import RANKED_UNION_METHODS, QuerySpec
        from repro.obs import Tracer

        query = walk_db.store.peek_subsequence(0, 300, 48).copy()

        def label(kind, method):
            control = ExecutionControl(tracer=Tracer(enabled=True))
            spec = QuerySpec(k=3, rho=2, kind=kind, method=method)
            if kind == "stream":
                stream = walk_db.open_stream(query, spec, control)
                list(stream)
                return stream.profile.span.attrs["engine"]
            result = walk_db.run_query(query, spec, control)
            return result.profile.span.attrs["engine"]

        names = [label("knn", method) for method in RANKED_UNION_METHODS]
        assert names == ["RU", "RU-COST"]
        assert {
            label("stream", method) for method in RANKED_UNION_METHODS
        } == {"RU-STREAM"}
