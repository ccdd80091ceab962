"""Tests for the chaos / metamorphic exactness harness itself."""

import pytest

from repro.__main__ import main as cli_main
from repro.chaos import (
    SCENARIOS,
    SERVE_SCENARIOS,
    TOPOLOGIES,
    ChaosReport,
    run_chaos,
    run_serve_chaos,
)

#: Scenarios a search-suite world of each topology can be dealt.
SHARDED_SCENARIOS = set(SCENARIOS)
UNSHARDED_SCENARIOS = SHARDED_SCENARIOS - {"shard-crash"}


# Sharded and unsharded worlds share every campaign, so the topology
# tests read the same reports as the rest of the suite.
@pytest.fixture(scope="module")
def seed3_campaign():
    return run_chaos(seed=3, iterations=8)


@pytest.fixture(scope="module")
def seed5_twice():
    return run_chaos(seed=5, iterations=6), run_chaos(seed=5, iterations=6)


@pytest.fixture(scope="module")
def seed7_campaign():
    # Two decks and more: every (scenario, topology) cell at least twice.
    return run_chaos(seed=7, iterations=40)


def scenarios_on(report, topology):
    return {
        scenario
        for scenario, where in report.cell_counts
        if where == topology
    }


class TestRunChaos:
    def test_small_campaign_holds_every_invariant(self, seed3_campaign):
        report = seed3_campaign
        assert report.ok, [str(failure) for failure in report.failures]
        assert report.iterations == 8
        assert report.checks > 0

    def test_deterministic_across_runs(self, seed5_twice):
        first, second = seed5_twice
        assert first.scenario_counts == second.scenario_counts
        assert first.checks == second.checks
        assert first.partials == second.partials

    def test_different_seeds_draw_different_schedules(self):
        # Over enough iterations two seeds picking identical scenario
        # sequences would mean the seed is ignored.
        first = run_chaos(seed=1, iterations=12)
        second = run_chaos(seed=2, iterations=12)
        assert first.ok and second.ok
        assert (
            first.scenario_counts != second.scenario_counts
            or first.checks != second.checks
        )

    def test_scenarios_all_reachable(self, seed7_campaign):
        report = seed7_campaign
        assert report.ok
        assert set(report.scenario_counts) == set(SCENARIOS)
        assert report.partials > 0

    def test_progress_callback_fires_per_iteration(self):
        lines = []
        run_chaos(seed=0, iterations=3, progress=lines.append)
        assert len(lines) == 3

    def test_empty_report_is_ok(self):
        assert ChaosReport(seed=0).ok

    def test_every_scenario_on_each_topology_and_axis_value(
        self, seed7_campaign
    ):
        report = seed7_campaign
        assert report.ok, [str(failure) for failure in report.failures]
        assert scenarios_on(report, "unsharded") == UNSHARDED_SCENARIOS
        for axis in TOPOLOGIES + ("raw", "z-norm", "file", "mmap"):
            assert report.axis_counts.get(axis, 0) > 0, axis
        assert sum(report.cell_counts.values()) == report.iterations


class TestRunServeChaos:
    def test_small_campaign_holds_every_invariant(self):
        report = run_serve_chaos(seed=3, iterations=6)
        assert report.ok, [str(failure) for failure in report.failures]
        assert report.iterations == 6
        assert report.checks > 0

    def test_scenario_schedule_is_deterministic(self):
        # The *schedule* is seeded; check counts are not asserted equal
        # because real thread races decide how many requests are shed
        # versus completed within a scenario.
        first = run_serve_chaos(seed=5, iterations=4)
        second = run_serve_chaos(seed=5, iterations=4)
        assert first.ok and second.ok
        assert first.scenario_counts == second.scenario_counts

    def test_scenarios_all_reachable(self):
        report = run_serve_chaos(seed=7, iterations=30)
        assert report.ok, [str(failure) for failure in report.failures]
        assert set(report.scenario_counts) == set(SERVE_SCENARIOS)
        # Adversity scenarios must have produced honest partials.
        assert report.partials > 0


class TestRunShardChaos:
    """The sharded worlds of the search suite."""

    def test_small_campaign_holds_every_invariant(self, seed3_campaign):
        report = seed3_campaign
        assert report.ok, [str(failure) for failure in report.failures]
        assert report.axis_counts["sharded"] > 0
        assert report.checks > 0

    def test_deterministic_across_runs(self, seed5_twice):
        first, second = seed5_twice
        assert first.axis_counts["sharded"] > 0
        assert first.cell_counts == second.cell_counts
        assert first.axis_counts == second.axis_counts
        assert first.checks == second.checks
        assert first.partials == second.partials

    def test_scenarios_all_reachable(self, seed7_campaign):
        report = seed7_campaign
        assert report.ok, [str(failure) for failure in report.failures]
        assert scenarios_on(report, "sharded") == SHARDED_SCENARIOS
        assert "shard-crash" not in scenarios_on(report, "unsharded")
        # Crashes, budgets, and deadlines must produce honest partials.
        assert report.partials > 0


class TestChaosCli:
    def test_exit_zero_and_summary_on_clean_run(self, capsys):
        assert cli_main(["chaos", "--seed", "3", "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "seed=3 iterations=4" in out

    def test_serve_suite_exit_zero(self, capsys):
        assert (
            cli_main(
                [
                    "chaos",
                    "--suite",
                    "serve",
                    "--seed",
                    "3",
                    "--iterations",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "OK" in out
        assert "run_serve_chaos" in out

    def test_shard_suite_exit_zero(self, capsys):
        # Sharded worlds run in the search suite; "shard" is no suite.
        assert (
            cli_main(
                [
                    "chaos",
                    "--suite",
                    "search",
                    "--seed",
                    "3",
                    "--iterations",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "OK" in out
        assert "run_chaos" in out
        assert " sharded=" in out
        with pytest.raises(SystemExit):
            cli_main(["chaos", "--suite", "shard"])
