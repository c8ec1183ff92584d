"""Cell runner: metrics, determinism, suite assembly, the driver CLI."""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro import instrument
from repro.bench import (
    build_bench,
    check_expectations,
    get_workload,
    run_cell,
    run_suite,
    suite_expectations,
    validate_bench,
)
from repro.bench import routes
from repro.bench.__main__ import main
from repro.bench.routes import RouteResult, close_pools

TINY = "thermal-16x16-s50-f00"
TINY_FAULTED = "thermal-16x16-s50-f20"


def _collecting(_):
    """Pool task: whether this worker collects instrument data."""
    return instrument.enabled()


class TestRunCell:
    def test_engine_cell_metrics(self):
        cell = run_cell(get_workload(TINY), "serial", base_seed=0)
        metrics = cell["metrics"]
        assert cell["workload"] == TINY and cell["route"] == "serial"
        assert metrics["wall_s"] > 0
        assert metrics["ms_per_frame"] == pytest.approx(
            metrics["wall_s"] / cell["frames"] * 1e3
        )
        assert 0.0 < metrics["rmse"] < 0.2  # reconstruction is sane
        assert metrics["delivered"] == 1.0
        assert metrics["ok_fraction"] == 1.0
        # The counted pass starts cold: one build, then hits.
        assert cell["counters"]["engine.cache.misses"] == 1
        assert cell["counters"]["engine.cache.hits"] == cell["frames"] - 1
        assert metrics["speedup_vs_serial"] is None

    def test_batch_shared_cell_delivers_every_frame(self):
        cell = run_cell(get_workload(TINY), "batch_shared", base_seed=0)
        assert cell["metrics"]["delivered"] == 1.0
        assert cell["extras"] == {"shared_phi": True}

    def test_supervised_cell_under_faults(self):
        cell = run_cell(get_workload(TINY_FAULTED), "resilient", base_seed=0)
        assert cell["metrics"]["delivered"] == 1.0  # never drops a frame
        assert cell["extras"]["statuses"]  # audit trail present
        assert cell["fault_rate"] == 0.20

    def test_journal_route_matches_resilient_bit_for_bit(self):
        """The journalled route must change only the bookkeeping: its
        reconstructions (and so rmse) are identical to ``resilient`` on
        the same workload and seed, isolating journal overhead."""
        plain = run_cell(get_workload(TINY_FAULTED), "resilient", base_seed=0)
        journalled = run_cell(
            get_workload(TINY_FAULTED), "resilient_journal", base_seed=0
        )
        assert journalled["metrics"]["rmse"] == plain["metrics"]["rmse"]
        assert journalled["metrics"]["delivered"] == 1.0
        assert journalled["extras"]["faults_seen"] == (
            plain["extras"]["faults_seen"]
        )

    def test_journal_route_reports_journal_cost(self):
        cell = run_cell(
            get_workload(TINY_FAULTED), "resilient_journal", base_seed=0
        )
        extras = cell["extras"]
        assert extras["journalled"] is True
        # One admit + one verdict per frame.
        assert extras["journal_records"] == 2 * cell["frames"]
        assert extras["journal_bytes"] > 0
        # The overhead fraction the smoke expectations bound at 10%.
        assert 0.0 < extras["journal_wall_s"] < cell["metrics"]["wall_s"]

    def test_rmse_is_deterministic_across_runs(self):
        first = run_cell(get_workload(TINY), "serial", base_seed=3)
        second = run_cell(get_workload(TINY), "serial", base_seed=3)
        assert first["metrics"]["rmse"] == second["metrics"]["rmse"]
        third = run_cell(get_workload(TINY), "serial", base_seed=4)
        assert first["metrics"]["rmse"] != third["metrics"]["rmse"]

    def test_engine_routes_agree_bit_for_bit(self):
        serial = run_cell(get_workload(TINY), "serial", base_seed=0)
        try:
            pooled = run_cell(get_workload(TINY), "process", base_seed=0)
        finally:
            close_pools()
        assert serial["metrics"]["rmse"] == pooled["metrics"]["rmse"]

    def test_instrumented_mode_attaches_counters(self):
        """The counted pass is the one instrumented pass: its counters
        describe exactly one decode of the stack."""
        cell = run_cell(get_workload(TINY), "serial", base_seed=0)
        assert cell["counters"].get("decode.calls") == cell["frames"]
        assert any(k.startswith("engine.cache.") for k in cell["counters"])

    def test_instrumented_mode_attaches_solver_iterations(self):
        cell = run_cell(get_workload(TINY), "serial", base_seed=0)
        counters = cell["counters"]
        solves = counters["solver.fista.calls"]
        assert solves == cell["frames"]
        assert counters["solver.fista.iterations.count"] == solves
        assert counters["solver.fista.iterations.total"] >= solves

    @pytest.mark.parametrize(
        "workload, route",
        [
            (TINY, "serial"),
            (TINY, "batch_shared"),
            (TINY_FAULTED, "resilient"),
            (TINY_FAULTED, "resilient_journal"),
        ],
    )
    def test_run_cell_always_records_counters(self, workload, route):
        cell = run_cell(get_workload(workload), route, base_seed=0)
        counters = cell["counters"]
        assert counters["operator.applies"] > 0
        assert counters["decode.calls"] >= cell["frames"]
        assert "calibration_s" not in cell["metrics"]
        assert "cache_hit_rate" not in cell["metrics"]

    def test_fastest_timed_pass_supplies_wall(self):
        """One counted pass with collection on, then three timed passes
        with it off: the counted pass scores the cell, the fastest timed
        pass times it and supplies its extras."""
        workload = get_workload(TINY)

        class StubRoute:
            """Passes of (sleep s, reconstruction offset)."""

            name = "stub"
            passes = iter([(0.0, 0.0), (0.01, 0.1), (0.3, 0.2), (0.15, 0.3)])
            collecting = []

            def run(self, frames, workload, seed):
                self.collecting.append(instrument.enabled())
                pause, offset = next(self.passes)
                time.sleep(pause)
                return SimpleNamespace(
                    reconstructions=[f + offset for f in frames],
                    delivered=len(frames),
                    ok=len(frames),
                    extras={"pause": pause},
                )

        stub = StubRoute()
        cell = run_cell(workload, stub, base_seed=0)
        metrics = cell["metrics"]
        assert stub.collecting == [True, False, False, False]
        assert metrics["rmse"] == 0.0  # the counted pass
        assert 0.01 <= metrics["wall_s"] < 0.15  # the fastest timed pass
        assert cell["extras"] == {"pause": 0.01}

    def test_cache_expectation_fails_on_a_route_that_misses_every_frame(
        self,
    ):
        """A route decoding every frame on a fresh engine (a bypassed
        cache) records one miss per frame; the expectation fails it and
        passes the real serial loop."""
        from repro.core import DecodeContext, DecodeEngine

        (expectation,) = [
            e for e in suite_expectations("smoke")
            if e.metric == "engine.cache.misses"
        ]
        workload = replace(get_workload(expectation.workload), frames=4)

        def bypass(frames, workload, seed):
            plan = DecodeContext(workload.shape, workload.sampling_fraction)
            rng = np.random.default_rng(seed)
            recons = [DecodeEngine().decode(f, plan, rng) for f in frames]
            return RouteResult(recons, len(recons), len(recons), {})

        stub = SimpleNamespace(name=expectation.route, run=bypass)
        cells = [run_cell(workload, stub), run_cell(workload, "serial")]
        assert cells[0]["counters"]["engine.cache.misses"] == 4
        assert cells[1]["counters"]["engine.cache.misses"] == 1
        for cell, met in zip(cells, (False, True)):
            problems = check_expectations(build_bench(1, "smoke", 0, [cell]))
            judged = [p for p in problems if expectation.metric in p]
            assert (judged == []) is met, judged

    def test_counted_pass_leaves_collection_off_in_pool_workers(self):
        """The process pool forks inside the counted pass, where the
        parent collects; its workers must not."""
        close_pools()
        try:
            cell = run_cell(get_workload(TINY), "process", base_seed=0)
            assert cell["counters"]["executor.tasks"] == cell["frames"]
            results = routes._POOL.map_tasks(_collecting, range(8))
            assert [r.value for r in results] == [False] * 8
        finally:
            close_pools()


class TestRunSuite:
    def test_tiny_suite_document(self):
        doc = run_suite("tiny", bench_id=42, seed=0)
        assert validate_bench(doc) == []
        assert doc["bench_id"] == 42
        assert doc["suite"] == "tiny"
        assert len(doc["cells"]) == 3
        by_route = {
            (c["workload"], c["route"]): c["metrics"] for c in doc["cells"]
        }
        shared = by_route[(TINY, "batch_shared")]
        assert shared["speedup_vs_serial"] is not None
        assert by_route[(TINY, "serial")]["speedup_vs_serial"] is None

    def test_progress_callback(self):
        lines = []
        run_suite("tiny", bench_id=1, seed=0, progress=lines.append)
        assert len(lines) == 3 and "[1/3]" in lines[0]


class TestDriverCli:
    def test_suite_run_emits_valid_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_6.json"
        code = main(
            ["--suite", "tiny", "--bench-id", "6",
             "--output", str(out), "--root", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert main(["--validate", str(out)]) == 0

    def test_default_output_uses_next_free_id(self, tmp_path, capsys):
        code = main(["--suite", "tiny", "--root", str(tmp_path), "--quiet"])
        assert code == 0
        assert (tmp_path / "BENCH_1.json").exists()
