"""Cell runner: metrics, determinism, suite assembly, the driver CLI."""

import time
from types import SimpleNamespace

import pytest

from repro.bench import (
    get_workload,
    run_cell,
    run_suite,
    validate_bench,
)
from repro.bench import runner
from repro.bench.__main__ import main
from repro.bench.runner import calibrate

TINY = "thermal-16x16-s50-f00"
TINY_FAULTED = "thermal-16x16-s50-f20"


class TestCalibrate:
    def test_positive_and_repeatable_scale(self):
        first = calibrate(repeats=1, loops=2)
        second = calibrate(repeats=1, loops=2)
        assert first > 0 and second > 0
        # Same host, same workload: within an order of magnitude.
        assert 0.1 < first / second < 10.0


class TestRunCell:
    def test_engine_cell_metrics(self):
        cell = run_cell(get_workload(TINY), "serial", base_seed=0)
        metrics = cell["metrics"]
        assert cell["workload"] == TINY and cell["route"] == "serial"
        assert metrics["wall_s"] > 0
        assert metrics["calibration_s"] > 0  # contemporaneous pairing
        assert metrics["ms_per_frame"] == pytest.approx(
            metrics["wall_s"] / cell["frames"] * 1e3
        )
        assert 0.0 < metrics["rmse"] < 0.2  # reconstruction is sane
        assert metrics["delivered"] == 1.0
        assert metrics["ok_fraction"] == 1.0
        # Warm-up miss, then hits: streaming cells sit near 1.0.
        assert metrics["cache_hit_rate"] > 0.5
        assert metrics["speedup_vs_serial"] is None

    def test_batch_shared_cell_delivers_every_frame(self):
        cell = run_cell(get_workload(TINY), "batch_shared", base_seed=0)
        assert cell["metrics"]["delivered"] == 1.0
        assert cell["extras"] == {"shared_phi": True}

    def test_uncached_cell_bypasses_the_operator_cache(self):
        serial = run_cell(get_workload(TINY), "serial", base_seed=0)
        uncached = run_cell(
            get_workload(TINY), "serial_uncached", base_seed=0
        )
        assert uncached["extras"] == {"cached": False, "fast_basis": False}
        # The route's own engine never touches the cell's cache.
        assert uncached["metrics"]["cache_hit_rate"] is None
        assert uncached["metrics"]["delivered"] == 1.0
        assert uncached["metrics"]["rmse"] == pytest.approx(
            serial["metrics"]["rmse"], rel=1e-9
        )

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
        batch = run_cell(get_workload(TINY), "thread", base_seed=0)
        assert serial["metrics"]["rmse"] == batch["metrics"]["rmse"]

    def test_instrumented_mode_attaches_counters(self):
        cell = run_cell(
            get_workload(TINY), "serial", base_seed=0, instrumented=True
        )
        assert cell["counters"].get("decode.calls") == cell["frames"]
        assert any(k.startswith("engine.cache.") for k in cell["counters"])

    def test_instrumented_mode_attaches_solver_iterations(self):
        cell = run_cell(
            get_workload(TINY), "serial", base_seed=0, instrumented=True
        )
        counters = cell["counters"]
        solves = counters["solver.fista.calls"]
        assert solves == cell["frames"]
        assert counters["solver.fista.iterations.count"] == solves
        assert counters["solver.fista.iterations.total"] >= solves

    def test_disturbed_calibration_does_not_pick_the_slowest_repeat(
        self, monkeypatch
    ):
        """Repeat 2 is the slowest; a calibration reading disturbed 1000x
        next to it once made its ``wall / calibration`` ratio the best."""
        workload = get_workload(TINY)
        readings = iter([1.0, 1000.0, 1.0])
        monkeypatch.setattr(
            runner, "calibrate", lambda *a, **k: next(readings, 1.0)
        )

        class StubRoute:
            """Warm-up, then repeats of (sleep s, reconstruction offset)."""

            name = "stub"
            passes = iter([(0.0, 0.0), (0.01, 0.1), (0.2, 0.2), (0.05, 0.3)])

            def run(self, frames, workload, seed):
                pause, offset = next(self.passes)
                time.sleep(pause)
                return SimpleNamespace(
                    reconstructions=[f + offset for f in frames],
                    delivered=len(frames),
                    ok=len(frames),
                    extras={},
                )

        cell = run_cell(workload, StubRoute(), base_seed=0, repeats=3)
        metrics = cell["metrics"]
        assert metrics["rmse"] == pytest.approx(0.1)  # the fastest repeat
        assert metrics["wall_s"] < 0.2
        assert metrics["calibration_s"] == 1.0  # one reading, before warm-up


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
