"""Trend module: deltas across a synthetic history, gate exit codes."""

import pytest

from repro.bench import (
    bench_filename,
    build_bench,
    cell_metric,
    check_expectations,
    check_regressions,
    compute_deltas,
    get_route,
    get_workload,
    load_history,
    render_markdown,
    suite_cells,
    suite_expectations,
    suite_names,
    trajectory_markdown,
    write_bench,
)
from repro.bench.__main__ import main

from .test_schema import make_cell, make_doc

SMOKE_EXPECTATIONS = suite_expectations("smoke")


def doc_with(bench_id, wall_s, rmse=0.02, route="serial", counters=None):
    cell = make_cell(route=route, wall_s=wall_s, rmse=rmse)
    if counters is not None:
        cell["counters"] = dict(counters)
    return make_doc(bench_id=bench_id, cells=[cell])


def expected_cell(expectation, passing=True):
    """A cell whose expected metric lands on either side of the bound."""
    bound = expectation.bound
    value = {
        ">=": bound * 2.0 if passing else bound * 0.8,
        "<=": bound / 2.0 if passing else bound / 0.8,
        "==": bound if passing else bound * 40,
    }[expectation.comparison]
    cell = make_cell(expectation.workload, expectation.route, wall_s=0.1)
    cell["tier"] = 2
    if expectation.metric == "journal_fraction":
        cell["extras"] = {"journal_wall_s": value * 0.1}
    elif expectation.metric in cell["metrics"]:
        cell["metrics"][expectation.metric] = value
    else:
        cell["counters"] = {expectation.metric: value}
    assert cell_metric(cell, expectation.metric) == pytest.approx(value)
    return cell


def smoke_doc_with(bench_id, wall_s, **kwargs):
    """``doc_with`` plus a cell meeting every smoke expectation.

    The expectation cells follow ``doc_with``'s one cell, in table
    order: expectation ``i`` judges ``doc["cells"][1 + i]``.
    """
    doc = doc_with(bench_id, wall_s, **kwargs)
    doc["cells"] += [expected_cell(e) for e in SMOKE_EXPECTATIONS]
    return doc


class TestDeltas:
    def test_flat_history(self):
        deltas = compute_deltas(doc_with(1, 0.1), doc_with(2, 0.3))
        (delta,) = deltas
        assert delta["status"] == "common"
        assert delta["changes"] == []  # wall-clock is not work

    def test_new_and_dropped_cells(self):
        prev = make_doc(bench_id=1, cells=[make_cell(route="serial")])
        curr = make_doc(bench_id=2, cells=[make_cell(route="thread")])
        statuses = {
            (d["route"], d["status"]) for d in compute_deltas(prev, curr)
        }
        assert statuses == {("serial", "dropped"), ("thread", "new")}

    def test_three_file_trajectory(self, tmp_path):
        for bench_id, wall, rmse in ((1, 0.10, 0.02), (2, 0.09, 0.02),
                                     (3, 0.11, 0.03)):
            write_bench(
                doc_with(bench_id, wall, rmse=rmse),
                tmp_path / bench_filename(bench_id),
            )
        history = load_history(tmp_path)
        assert [doc["bench_id"] for doc in history] == [1, 2, 3]
        same = compute_deltas(history[0], history[1])[0]
        moved = compute_deltas(history[1], history[2])[0]
        assert same["changes"] == []
        assert moved["changes"] == [("metrics.rmse", 0.02, 0.03)]
        table = trajectory_markdown(history, "ms_per_frame")
        assert "PR 1" in table and "PR 3" in table


class TestGate:
    def test_flat_passes(self):
        assert check_regressions(doc_with(1, 0.1), doc_with(2, 0.1)) == []

    def test_improvement_passes(self):
        assert check_regressions(doc_with(1, 0.1), doc_with(2, 0.05)) == []

    def test_slip_inside_threshold_passes(self):
        assert check_regressions(doc_with(1, 0.1), doc_with(2, 0.105)) == []

    def test_rmse_regression_fails(self):
        problems = check_regressions(
            doc_with(1, 0.1, rmse=0.02), doc_with(2, 0.1, rmse=0.03)
        )
        assert problems and "metrics.rmse 0.02 -> 0.03" in problems[0]

    def test_dropped_tier1_cell_fails(self):
        prev = make_doc(bench_id=1, cells=[make_cell(route="serial")])
        curr = make_doc(bench_id=2, cells=[make_cell(route="thread")])
        problems = check_regressions(prev, curr)
        assert any("dropped" in p for p in problems)

    def test_tier2_cells_are_not_gated(self):
        """A tier-2 cell may be dropped or slow down; its deterministic
        fields are gated like every common cell's (TestWorkGate)."""
        tier2 = make_cell(route="process")
        tier2["tier"] = 2
        prev = make_doc(bench_id=1, cells=[make_cell(), tier2])
        curr = make_doc(bench_id=2, cells=[make_cell(wall_s=1.0)])
        assert check_regressions(prev, curr) == []


COUNTERS = {"operator.applies": 634.0, "solver.fista.iterations.total": 281.0}


def _problem(prev, curr):
    (problem,) = check_regressions(prev, curr)
    return problem


class TestWorkGate:
    """Every deterministic field of a common cell must reproduce."""

    def _docs(self, **changes):
        prev = doc_with(1, 0.1, counters=COUNTERS)
        curr = doc_with(2, 0.3, counters=COUNTERS)
        prev["host"]["numpy"] = "2.4.6"
        curr["host"]["numpy"] = "2.5.0"
        return prev, curr

    def test_identical_work_passes(self):
        assert check_regressions(*self._docs()) == []

    def test_changed_counter_fails(self):
        prev, curr = self._docs()
        curr["cells"][0]["counters"]["operator.applies"] = 640.0
        problem = _problem(prev, curr)
        assert problem.startswith("thermal-32x32-s50-f00 x serial: ")
        assert "counters.operator.applies 634 -> 640" in problem
        assert "PR 1 numpy 2.4.6" in problem
        assert "PR 2 numpy 2.5.0" in problem

    def test_counter_that_appears_or_disappears_fails(self):
        prev, curr = self._docs()
        curr["cells"][0]["counters"]["solver.fista.nonconverged"] = 1.0
        assert "nonconverged absent -> 1" in _problem(prev, curr)
        assert "nonconverged 1 -> absent" in _problem(curr, prev)

    def test_changed_status_fails(self):
        prev, curr = self._docs()
        prev["cells"][0]["extras"] = {"statuses": ["ok", "ok", "degraded"]}
        curr["cells"][0]["extras"] = {"statuses": ["ok", "degraded", "ok"]}
        problem = _problem(prev, curr)
        assert "extras.statuses" in problem and "order differs" in problem
        curr["cells"][0]["extras"] = {"statuses": ["ok", "ok", "fallback"]}
        assert "ok x2 degraded x1 -> ok x2 fallback x1" in _problem(prev, curr)

    def test_rmse_moved_past_the_float_tolerance_fails(self):
        prev, curr = self._docs()
        curr["cells"][0]["metrics"]["rmse"] = 0.02 * (1 + 1e-6)
        assert "metrics.rmse 0.02 -> 0.02000002" in _problem(prev, curr)

    def test_nan_counter_reproduces_only_as_nan(self):
        # A NaN-poisoned solve makes its residual total NaN in every run.
        prev, curr = self._docs()
        for doc in (prev, curr):
            doc["cells"][0]["counters"]["solver.fista.residual.total"] = (
                float("nan")
            )
        assert check_regressions(prev, curr) == []
        curr["cells"][0]["counters"]["solver.fista.residual.total"] = 0.5
        assert "residual.total nan -> 0.5" in _problem(prev, curr)

    def test_rmse_moved_within_the_float_tolerance_passes(self):
        prev, curr = self._docs()
        curr["cells"][0]["metrics"]["rmse"] = 0.02 * (1 + 1e-12)
        assert check_regressions(prev, curr) == []


class TestReport:
    def test_report_renders_deltas_and_trajectory(self, tmp_path):
        for bench_id, wall in ((1, 0.10), (2, 0.09)):
            write_bench(
                doc_with(bench_id, wall), tmp_path / bench_filename(bench_id)
            )
        text = render_markdown(load_history(tmp_path))
        assert "## Runs" in text
        assert "Work deltas (PR 1 -> PR 2)" in text
        assert "reproduced its work" in text
        assert "ms per frame" in text

    def test_report_flags_regressions(self):
        text = render_markdown(
            [doc_with(1, 0.1), doc_with(2, 0.1, rmse=0.03)]
        )
        assert "**CHANGED:**" in text
        assert "metrics.rmse 0.02 -> 0.03" in text

    def test_work_delta_table_renders(self):
        prev = doc_with(1, 0.1, counters=COUNTERS)
        curr = doc_with(2, 0.1, counters=dict(
            COUNTERS, **{"operator.applies": 500.0,
                         "engine.cache.misses": 1.0}
        ))
        curr["cells"].append(make_cell(route="adaptive"))
        curr["cells"][1]["extras"] = {"statuses": ["ok", "degraded"]}
        text = render_markdown([prev, curr])
        table = text.split("## Work deltas (PR 1 -> PR 2)")[1]
        assert (
            "| cell | tier | iterations | applies | cache misses "
            "| statuses | changed fields |"
        ) in table
        assert (
            "| `thermal-32x32-s50-f00` x `serial` | 1 | 281 "
            "| 634 -> 500 | -- -> 1 | -- | 2 |"
        ) in table
        assert "| `thermal-32x32-s50-f00` x `adaptive` | 1 |" in table
        assert "*new* |" in table

    def test_empty_history(self):
        assert "No `BENCH_*.json`" in render_markdown([])
        assert "no trajectory entries" in trajectory_markdown([])


class TestExpectations:
    def test_met_expectations_pass(self):
        assert SMOKE_EXPECTATIONS
        assert check_expectations(smoke_doc_with(1, 0.1)) == []

    def test_every_expectation_names_a_runnable_cell(self):
        for suite in suite_names():
            cells = {(w.name, r) for w, r in suite_cells(suite)}
            for expectation in suite_expectations(suite):
                key = (expectation.workload, expectation.route)
                assert key in cells, f"{suite}: {key} is not a suite cell"
                workload = get_workload(expectation.workload)
                assert get_route(expectation.route).supports(workload)
                assert expectation.comparison in (">=", "<=", "==")
                assert expectation.reason

    @pytest.mark.parametrize(
        "index", range(len(SMOKE_EXPECTATIONS)),
        ids=[e.metric for e in SMOKE_EXPECTATIONS],
    )
    def test_missed_bound_fails_the_gate(self, tmp_path, capsys, index):
        expectation = SMOKE_EXPECTATIONS[index]
        doc = smoke_doc_with(1, 0.1)
        missed = expected_cell(expectation, passing=False)
        doc["cells"][1 + index] = missed
        write_bench(doc, tmp_path / bench_filename(1))
        assert main(["--trend", "--gate", "--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        value = cell_metric(missed, expectation.metric)
        (line,) = [l for l in err.splitlines() if "EXPECTATION" in l]
        assert f"{expectation.workload} x {expectation.route}" in line
        assert expectation.metric in line
        assert f"{expectation.comparison} {expectation.bound:g}" in line
        assert f"{value:g}" in line

    def test_missing_expected_cell_fails_the_gate(self, tmp_path, capsys):
        expectation = SMOKE_EXPECTATIONS[0]
        doc = smoke_doc_with(1, 0.1)
        del doc["cells"][1]
        write_bench(doc, tmp_path / bench_filename(1))
        assert main(["--trend", "--gate", "--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "missing" in err and expectation.route in err

    def test_tiny_document_is_not_judged_by_smoke_bounds(
        self, tmp_path, capsys
    ):
        doc = make_doc(bench_id=1, suite="tiny")
        assert suite_expectations("tiny") == ()
        assert check_expectations(doc) == []
        write_bench(doc, tmp_path / bench_filename(1))
        assert main(["--trend", "--gate", "--root", str(tmp_path)]) == 0

    def test_report_lists_expectations(self):
        doc = smoke_doc_with(1, 0.1)
        doc["cells"][-1] = expected_cell(SMOKE_EXPECTATIONS[-1], passing=False)
        text = render_markdown([doc])
        assert "## Expectations (PR 1, smoke suite)" in text
        assert text.count("| yes |") == len(SMOKE_EXPECTATIONS) - 1
        assert "**NO**" in text


class TestCliExitCodes:
    def _write(self, tmp_path, bench_id, wall):
        write_bench(
            smoke_doc_with(bench_id, wall),
            tmp_path / bench_filename(bench_id),
        )

    def test_gate_flat_exits_zero(self, tmp_path, capsys):
        self._write(tmp_path, 1, 0.1)
        self._write(tmp_path, 2, 0.1)
        assert main(["--trend", "--gate", "--root", str(tmp_path)]) == 0

    def test_gate_improvement_exits_zero(self, tmp_path, capsys):
        self._write(tmp_path, 1, 0.1)
        self._write(tmp_path, 2, 0.08)
        assert main(["--trend", "--gate", "--root", str(tmp_path)]) == 0

    def test_gate_regression_exits_nonzero(self, tmp_path, capsys):
        self._write(tmp_path, 1, 0.1)
        doc = smoke_doc_with(2, 0.1)
        doc["cells"][0]["metrics"]["rmse"] = 0.021
        write_bench(doc, tmp_path / bench_filename(2))
        assert main(["--trend", "--gate", "--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "gate: CHANGED: thermal-32x32-s50-f00 x serial" in err

    def test_gate_single_entry_exits_zero(self, tmp_path, capsys):
        self._write(tmp_path, 1, 0.1)
        assert main(["--trend", "--gate", "--root", str(tmp_path)]) == 0

    def test_trend_without_gate_never_fails(self, tmp_path, capsys):
        self._write(tmp_path, 1, 0.1)
        self._write(tmp_path, 2, 0.5)
        assert main(["--trend", "--root", str(tmp_path)]) == 0

    def test_validate_good_and_bad(self, tmp_path, capsys):
        self._write(tmp_path, 1, 0.1)
        good = tmp_path / bench_filename(1)
        assert main(["--validate", str(good)]) == 0
        bad = tmp_path / "broken.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["--validate", str(bad)]) == 1
        assert main(["--validate", str(tmp_path / "missing.json")]) == 1

    def test_corrupt_history_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "BENCH_1.json").write_text('{"schema": "nope"}')
        assert main(["--trend", "--root", str(tmp_path)]) == 1

    @pytest.mark.parametrize("content", ['{"schema": "nope"}', "not json {"])
    def test_trajectory_corrupt_history_exits_nonzero(
        self, tmp_path, capsys, content
    ):
        self._write(tmp_path, 1, 0.1)
        (tmp_path / "BENCH_2.json").write_text(content)
        assert main(["--trajectory", "--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("corrupt trajectory: ")
        assert "BENCH_2.json" in captured.err
        assert captured.out == ""

    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "batch_shared" in out
