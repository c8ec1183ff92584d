"""Hot-path hooks: a real decode produces the documented spans/metrics."""

import json

import numpy as np

from repro import instrument
from repro.core import OracleExclusionStrategy, evaluate_frame
from repro.core.dct import Dct2Basis
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix
from repro.core.solvers import solve
from repro.instrument import iter_span_dicts, validate_report, write_report


def test_solver_span_per_solve_with_trajectory():
    basis = Dct2Basis((8, 8))
    phi = RowSamplingMatrix.random(m=48, n=64, rng=np.random.default_rng(0))
    operator = CompositeOperator(phi, basis)
    b = phi.apply(np.random.default_rng(1).normal(size=64))
    with instrument.profiled() as session:
        result = solve("fista", operator, b, max_iterations=40)
    report = session.report()
    spans = [s for s in iter_span_dicts(report) if s["name"] == "solver.fista"]
    assert len(spans) == 1
    attrs = spans[0]["attributes"]
    assert attrs["solver"] == "fista"
    assert attrs["iterations"] == result.iterations
    assert attrs["converged"] == result.converged
    assert attrs["residual"] == result.residual
    assert attrs["restarts"] == result.info["restarts"]
    assert len(spans[0]["trajectory"]) == result.iterations
    counters = report["metrics"]["counters"]
    assert counters["decoder.requests"] == 1
    assert counters["solver.fista.calls"] == 1
    hist = report["metrics"]["histograms"]["solver.fista.iterations"]
    assert hist["count"] == 1 and hist["max"] == result.iterations


def test_pipeline_decode_tree_and_counters():
    frame = np.random.default_rng(2).random((8, 8))
    strategy = OracleExclusionStrategy(sampling_fraction=0.5)
    with instrument.profiled() as session:
        evaluate_frame(
            frame,
            error_rate=0.1,
            strategy=strategy,
            rng=np.random.default_rng(3),
        )
    report = session.report()
    names = [s["name"] for s in iter_span_dicts(report)]
    assert "pipeline.evaluate_frame" in names
    assert "decode.sample_and_reconstruct" in names
    assert any(n.startswith("solver.") for n in names)
    counters = report["metrics"]["counters"]
    assert counters["pipeline.frames"] == 1
    assert counters["decode.calls"] >= 1
    assert counters["decode.measurements"] >= 1
    # nesting: the solver span sits under the decode span
    (root,) = report["spans"]
    assert root["name"] == "pipeline.evaluate_frame"
    decode = next(
        s
        for s in iter_span_dicts(report)
        if s["name"] == "decode.sample_and_reconstruct"
    )
    assert any(c["name"].startswith("solver.") for c in decode["children"])


def test_hooks_cost_nothing_when_disabled():
    frame = np.random.default_rng(4).random((8, 8))
    strategy = OracleExclusionStrategy(sampling_fraction=0.5)
    assert not instrument.enabled()
    evaluate_frame(
        frame,
        error_rate=0.1,
        strategy=strategy,
        rng=np.random.default_rng(5),
    )
    assert instrument.get_tracer().roots == []
    assert instrument.get_registry().snapshot()["counters"] == {}


def test_resilience_sweep_reports_chaos_and_resilience_counters():
    from repro.experiments.resilience_sweep import run_resilience_sweep

    with instrument.profiled() as session:
        run_resilience_sweep(num_frames=3, seed=0)
    counters = session.report()["metrics"]["counters"]
    assert counters.get("resilience.decodes", 0) > 0, counters
    assert any(name.startswith("chaos.") for name in counters), counters


def test_profile_writes_valid_report(tmp_path):
    from repro.experiments.fig2_sparsity import run_fig2

    with instrument.profiled() as session:
        run_fig2(num_samples=3, seed=1)
    report = session.report({"experiment": "fig2_sparsity", "seed": 1})
    names = {s["name"] for s in iter_span_dicts(report)}
    assert "experiment.fig2_sparsity" in names
    assert "experiment.fig2_modality" in names
    path = tmp_path / "fig2.profile.json"
    write_report(report, str(path))
    written = json.loads(path.read_text())
    assert written == report
    assert validate_report(written) == []
    assert written["meta"] == {"experiment": "fig2_sparsity", "seed": 1}
