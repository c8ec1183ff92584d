"""Hot-path hooks: a real decode produces the documented spans/metrics."""

import numpy as np

from repro import instrument
from repro.core import OracleExclusionStrategy, evaluate_frame
from repro.core.dct import Dct2Basis
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix
from repro.core.solvers import solve
from repro.instrument import iter_span_dicts


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
