"""Unit tests for the fault-injection framework."""

import numpy as np
import pytest

from repro import instrument
from repro.core import sample_and_reconstruct, solve
from repro.core.dct import Dct2Basis
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix
from repro.core.solvers import solve_hooks
from repro.resilience import (
    BudgetExhaustionInjector,
    InjectedFault,
    MeasurementDropoutInjector,
    NanPoisonInjector,
    SolverDivergenceInjector,
    SolverExceptionInjector,
    chaos,
    default_taxonomy,
)


def _operator(n_side=8, fraction=0.6, seed=0):
    rng = np.random.default_rng(seed)
    n = n_side * n_side
    phi = RowSamplingMatrix.random(n, int(fraction * n), rng)
    return CompositeOperator(phi, Dct2Basis((n_side, n_side)))


def _smooth_frame(shape=(8, 8)):
    r, c = np.mgrid[0 : shape[0], 0 : shape[1]]
    return 0.5 + 0.4 * np.sin(r / 4.0) * np.cos(c / 5.0)


class TestSolverExceptionInjector:
    def test_raises_at_rate_one(self):
        frame = _smooth_frame()
        with chaos(SolverExceptionInjector(rate=1.0, seed=0)) as (inj,):
            with pytest.raises(InjectedFault):
                sample_and_reconstruct(frame, 0.5, np.random.default_rng(0))
        assert inj.trips == 1

    def test_never_fires_at_rate_zero(self):
        frame = _smooth_frame()
        with chaos(SolverExceptionInjector(rate=0.0, seed=0)) as (inj,):
            sample_and_reconstruct(frame, 0.5, np.random.default_rng(0))
        assert inj.trips == 0

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            SolverExceptionInjector(rate=1.5)


class TestSolverDivergenceInjector:
    def test_poisons_result(self):
        op = _operator()
        b = np.full(op.shape[0], 0.1)
        with chaos(SolverDivergenceInjector(rate=1.0, seed=0)):
            result = solve("fista", op, b)
        assert not result.converged
        assert not np.isfinite(result.residual)
        assert not np.all(np.isfinite(result.coefficients))
        assert result.info["diverged"] and result.info["injected"]


class TestMeasurementDropoutInjector:
    def test_zeroes_expected_count(self):
        op = _operator()
        b = np.ones(op.shape[0])
        captured = {}

        class Capture:
            def before_solve(self, solver, operator, vec):
                captured["b"] = vec
                return vec

        injector = MeasurementDropoutInjector(
            rate=1.0, seed=0, dropout_fraction=0.25
        )
        with chaos(injector, Capture()):
            solve("fista", op, b)
        dropped = int((captured["b"] == 0.0).sum())
        assert dropped == round(0.25 * b.size)

    def test_original_vector_untouched(self):
        op = _operator()
        b = np.ones(op.shape[0])
        with chaos(MeasurementDropoutInjector(rate=1.0, seed=0)):
            solve("fista", op, b)
        assert np.all(b == 1.0)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            MeasurementDropoutInjector(dropout_fraction=0.0)


class TestNanPoisonInjector:
    def test_poisons_measurements(self):
        op = _operator()
        b = np.ones(op.shape[0])
        injector = NanPoisonInjector(rate=1.0, seed=0, poison_fraction=0.1)
        with chaos(injector):
            result = solve("fista", op, b)
        # the divergence guard must catch the poisoned solve
        assert not result.converged
        assert injector.trips == 1

    def test_inf_variant(self):
        captured = {}

        class Capture:
            def before_solve(self, solver, operator, vec):
                captured["b"] = vec
                return vec

        op = _operator()
        injector = NanPoisonInjector(rate=1.0, seed=0, use_inf=True)
        with chaos(injector, Capture()):
            solve("fista", op, np.ones(op.shape[0]))
        assert np.isposinf(captured["b"]).any()

    def test_poisoned_solve_stays_out_of_the_residual_histogram(self):
        op = _operator()
        b = np.ones(op.shape[0])
        with instrument.profiled() as session:
            clean = solve("fista", op, b)
            with chaos(NanPoisonInjector(rate=1.0, seed=0)):
                solve("fista", op, b)
            solve("fista", op, b)
            metrics = session.report()["metrics"]
        residual = metrics["histograms"]["solver.fista.residual"]
        assert residual["count"] == 2
        assert residual["total"] == pytest.approx(2 * clean.residual)
        assert metrics["counters"]["solver.fista.calls"] == 3
        assert metrics["counters"]["solver.fista.diverged"] == 1


class TestBudgetExhaustionInjector:
    def test_marks_result_nonconverged(self):
        op = _operator()
        b = np.full(op.shape[0], 0.1)
        with chaos(BudgetExhaustionInjector(rate=1.0, seed=0)):
            result = solve("fista", op, b)
        assert not result.converged
        assert result.info["deadline"] and result.info["injected"]

    def test_latency_validated(self):
        with pytest.raises(ValueError):
            BudgetExhaustionInjector(latency_s=-1.0)

    def test_reset_clears_pending_trip(self):
        op = _operator()
        b = np.full(op.shape[0], 0.1)
        injector = BudgetExhaustionInjector(rate=1.0, seed=0)
        injector.before_solve("fista", op, b)  # arms a trip
        injector.reset()
        assert injector.trips == 0
        # The armed trip must not leak into the next campaign.
        result = injector.after_solve(
            "fista", solve("fista", op, b)
        )
        assert result.converged


class TestChaosContext:
    def test_hooks_removed_on_exit(self):
        baseline = len(solve_hooks())
        with chaos(SolverExceptionInjector(rate=0.0)):
            assert len(solve_hooks()) == baseline + 1
        assert len(solve_hooks()) == baseline

    def test_hooks_removed_on_error(self):
        baseline = len(solve_hooks())
        with pytest.raises(RuntimeError):
            with chaos(SolverExceptionInjector(rate=0.0)):
                raise RuntimeError("boom")
        assert len(solve_hooks()) == baseline

    def test_reset_restores_rng(self):
        injector = SolverExceptionInjector(rate=0.5, seed=42)
        first = [injector._fire() for _ in range(10)]
        trips = injector.trips
        injector.reset()
        assert injector.trips == 0
        assert [injector._fire() for _ in range(10)] == first
        assert injector.trips == trips


class TestDefaultTaxonomy:
    def test_five_families(self):
        injectors = default_taxonomy(0.25, seed=3)
        assert len(injectors) == 5
        assert len({type(i) for i in injectors}) == 5
        for injector in injectors:
            assert injector.rate == pytest.approx(0.05)

    def test_reproducible(self):
        frame = _smooth_frame()

        def trips(seed):
            injectors = default_taxonomy(0.6, seed=seed)
            with chaos(*injectors):
                for k in range(5):
                    try:
                        sample_and_reconstruct(
                            frame, 0.5, np.random.default_rng(k)
                        )
                    except InjectedFault:
                        pass
            return [i.trips for i in injectors]

        assert trips(7) == trips(7)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            default_taxonomy(1.5)
