"""Unit tests for the supervised decode runtime."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import DecodeContext, OracleExclusionStrategy
from repro.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientDecoder,
    ResilientStrategy,
    RetryPolicy,
    SolverBudget,
    SolverExceptionInjector,
    chaos,
    default_taxonomy,
)
from repro.resilience.policies import COOLDOWN, FAILURE_THRESHOLD


def _smooth_frame(shape=(10, 10)):
    r, c = np.mgrid[0 : shape[0], 0 : shape[1]]
    return 0.5 + 0.4 * np.sin(r / 4.0) * np.cos(c / 5.0)


def _plan(sampling_fraction, shape=(10, 10), **fields):
    return DecodeContext(
        shape=shape, sampling_fraction=sampling_fraction, **fields
    )


class TestCleanPath:
    def test_first_solver_first_try(self):
        decoder = ResilientDecoder()
        outcome = decoder.decode(
            _smooth_frame(), _plan(0.6), np.random.default_rng(0)
        )
        assert outcome.status == "ok"
        assert outcome.solver == "fista"
        assert len(outcome.attempts) == 1
        assert outcome.attempts[0].status == "ok"
        assert outcome.faults_seen == ()
        assert outcome.health is not None and outcome.health.ok
        assert outcome.delivered

    def test_frame_quality_matches_plain_decode(self):
        from repro.core import sample_and_reconstruct

        frame = _smooth_frame()
        plain = sample_and_reconstruct(frame, 0.6, np.random.default_rng(1))
        supervised = ResilientDecoder().decode(
            frame, _plan(0.6), np.random.default_rng(1)
        )
        assert np.allclose(plain, supervised.frame)

    def test_to_dict_schema(self):
        outcome = ResilientDecoder().decode(
            _smooth_frame(), _plan(0.6), np.random.default_rng(2)
        )
        as_dict = outcome.to_dict()
        assert as_dict["status"] == "ok"
        assert as_dict["attempts"][0]["solver"] == "fista"
        assert as_dict["health"]["ok"] is True


class TestFallbackChain:
    def test_falls_back_when_primary_raises(self):
        # rate=1.0 kills every fista call; the chain must move on.
        policy = ResiliencePolicy(breaker=None)

        class KillFista:
            def before_solve(self, solver, operator, b):
                if solver == "fista":
                    raise RuntimeError("primary down")
                return b

        decoder = ResilientDecoder(policy=policy)
        from repro.core.solvers import register_solve_hook, unregister_solve_hook

        hook = KillFista()
        register_solve_hook(hook)
        try:
            outcome = decoder.decode(
                _smooth_frame(), _plan(0.6), np.random.default_rng(3)
            )
        finally:
            unregister_solve_hook(hook)
        assert outcome.status == "degraded"
        assert outcome.solver == "bp_dr"
        assert outcome.attempts[0].status == "error"
        assert "RuntimeError" in outcome.faults_seen

    def test_rank_deficient_code_moves_past_bp_dr(self):
        # Block sampling spreads 128 rows over four 8x8 tiles, 32 each;
        # with 40 of the first tile's pixels excluded its 32 rows span
        # only 24 live columns, so A A^T is singular, bp_dr raises
        # before iterating and the chain delivers from the next solver.
        shape = (16, 16)
        mask = np.zeros(shape, dtype=bool)
        tile = np.zeros(64, dtype=bool)
        tile[np.random.default_rng(0).choice(64, 40, replace=False)] = True
        mask[:8, :8] = tile.reshape(8, 8)
        plan = _plan(
            0.5,
            shape=shape,
            measurement="block_sampling",
            exclude_mask=mask,
        )
        policy = ResiliencePolicy(fallback_chain=("bp_dr", "fista"))
        outcome = ResilientDecoder(policy=policy).decode(
            _smooth_frame(shape), plan, np.random.default_rng(5)
        )
        first, second = outcome.attempts
        assert (first.solver, first.status) == ("bp_dr", "error")
        assert "rank-deficient" in first.error
        assert "ValueError" in outcome.faults_seen
        assert (second.solver, second.status) == ("fista", "ok")
        assert outcome.solver == "fista"
        assert outcome.status == "degraded"

    def test_all_solvers_dead_yields_fallback_frame(self):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_rounds=2), breaker=None
        )
        decoder = ResilientDecoder(policy=policy)
        frame = _smooth_frame()
        with chaos(SolverExceptionInjector(rate=1.0, seed=0)):
            outcome = decoder.decode(
                frame, _plan(0.6), np.random.default_rng(4)
            )
        assert outcome.status == "fallback"
        assert outcome.solver is None
        assert outcome.frame.shape == frame.shape
        assert np.all(np.isfinite(outcome.frame))
        # 2 rounds x 3 solvers, every one an error
        assert len(outcome.attempts) == 6
        assert all(a.status == "error" for a in outcome.attempts)

    def test_fallback_serves_last_good_frame(self):
        decoder = ResilientDecoder(policy=ResiliencePolicy(breaker=None))
        frame = _smooth_frame()
        good = decoder.decode(frame, _plan(0.6), np.random.default_rng(5))
        assert good.status == "ok"
        with chaos(SolverExceptionInjector(rate=1.0, seed=0)):
            held = decoder.decode(
                frame, _plan(0.6), np.random.default_rng(6)
            )
        assert held.status == "fallback"
        assert np.array_equal(held.frame, good.frame)


@contextmanager
def _fista_down():
    """Every ``fista`` solve raises while the block runs."""
    from repro.core.solvers import register_solve_hook, unregister_solve_hook

    class KillFista:
        def before_solve(self, solver, operator, b):
            if solver == "fista":
                raise RuntimeError("primary down")
            return b

    hook = KillFista()
    register_solve_hook(hook)
    try:
        yield
    finally:
        unregister_solve_hook(hook)


class TestBreakerIntegration:
    def test_breaker_skips_open_solver(self):
        policy = ResiliencePolicy(retry=RetryPolicy(max_rounds=1))
        decoder = ResilientDecoder(policy=policy)
        frame = _smooth_frame()
        with _fista_down():
            failing = [
                decoder.decode(
                    frame, _plan(0.6), np.random.default_rng(7 + i)
                )
                for i in range(FAILURE_THRESHOLD)
            ]
            skipping = decoder.decode(
                frame, _plan(0.6), np.random.default_rng(7 + FAILURE_THRESHOLD)
            )
        assert all(o.attempts[0].status == "error" for o in failing)
        # the breaker opened on fista, so the next decode skips it
        assert skipping.attempts[0].status == "breaker_open"
        assert skipping.solver == "bp_dr"

    def test_breaker_cycle_at_its_constants(self):
        # FAILURE_THRESHOLD failed fista attempts open its breaker, the
        # next COOLDOWN decodes skip it, and then one probe runs: a
        # failed probe re-opens it for a full cooldown, a healthy probe
        # closes it.
        from repro import instrument

        decoder = ResilientDecoder(
            policy=ResiliencePolicy(retry=RetryPolicy(max_rounds=1))
        )
        rng = np.random.default_rng(7)

        def first_attempts(count):
            return [
                decoder.decode(_smooth_frame(), _plan(0.6), rng).attempts[0]
                for _ in range(count)
            ]

        with instrument.profiled() as session:
            with _fista_down():
                down = first_attempts(FAILURE_THRESHOLD + 2 * COOLDOWN + 1)
            healed = first_attempts(2)
        assert [a.status for a in down + healed] == (
            ["error"] * FAILURE_THRESHOLD
            + ["breaker_open"] * COOLDOWN
            + ["error"]  # the first probe fails: re-opened
            + ["breaker_open"] * COOLDOWN
            + ["ok", "ok"]  # the second probe closes it
        )
        assert {a.solver for a in down + healed} == {"fista"}
        counters = session.report()["metrics"]["counters"]
        assert counters["resilience.breaker.fista.opened"] == 1
        assert counters["resilience.breaker.fista.half_open"] == 2
        assert (
            counters["resilience.breaker.fista.short_circuits"] == 2 * COOLDOWN
        )


class TestBudgets:
    def test_budget_options_forwarded(self):
        policy = ResiliencePolicy(
            budget=SolverBudget(max_iterations=7), breaker=None
        )
        decoder = ResilientDecoder(policy=policy)
        outcome = decoder.decode(
            _smooth_frame(), _plan(0.6), np.random.default_rng(9)
        )
        delivered = next(a for a in outcome.attempts if a.status == "ok")
        assert delivered.iterations <= 7


class TestFallbackOptions:
    """The caller's solver options reach only the solvers that take them.

    The caller's own solver gets them whole; every other solver of the
    chain gets only the budget keywords among them that it accepts.
    """

    @staticmethod
    def _thermal_frame():
        from repro.datasets import ThermalHandGenerator

        return ThermalHandGenerator(shape=(8, 8), seed=3).frame()

    def test_fista_lam_does_not_reach_bp_dr(self):
        decoder = ResilientDecoder(policy=ResiliencePolicy(breaker=None))
        plan = _plan(0.6, shape=(8, 8), solver_options={"lam": 1e-3})
        with _fista_down():
            outcome = decoder.decode(
                self._thermal_frame(), plan, np.random.default_rng(21)
            )
        assert outcome.status == "degraded"
        assert outcome.solver == "bp_dr"
        assert [a.status for a in outcome.attempts] == ["error", "ok"]
        assert "TypeError" not in outcome.faults_seen

    def test_iteration_cap_does_not_reach_omp(self):
        policy = ResiliencePolicy(fallback_chain=("omp",))
        decoder = ResilientDecoder(policy=policy)
        plan = _plan(
            0.6, shape=(8, 8), solver_options={"max_iterations": 40}
        )
        outcome = decoder.decode(
            self._thermal_frame(), plan, np.random.default_rng(22)
        )
        assert outcome.solver == "omp"
        assert [a.status for a in outcome.attempts] == ["ok"]
        assert outcome.faults_seen == ()

    def test_own_solver_keeps_its_options_whole(self):
        from repro.core.engine import get_engine

        frame = self._thermal_frame()
        plan = _plan(0.6, shape=(8, 8), solver_options={"lam": 0.05})
        outcome = ResilientDecoder().decode(
            frame, plan, np.random.default_rng(23)
        )
        plain = get_engine().decode(frame, plan, np.random.default_rng(23))
        default_lam = get_engine().decode(
            frame, _plan(0.6, shape=(8, 8)), np.random.default_rng(23)
        )
        assert outcome.status == "ok"
        assert np.array_equal(outcome.frame, plain)
        assert not np.array_equal(outcome.frame, default_lam)

    def test_strategy_fallback_gets_only_budget_keywords(self):
        from repro.core import NaiveStrategy

        inner = NaiveStrategy(
            sampling_fraction=0.6,
            solver_options={"lam": 1e-3, "max_iterations": 50},
        )
        strategy = ResilientStrategy(
            inner, policy=ResiliencePolicy(breaker=None)
        )
        with _fista_down():
            strategy.reconstruct(
                self._thermal_frame(), np.random.default_rng(24)
            )
        outcome = strategy.last_outcome
        assert outcome.status == "degraded"
        assert outcome.solver == "bp_dr"
        assert "TypeError" not in outcome.faults_seen
        assert inner.solver == "fista"
        assert inner.solver_options == {"lam": 1e-3, "max_iterations": 50}


class TestInputValidation:
    def test_nan_frame_rejected_up_front(self):
        decoder = ResilientDecoder()
        with pytest.raises(ValueError):
            decoder.decode(
                np.full((4, 4), np.nan),
                _plan(0.5, (4, 4)),
                np.random.default_rng(0),
            )

    def test_bad_fraction_rejected(self):
        decoder = ResilientDecoder()
        with pytest.raises(ValueError):
            decoder.decode(
                _smooth_frame(), _plan(0.0), np.random.default_rng(0)
            )

    def test_starving_exclusion_mask_rejected(self):
        decoder = ResilientDecoder()
        frame = _smooth_frame((4, 4))
        with pytest.raises(ValueError):
            decoder.decode(
                frame,
                _plan(0.5, (4, 4), exclude_mask=np.ones((4, 4), dtype=bool)),
                np.random.default_rng(0),
            )

    def test_mask_shape_rejected(self):
        decoder = ResilientDecoder()
        with pytest.raises(ValueError):
            decoder.decode(
                _smooth_frame(),
                _plan(0.5, exclude_mask=np.zeros((2, 2), dtype=bool)),
                np.random.default_rng(0),
            )

    def test_frame_off_the_plan_shape_rejected_before_any_draw(self):
        decoder = ResilientDecoder()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="plan shape"):
            decoder.decode(_smooth_frame((8, 8)), _plan(0.5), rng)
        with pytest.raises(ValueError, match="plan shape"):
            decoder.decode_batch(
                [_smooth_frame(), _smooth_frame((8, 8))], _plan(0.5), rng
            )
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "measurement", ["row_sampling", "dense_codes", "block_sampling"]
    )
    def test_starving_mask_rejected_on_every_family(self, measurement):
        plan = _plan(
            0.5,
            exclude_mask=np.ones((10, 10), dtype=bool),
            measurement=measurement,
        )
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="leaves no pixels"):
            ResilientDecoder().decode(_smooth_frame(), plan, rng)
        with pytest.raises(ValueError, match="leaves no pixels"):
            ResilientDecoder().decode_batch([_smooth_frame()], plan, rng)
        assert rng.bit_generator.state == state

    def test_mask_on_a_mask_blind_family_rejected(self):
        from repro.core import measurement as registry
        from repro.core.measurement import (
            DenseCodesModel,
            register_measurement,
        )

        class NoMask(DenseCodesModel):
            supports_exclusions = False

        register_measurement("nomask_runtime", NoMask())
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True
        try:
            with pytest.raises(ValueError, match="does not support"):
                _plan(0.5, exclude_mask=mask, measurement="nomask_runtime")
        finally:
            del registry._MEASUREMENT_MODELS["nomask_runtime"]

    @pytest.mark.parametrize("measurement", ["dense_codes", "block_sampling"])
    def test_weights_on_a_weightless_family_rejected(self, measurement):
        with pytest.raises(ValueError, match="weights"):
            _plan(0.5, weights=np.ones(100), measurement=measurement)


class TestDecodeBatch:
    """``decode_batch`` is N serial ``decode`` calls, bit for bit."""

    FRAMES = 6

    def _frames(self):
        return [
            _smooth_frame() + 0.05 * k * np.eye(10) for k in range(self.FRAMES)
        ]

    def _outcomes(self, batch: bool, chaos_seed: int | None):
        decoder = ResilientDecoder()
        rng = np.random.default_rng(5)
        frames = self._frames()

        def run():
            if batch:
                return decoder.decode_batch(frames, _plan(0.6), rng)
            return [decoder.decode(frame, _plan(0.6), rng) for frame in frames]

        if chaos_seed is None:
            return run()
        # Fresh injectors per arm: both start from the same fault draws.
        with chaos(*default_taxonomy(0.2, seed=chaos_seed)):
            return run()

    def _assert_same(self, chaos_seed):
        batch = self._outcomes(True, chaos_seed)
        serial = self._outcomes(False, chaos_seed)
        assert len(batch) == len(serial) == self.FRAMES
        for got, want in zip(batch, serial):
            np.testing.assert_array_equal(got.frame, want.frame)
            assert got.status == want.status
            assert got.solver == want.solver

    def test_clean_batch_equals_serial_decodes(self):
        self._assert_same(None)

    @pytest.mark.parametrize("seed", range(6))
    def test_chaos_batch_equals_serial_decodes(self, seed):
        self._assert_same(seed)

    def test_bad_frame_rejected_before_any_draw(self):
        decoder = ResilientDecoder()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        frames = [_smooth_frame(), np.full((10, 10), np.nan)]
        with pytest.raises(ValueError):
            decoder.decode_batch(frames, _plan(0.6), rng)
        assert rng.bit_generator.state == state


class TestResilientStrategy:
    def test_wraps_core_strategy(self):
        strategy = ResilientStrategy(
            OracleExclusionStrategy(sampling_fraction=0.6)
        )
        frame = _smooth_frame()
        mask = np.zeros(frame.shape, dtype=bool)
        out = strategy.reconstruct(
            frame, np.random.default_rng(11), error_mask=mask
        )
        assert out.shape == frame.shape
        assert strategy.last_outcome is not None
        assert strategy.last_outcome.status == "ok"

    def test_restores_inner_solver_settings(self):
        inner = OracleExclusionStrategy(sampling_fraction=0.6, solver="fista")
        strategy = ResilientStrategy(inner)
        frame = _smooth_frame()
        strategy.reconstruct(
            frame,
            np.random.default_rng(12),
            error_mask=np.zeros(frame.shape, dtype=bool),
        )
        assert inner.solver == "fista"

    def test_chaos_still_delivers(self):
        strategy = ResilientStrategy(
            OracleExclusionStrategy(sampling_fraction=0.6),
            policy=ResiliencePolicy(breaker=None),
        )
        frame = _smooth_frame()
        with chaos(SolverExceptionInjector(rate=1.0, seed=0)):
            out = strategy.reconstruct(
                frame,
                np.random.default_rng(13),
                error_mask=np.zeros(frame.shape, dtype=bool),
            )
        assert out.shape == frame.shape
        assert strategy.last_outcome.status == "fallback"

    def test_rejects_non_strategy(self):
        with pytest.raises(TypeError):
            ResilientStrategy(object())

    def test_pipeline_attaches_outcome(self):
        from repro.core.pipeline import evaluate_frame

        strategy = ResilientStrategy(
            OracleExclusionStrategy(sampling_fraction=0.6)
        )
        outcome = evaluate_frame(
            _smooth_frame(), 0.05, strategy, np.random.default_rng(14)
        )
        assert outcome.decode_outcome is not None
        assert outcome.decode_outcome.status in {"ok", "degraded"}
