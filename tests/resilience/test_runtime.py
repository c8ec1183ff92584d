"""Unit tests for the supervised decode runtime."""

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
        # 128 dense measurements of the 127 pixels the mask leaves:
        # A A^T is singular, so bp_dr raises before iterating and the
        # chain delivers from the next solver.
        shape = (16, 16)
        mask = np.zeros(256, dtype=bool)
        mask[np.random.default_rng(0).choice(256, 129, replace=False)] = True
        plan = _plan(
            0.5,
            shape=shape,
            measurement="dense_codes",
            exclude_mask=mask.reshape(shape),
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


class TestBreakerIntegration:
    def test_breaker_skips_open_solver(self):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_rounds=1),
            breaker=CircuitBreaker(failure_threshold=1, cooldown=100),
        )
        decoder = ResilientDecoder(policy=policy)
        frame = _smooth_frame()

        class KillFista:
            def before_solve(self, solver, operator, b):
                if solver == "fista":
                    raise RuntimeError("primary down")
                return b

        from repro.core.solvers import register_solve_hook, unregister_solve_hook

        hook = KillFista()
        register_solve_hook(hook)
        try:
            first = decoder.decode(
                frame, _plan(0.6), np.random.default_rng(7)
            )
            second = decoder.decode(
                frame, _plan(0.6), np.random.default_rng(8)
            )
        finally:
            unregister_solve_hook(hook)
        assert first.attempts[0].status == "error"
        # the breaker opened on fista, so the second decode skips it
        assert second.attempts[0].status == "breaker_open"
        assert second.solver == "bp_dr"


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
