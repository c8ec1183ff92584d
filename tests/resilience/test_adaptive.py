"""Unit tests for the adaptive self-tuning policy controller."""

import math

import numpy as np
import pytest

from repro.core.engine import DecodeContext
from repro.core.strategies import OracleExclusionStrategy, ResamplingStrategy
from repro.resilience import (
    AdaptivePolicy,
    CircuitBreaker,
    ResiliencePolicy,
    ResilientDecoder,
    ResilientStrategy,
)
from repro.resilience.adaptive import (
    CALM_FRAMES,
    EXTRA_SOLVERS,
    HIGH_FAULT_RATIO,
    MAX_EXCLUDED_FRACTION,
    PROBE_ITERATIONS,
    WINDOW,
)
from repro.resilience.policies import FAILURE_THRESHOLD


def _smooth_frame(shape=(8, 8)):
    r, c = np.mgrid[0 : shape[0], 0 : shape[1]]
    return 0.2 + 0.6 * np.exp(-((r - 4) ** 2 + (c - 4) ** 2) / 8.0)


_PLAN = DecodeContext(shape=(8, 8), sampling_fraction=0.5)


class TestValidation:
    def test_defaults_valid(self):
        AdaptivePolicy()


class TestEscalation:
    def test_starts_at_base_policy(self):
        base = ResiliencePolicy()
        adaptive = AdaptivePolicy(base=base)
        assert adaptive.level == 0
        assert adaptive.policy is base

    def test_degraded_escalates_to_level_one(self):
        adaptive = AdaptivePolicy()
        adaptive.observe_status("degraded")
        assert adaptive.level == 1
        policy = adaptive.policy
        base = adaptive.base
        assert len(policy.fallback_chain) > len(base.fallback_chain)
        assert policy.retry.max_rounds == base.retry.max_rounds + 1
        for extra in EXTRA_SOLVERS:
            assert extra in policy.fallback_chain

    def test_fallback_escalates_to_level_two(self):
        adaptive = AdaptivePolicy()
        adaptive.observe_status("fallback")
        assert adaptive.level == 2
        assert (
            adaptive.policy.retry.max_rounds
            == adaptive.base.retry.max_rounds + 2
        )

    def test_high_fault_ratio_escalates_to_level_two(self):
        adaptive = AdaptivePolicy()
        adaptive.observe_status("ok")
        faulty = math.ceil(HIGH_FAULT_RATIO * WINDOW)
        for _ in range(faulty - 1):
            adaptive.observe_status("degraded")
            assert adaptive.level == 1
        adaptive.observe_status("degraded")  # faulty of the window >= ratio
        assert adaptive.level == 2

    def test_base_policy_untouched(self):
        base = ResiliencePolicy()
        chain_before = base.fallback_chain
        adaptive = AdaptivePolicy(base=base)
        adaptive.observe_status("fallback")
        assert base.fallback_chain == chain_before
        assert base.retry.max_rounds == 2

    def test_escalated_policy_shares_breaker(self):
        adaptive = AdaptivePolicy()
        adaptive.observe_status("degraded")
        assert adaptive.policy.breaker is adaptive.base.breaker


class TestDeEscalation:
    def test_calm_streak_steps_down(self):
        adaptive = AdaptivePolicy()
        adaptive.observe_status("fallback")
        assert adaptive.level == 2
        for _ in range(CALM_FRAMES):
            adaptive.observe_status("ok")
        assert adaptive.level == 1
        for _ in range(CALM_FRAMES):
            adaptive.observe_status("ok")
        assert adaptive.level == 0
        assert adaptive.policy.fallback_chain == (
            adaptive.base.fallback_chain
        )

    def test_fault_resets_calm_streak(self):
        adaptive = AdaptivePolicy()
        for _ in range(2):
            adaptive.observe_status("degraded")
            for _ in range(CALM_FRAMES - 1):
                adaptive.observe_status("ok")
        assert adaptive.level == 1  # never reached CALM_FRAMES oks in a row


class TestProbeBudgets:
    def test_open_breaker_caps_budget(self):
        breaker = CircuitBreaker()
        base = ResiliencePolicy(breaker=breaker)
        adaptive = AdaptivePolicy(base=base)
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure("fista")
        adaptive.observe_status("degraded")
        budget = adaptive.policy.budget_for("fista")
        assert budget.max_iterations == PROBE_ITERATIONS
        assert budget.time_limit_s is None  # stays deterministic

    def test_reclosed_breaker_restores_budget(self):
        breaker = CircuitBreaker()
        base = ResiliencePolicy(breaker=breaker)
        adaptive = AdaptivePolicy(base=base)
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure("fista")
        adaptive.observe_status("degraded")
        breaker.record_success("fista")
        adaptive.observe_status("ok")
        assert adaptive.policy.budget_for("fista").max_iterations is None


class TestExclusionMask:
    def test_mask_accumulates(self):
        adaptive = AdaptivePolicy()
        mask_a = np.zeros((8, 8), dtype=bool)
        mask_a[2, :] = True
        mask_b = np.zeros((8, 8), dtype=bool)
        mask_b[5, :] = True
        adaptive.observe_readout(mask_a)
        adaptive.observe_readout(mask_b)
        merged = adaptive.exclusion_mask((8, 8))
        assert merged[2, :].all() and merged[5, :].all()
        assert merged.sum() == 16

    def test_empty_detection_ignored(self):
        adaptive = AdaptivePolicy()
        adaptive.observe_readout(np.zeros((8, 8), dtype=bool))
        assert adaptive.exclusion_mask((8, 8)) is None

    def test_cap_rejects_starving_mask(self):
        adaptive = AdaptivePolicy()
        small = np.zeros((8, 8), dtype=bool)
        small[0, :] = True
        assert small.mean() <= MAX_EXCLUDED_FRACTION
        adaptive.observe_readout(small)
        huge = np.ones((8, 8), dtype=bool)
        adaptive.observe_readout(huge)
        mask = adaptive.exclusion_mask((8, 8))
        assert mask.sum() == 8  # the capped detection was dropped
        actions = [e.action for e in adaptive.pop_events()]
        assert "mask_capped" in actions

    def test_shape_change_restarts_mask(self):
        adaptive = AdaptivePolicy()
        old = np.zeros((8, 8), dtype=bool)
        old[1, :] = True
        adaptive.observe_readout(old)
        new = np.zeros((4, 4), dtype=bool)
        new[0, :] = True
        adaptive.observe_readout(new)
        assert adaptive.exclusion_mask((8, 8)) is None
        assert adaptive.exclusion_mask((4, 4)).sum() == 4

    def test_returned_mask_is_a_copy(self):
        adaptive = AdaptivePolicy()
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :] = True
        adaptive.observe_readout(mask)
        adaptive.exclusion_mask((8, 8))[:] = True
        assert adaptive.exclusion_mask((8, 8)).sum() == 8


class TestEventsAndReset:
    def test_events_recorded_and_drained(self):
        adaptive = AdaptivePolicy()
        adaptive.observe_status("fallback")
        events = adaptive.pop_events()
        assert any(e.action == "escalate" for e in events)
        assert events[0].to_dict()["action"] == events[0].action
        assert adaptive.pop_events() == ()

    def test_reset_restores_initial_state(self):
        adaptive = AdaptivePolicy()
        adaptive.observe_status("fallback")
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :] = True
        adaptive.observe_readout(mask)
        adaptive.reset()
        assert adaptive.level == 0
        assert adaptive.policy is adaptive.base
        assert adaptive.exclusion_mask((8, 8)) is None
        assert adaptive.pop_events() == ()


class TestDecoderIntegration:
    def test_outcome_carries_snapshot_and_events(self):
        decoder = ResilientDecoder(adaptive=AdaptivePolicy())
        outcome = decoder.decode(
            _smooth_frame(), _PLAN, np.random.default_rng(0)
        )
        assert outcome.policy_snapshot is not None
        assert "fallback_chain" in outcome.policy_snapshot
        payload = outcome.to_dict()
        assert payload["policy_snapshot"] == outcome.policy_snapshot
        assert isinstance(payload["adaptation_events"], list)

    def test_snapshot_present_without_adaptive(self):
        decoder = ResilientDecoder()
        outcome = decoder.decode(
            _smooth_frame(), _PLAN, np.random.default_rng(0)
        )
        assert outcome.policy_snapshot["fallback_chain"] == list(
            decoder.policy.fallback_chain
        )
        assert outcome.adaptation_events == ()

    def test_policy_beside_controller_rejected(self):
        with pytest.raises(ValueError, match=r"AdaptivePolicy\(base=P\)"):
            ResilientDecoder(
                policy=ResiliencePolicy(fallback_chain=("omp",)),
                adaptive=AdaptivePolicy(),
            )

    def test_controller_owns_the_policy_from_construction(self):
        base = ResiliencePolicy(fallback_chain=("omp",))
        decoder = ResilientDecoder(adaptive=AdaptivePolicy(base=base))
        assert decoder.policy is base

    def test_decoder_tracks_adaptive_policy(self):
        adaptive = AdaptivePolicy()
        decoder = ResilientDecoder(adaptive=adaptive)
        adaptive.observe_status("degraded")  # escalate out of band
        decoder.decode(_smooth_frame(), _PLAN, np.random.default_rng(0))
        assert decoder.policy.retry.max_rounds >= 3

    def test_adaptive_mask_merged_into_exclusions(self):
        adaptive = AdaptivePolicy()
        mask = np.zeros((8, 8), dtype=bool)
        mask[3, :] = True
        adaptive.observe_readout(mask)
        decoder = ResilientDecoder(adaptive=adaptive)
        outcome = decoder.decode(
            _smooth_frame(), _PLAN, np.random.default_rng(0)
        )
        assert outcome.frame.shape == (8, 8)

    def test_merged_mask_that_leaves_nothing_raises_before_any_draw(self):
        adaptive = AdaptivePolicy()
        stuck = np.zeros((8, 8), dtype=bool)
        stuck[3, :] = True
        adaptive.observe_readout(stuck)
        plan = _PLAN.with_exclusions(~stuck)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="leaves no pixels"):
            ResilientDecoder(adaptive=adaptive).decode(
                _smooth_frame(), plan, rng
            )
        assert rng.bit_generator.state == state


class TestStrategyMaskPlumbing:
    def test_exclude_mask_reaches_inner_strategy(self):
        captured = {}

        class Probe:
            solver = "fista"
            solver_options = {}

            def reconstruct(self, corrupted, rng, error_mask=None, **_):
                captured["mask"] = error_mask
                return np.asarray(corrupted, dtype=float)

        mask = np.zeros((8, 8), dtype=bool)
        mask[1, :] = True
        wrapped = ResilientStrategy(inner=Probe(), exclude_mask=mask)
        wrapped.reconstruct(_smooth_frame(), np.random.default_rng(0))
        assert captured["mask"] is not None
        assert captured["mask"][1, :].all()

    def test_exclude_mask_merges_with_caller_mask(self):
        captured = {}

        class Probe:
            solver = "fista"
            solver_options = {}

            def reconstruct(self, corrupted, rng, error_mask=None, **_):
                captured["mask"] = error_mask
                return np.asarray(corrupted, dtype=float)

        sticky = np.zeros((8, 8), dtype=bool)
        sticky[1, :] = True
        caller = np.zeros((8, 8), dtype=bool)
        caller[:, 2] = True
        wrapped = ResilientStrategy(inner=Probe(), exclude_mask=sticky)
        wrapped.reconstruct(
            _smooth_frame(), np.random.default_rng(0), error_mask=caller
        )
        assert captured["mask"][1, :].all() and captured["mask"][:, 2].all()

    def test_resampling_strategy_accepts_error_mask(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :] = True
        strategy = ResamplingStrategy(rounds=2)
        recon = strategy.reconstruct(
            _smooth_frame(), np.random.default_rng(0), error_mask=mask
        )
        assert recon.shape == (8, 8)

    def test_wrapped_oracle_strategy_end_to_end(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :] = True
        wrapped = ResilientStrategy(
            inner=OracleExclusionStrategy(), exclude_mask=mask
        )
        recon = wrapped.reconstruct(_smooth_frame(), np.random.default_rng(0))
        assert recon.shape == (8, 8)
        assert wrapped.last_outcome.status in ("ok", "degraded")


class TestWithExclusions:
    def test_none_returns_same_plan(self):
        plan = DecodeContext(shape=(8, 8), sampling_fraction=0.5)
        assert plan.with_exclusions(None) is plan

    def test_all_false_returns_same_plan(self):
        plan = DecodeContext(shape=(8, 8), sampling_fraction=0.5)
        assert plan.with_exclusions(np.zeros((8, 8), dtype=bool)) is plan

    def test_merges_with_existing_mask(self):
        existing = np.zeros((8, 8), dtype=bool)
        existing[0, :] = True
        plan = DecodeContext(
            shape=(8, 8), sampling_fraction=0.5, exclude_mask=existing
        )
        extra = np.zeros((8, 8), dtype=bool)
        extra[:, 0] = True
        merged = plan.with_exclusions(extra)
        assert merged.exclude_mask[0, :].all()
        assert merged.exclude_mask[:, 0].all()

    def test_shape_mismatch_rejected(self):
        plan = DecodeContext(shape=(8, 8), sampling_fraction=0.5)
        with pytest.raises(ValueError):
            plan.with_exclusions(np.zeros((4, 4), dtype=bool))
