"""Chaos integration: the ISSUE's headline acceptance scenario.

Under a 20 % combined fault rate across the full taxonomy, the
resilient runtime must deliver a valid frame for *every* input with
zero unhandled exceptions, keep median RMSE within 2x of the fault-free
baseline, and reproduce exactly under a fixed seed.
"""

import numpy as np

from repro import instrument
from repro.core.engine import DecodeContext
from repro.core.metrics import rmse
from repro.resilience import (
    ResiliencePolicy,
    ResilientDecoder,
    chaos,
    default_taxonomy,
)

FAULT_RATE = 0.2
SAMPLING_FRACTION = 0.55
NUM_FRAMES = 8
SEED = 0
PLAN = DecodeContext(shape=(12, 12), sampling_fraction=SAMPLING_FRACTION)


def _frames(num=NUM_FRAMES, shape=(12, 12), seed=SEED):
    rng = np.random.default_rng(seed)
    r, c = np.mgrid[0 : shape[0], 0 : shape[1]]
    frames = []
    for k in range(num):
        phase = rng.uniform(0, np.pi)
        frames.append(
            0.5
            + 0.35 * np.sin(r / 3.0 + phase) * np.cos(c / 4.0 - phase)
        )
    return frames


def _run_chaos_decode(seed=SEED):
    """Decode all frames under the full taxonomy; returns outcomes."""
    decoder = ResilientDecoder(policy=ResiliencePolicy())
    outcomes = []
    with chaos(*default_taxonomy(FAULT_RATE, seed=seed)) as injectors:
        for index, frame in enumerate(_frames()):
            rng = np.random.default_rng([seed, index])
            outcomes.append(
                decoder.decode(frame, PLAN, rng)
            )
    return outcomes, injectors


class TestChaosIntegration:
    def test_every_frame_delivered_and_valid(self):
        outcomes, _ = _run_chaos_decode()
        assert len(outcomes) == NUM_FRAMES
        for outcome, frame in zip(outcomes, _frames()):
            assert outcome.frame is not None
            assert outcome.frame.shape == frame.shape
            assert np.all(np.isfinite(outcome.frame))
            assert outcome.status in {"ok", "degraded", "fallback"}

    def test_no_unhandled_exceptions(self):
        # the decode loop above must not raise; additionally assert the
        # injectors genuinely fired, so the run exercised real faults.
        outcomes, injectors = _run_chaos_decode()
        assert sum(i.trips for i in injectors) > 0
        assert all(o.delivered for o in outcomes)

    def test_median_rmse_within_2x_of_fault_free(self):
        frames = _frames()

        def median_rmse(outcomes):
            errors = [
                rmse(frame, outcome.frame)
                for frame, outcome in zip(frames, outcomes)
                # fallback frames are availability wins, not accuracy
                # claims; the RMSE bound applies to decoded frames
                if outcome.status != "fallback"
            ]
            return float(np.median(errors))

        baseline_decoder = ResilientDecoder()
        baseline = [
            baseline_decoder.decode(
                frame, PLAN, np.random.default_rng([SEED, i])
            )
            for i, frame in enumerate(frames)
        ]
        chaotic, _ = _run_chaos_decode()
        assert median_rmse(chaotic) <= 2.0 * median_rmse(baseline)

    def test_deterministic_under_fixed_seed(self):
        first, first_inj = _run_chaos_decode(seed=123)
        second, second_inj = _run_chaos_decode(seed=123)
        assert [i.trips for i in first_inj] == [i.trips for i in second_inj]
        for a, b in zip(first, second):
            assert a.status == b.status
            assert a.solver == b.solver
            assert len(a.attempts) == len(b.attempts)
            assert np.array_equal(a.frame, b.frame)
            assert a.faults_seen == b.faults_seen

    def test_resilience_events_visible_in_instrument_report(self):
        with instrument.profiled() as session:
            outcomes, _ = _run_chaos_decode()
        report = session.report()
        counters = report["metrics"]["counters"]
        assert counters.get("resilience.decodes") == NUM_FRAMES
        # every decode lands in exactly one status bucket
        assert (
            counters.get("resilience.decodes_ok", 0)
            + counters.get("resilience.decodes_degraded", 0)
            + counters.get("resilience.decodes_fallback", 0)
            == NUM_FRAMES
        )
        assert counters.get("resilience.attempts", 0) >= NUM_FRAMES
        # chaos trips and any retry/fallback machinery are all reported
        assert any(key.startswith("chaos.") for key in counters)
        degraded = [o for o in outcomes if o.status != "ok"]
        if degraded:
            assert counters["resilience.attempts"] > NUM_FRAMES
