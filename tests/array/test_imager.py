"""Tests for the streaming imager."""

import numpy as np
import pytest

from repro.array import ActiveMatrix, FlexibleEncoder, ReadoutChain, StreamingImager
from repro.core.errors import SparseErrorModel
from repro.core.metrics import rmse


def _frames(count=5, shape=(16, 16)):
    r, c = np.mgrid[0:shape[0], 0:shape[1]]
    base = 0.5 + 0.35 * np.sin(r / 4.0) * np.cos(c / 5.0)
    return np.stack(
        [np.clip(base + 0.02 * np.sin(0.7 * k), 0, 1) for k in range(count)]
    )


def _encoder(shape=(16, 16)):
    return FlexibleEncoder(
        ActiveMatrix(shape),
        readout=ReadoutChain(noise_sigma_v=0.0, sh_droop=0.0, adc_bits=12),
    )


class TestCapture:
    def test_clean_stream_reconstructs(self):
        imager = StreamingImager(_encoder(), sampling_fraction=0.6, seed=0)
        records = imager.stream(_frames(3))
        assert len(records) == 3
        assert [r.index for r in records] == [0, 1, 2]
        for record in records:
            assert rmse(record.clean, record.reconstructed) < 0.03

    def test_transient_errors_tolerated(self):
        imager = StreamingImager(
            _encoder(),
            sampling_fraction=0.55,
            error_model=SparseErrorModel(transient_rate=0.05, seed=1),
            rpca_window=4,
            seed=0,
        )
        records = imager.stream(_frames(6))
        # later frames benefit from the RPCA history
        late = records[-1]
        assert rmse(late.clean, late.reconstructed) < rmse(
            late.clean, late.corrupted
        )

    def test_rpca_history_excludes_outliers(self):
        imager = StreamingImager(
            _encoder(),
            sampling_fraction=0.5,
            error_model=SparseErrorModel(transient_rate=0.08, seed=2),
            rpca_window=5,
            seed=1,
        )
        records = imager.stream(_frames(6))
        assert records[-1].excluded_pixels > 0
        assert records[0].excluded_pixels == 0  # no history yet

    def test_fresh_phi_each_frame(self):
        imager = StreamingImager(_encoder(), sampling_fraction=0.5, seed=3)
        frames = _frames(2)
        record_a = imager.capture(frames[0])
        record_b = imager.capture(frames[1])
        # different random masks -> reconstructions differ even for
        # identical inputs at equal quality
        assert not np.array_equal(record_a.reconstructed, record_b.reconstructed)

    def test_guard_holds_last_streamed_frame(self):
        imager = StreamingImager(_encoder(), sampling_fraction=0.6, seed=0)
        records = imager.stream(_frames(4))
        np.testing.assert_array_equal(
            imager._guard.fallback(records[-1].clean.shape),
            records[-1].reconstructed,
        )

    def test_shape_checked(self):
        imager = StreamingImager(_encoder((8, 8)))
        with pytest.raises(ValueError):
            imager.capture(np.zeros((9, 9)))
        with pytest.raises(ValueError):
            imager.stream(np.zeros((8, 8)))

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingImager(_encoder(), sampling_fraction=0.0)
        with pytest.raises(ValueError):
            StreamingImager(_encoder(), rpca_window=-1)

    def test_policy_beside_controller_rejected(self):
        from repro.resilience import AdaptivePolicy, ResiliencePolicy

        # The controller supplies every frame's policy, so a policy
        # passed beside it would never be used.
        with pytest.raises(ValueError, match=r"AdaptivePolicy\(base=P\)"):
            StreamingImager(
                _encoder(),
                policy=ResiliencePolicy(fallback_chain=("omp",)),
                adaptive=AdaptivePolicy(),
            )


class TestShiftRegisterClockSearch:
    def test_max_clock_above_paper_point(self):
        from repro.circuits.shift_register import ShiftRegister

        register = ShiftRegister(stages=4)
        ceiling = register.max_functional_clock(high_hz=2.0e5, resolution=0.3)
        assert ceiling > 10_000.0  # works at the paper's 10 kHz with margin
        assert ceiling < 2.0e5

    def test_validation(self):
        from repro.circuits.shift_register import ShiftRegister

        with pytest.raises(ValueError):
            ShiftRegister(stages=2).max_functional_clock(low_hz=0.0)


class TestResilientCapture:
    def test_records_carry_status_and_solver(self):
        from repro.resilience import ResiliencePolicy

        imager = StreamingImager(
            _encoder(), sampling_fraction=0.6,
            policy=ResiliencePolicy(), seed=0,
        )
        records = imager.stream(_frames(3))
        for record in records:
            assert record.status == "ok"
            assert record.solver == "fista"
            assert rmse(record.clean, record.reconstructed) < 0.03

    def test_without_policy_records_default_status(self):
        imager = StreamingImager(_encoder(), sampling_fraction=0.6, seed=0)
        record = imager.capture(_frames(1)[0])
        assert record.status == "ok"
        assert record.solver == "fista"

    def test_solver_fault_degrades_frame_not_stream(self):
        from repro.core.solvers import register_solve_hook, unregister_solve_hook
        from repro.resilience import ResiliencePolicy

        class KillFista:
            def before_solve(self, solver, operator, b):
                if solver == "fista":
                    raise RuntimeError("primary down")
                return b

        imager = StreamingImager(
            _encoder(), sampling_fraction=0.6,
            policy=ResiliencePolicy(), seed=0,
        )
        frames = _frames(4)
        clean_record = imager.capture(frames[0])
        # Kill fista for the next frame: the chain must move on.
        hook = KillFista()
        register_solve_hook(hook)
        try:
            faulted_record = imager.capture(frames[1])
        finally:
            unregister_solve_hook(hook)
        after_record = imager.capture(frames[2])
        assert clean_record.status == "ok"
        assert faulted_record.status == "degraded"
        assert faulted_record.solver == "bp_dr"
        assert np.all(np.isfinite(faulted_record.reconstructed))
        assert after_record.status == "ok"  # stream recovers immediately
        assert after_record.solver == "fista"

    def test_total_failure_serves_held_frame(self):
        from repro.resilience import ResiliencePolicy
        from repro.resilience.chaos import SolverExceptionInjector, chaos

        imager = StreamingImager(
            _encoder(), sampling_fraction=0.6,
            policy=ResiliencePolicy(), seed=0,
        )
        frames = _frames(2)
        good = imager.capture(frames[0])
        with chaos(SolverExceptionInjector(rate=1.0, seed=0)):
            held = imager.capture(frames[1])
        assert held.status == "fallback"
        assert held.solver is None
        # Zero-order hold: the delivered frame is the last good one.
        np.testing.assert_array_equal(held.reconstructed, good.reconstructed)

    def test_stream_uses_shared_engine_cache(self):
        from repro.core.engine import DecodeEngine, use_engine

        imager = StreamingImager(_encoder(), sampling_fraction=0.6, seed=0)
        with use_engine(DecodeEngine()) as engine:
            imager.stream(_frames(5))
            assert engine.cache.misses == 1
            assert engine.cache.hits == 4
