"""Tests for the robust sampling strategies (Sec. 4.2 / 4.3)."""

import numpy as np
import pytest

from repro.core.errors import inject_sparse_errors
from repro.core.metrics import rmse
from repro.core.strategies import (
    DecodeResult,
    NaiveStrategy,
    OracleExclusionStrategy,
    ResamplingStrategy,
    RpcaExclusionStrategy,
    sample_and_reconstruct,
    validate_decode_inputs,
)


def _smooth_frame(shape=(16, 16)):
    r, c = np.mgrid[0:shape[0], 0:shape[1]]
    return 0.5 + 0.4 * np.sin(r / 4.0) * np.cos(c / 5.0)


class TestSampleAndReconstruct:
    def test_reconstructs_smooth_frame(self):
        frame = _smooth_frame()
        rng = np.random.default_rng(0)
        recon = sample_and_reconstruct(frame, 0.6, rng)
        assert rmse(frame, recon) < 0.02

    def test_exclusion_avoids_bad_pixels(self):
        frame = _smooth_frame()
        rng = np.random.default_rng(1)
        corrupted, mask = inject_sparse_errors(frame, 0.15, rng)
        with_exclusion = sample_and_reconstruct(
            corrupted, 0.5, np.random.default_rng(2), exclude_mask=mask
        )
        without = sample_and_reconstruct(
            corrupted, 0.5, np.random.default_rng(2)
        )
        assert rmse(frame, with_exclusion) < rmse(frame, without)

    def test_noise_degrades_gracefully(self):
        frame = _smooth_frame()
        clean = sample_and_reconstruct(frame, 0.6, np.random.default_rng(3))
        noisy = sample_and_reconstruct(
            frame, 0.6, np.random.default_rng(3), noise_sigma=0.05
        )
        assert rmse(frame, noisy) > rmse(frame, clean)
        assert rmse(frame, noisy) < 0.2

    def test_validation(self):
        frame = _smooth_frame()
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sample_and_reconstruct(frame, 0.0, rng)
        with pytest.raises(ValueError):
            sample_and_reconstruct(frame, 1.5, rng)
        with pytest.raises(ValueError):
            sample_and_reconstruct(np.zeros(16), 0.5, rng)
        with pytest.raises(ValueError):
            sample_and_reconstruct(
                frame, 0.5, rng, exclude_mask=np.ones((16, 16), dtype=bool)
            )

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            sample_and_reconstruct(
                _smooth_frame(),
                0.5,
                np.random.default_rng(5),
                exclude_mask=np.zeros((4, 4), dtype=bool),
            )

    def test_nonfinite_frame_rejected(self):
        frame = _smooth_frame()
        frame[3, 3] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf"):
            sample_and_reconstruct(frame, 0.5, np.random.default_rng(13))
        frame[3, 3] = np.inf
        with pytest.raises(ValueError, match="NaN/Inf"):
            sample_and_reconstruct(frame, 0.5, np.random.default_rng(13))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            sample_and_reconstruct(
                _smooth_frame(), 0.5, np.random.default_rng(14),
                noise_sigma=-0.1,
            )

    def test_full_output_returns_decode_result(self):
        frame = _smooth_frame()
        result = sample_and_reconstruct(
            frame, 0.6, np.random.default_rng(15), full_output=True
        )
        assert isinstance(result, DecodeResult)
        assert result.reconstruction.shape == frame.shape
        assert result.solver_result.solver == "fista"
        assert result.measurements.shape == (round(0.6 * frame.size),)
        assert np.isfinite(result.solver_result.residual)


class TestValidateDecodeInputs:
    def test_accepts_and_coerces(self):
        out = validate_decode_inputs(np.zeros((4, 4), dtype=int), 0.5)
        assert out.dtype == float

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            validate_decode_inputs(np.zeros(16), 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_decode_inputs(np.zeros((0, 4)), 0.5)

    def test_rejects_bad_fraction(self):
        for fraction in (0.0, -0.2, 1.01):
            with pytest.raises(ValueError):
                validate_decode_inputs(np.zeros((4, 4)), fraction)

    def test_fraction_one_allowed(self):
        validate_decode_inputs(np.zeros((4, 4)), 1.0)


class TestOracleStrategy:
    def test_requires_mask(self):
        strategy = OracleExclusionStrategy()
        with pytest.raises(ValueError):
            strategy.reconstruct(_smooth_frame(), np.random.default_rng(0))

    def test_beats_naive_under_errors(self):
        frame = _smooth_frame()
        rng = np.random.default_rng(6)
        corrupted, mask = inject_sparse_errors(frame, 0.12, rng)
        oracle = OracleExclusionStrategy(sampling_fraction=0.5)
        naive = NaiveStrategy(sampling_fraction=0.5)
        r_oracle = oracle.reconstruct(
            corrupted, np.random.default_rng(7), error_mask=mask
        )
        r_naive = naive.reconstruct(corrupted, np.random.default_rng(7))
        assert rmse(frame, r_oracle) < rmse(frame, r_naive)


class TestResamplingStrategy:
    def test_median_beats_single_round(self):
        frame = _smooth_frame()
        rng = np.random.default_rng(8)
        corrupted, _ = inject_sparse_errors(frame, 0.08, rng)
        single = NaiveStrategy(sampling_fraction=0.5)
        multi = ResamplingStrategy(sampling_fraction=0.5, rounds=8)
        errors_single = [
            rmse(frame, single.reconstruct(corrupted, np.random.default_rng(s)))
            for s in range(4)
        ]
        error_multi = rmse(
            frame, multi.reconstruct(corrupted, np.random.default_rng(0))
        )
        assert error_multi < np.mean(errors_single)

    def test_mean_aggregate_supported(self):
        frame = _smooth_frame((8, 8))
        strategy = ResamplingStrategy(sampling_fraction=0.6, rounds=3, aggregate="mean")
        out = strategy.reconstruct(frame, np.random.default_rng(9))
        assert out.shape == frame.shape

    def test_validation(self):
        with pytest.raises(ValueError):
            ResamplingStrategy(rounds=0)
        with pytest.raises(ValueError):
            ResamplingStrategy(aggregate="mode")

    def test_rounds_equal_serial_decode_loop(self):
        """The rounds are ``rounds`` serial decodes from one ``rng``."""
        from repro.core.engine import DecodeContext, get_engine

        frame = _smooth_frame()
        corrupted, _ = inject_sparse_errors(
            frame, 0.08, np.random.default_rng(8)
        )
        rng = np.random.default_rng(0)
        out = ResamplingStrategy(sampling_fraction=0.5, rounds=4).reconstruct(
            corrupted, rng
        )
        plan = DecodeContext(shape=frame.shape, sampling_fraction=0.5)
        ref_rng = np.random.default_rng(0)
        rounds = [get_engine().decode(corrupted, plan, ref_rng) for _ in range(4)]
        np.testing.assert_array_equal(out, np.median(np.stack(rounds), axis=0))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestRpcaStrategy:
    def test_uses_stack_context(self):
        frame = _smooth_frame()
        rng = np.random.default_rng(10)
        stack = np.stack([frame + 0.01 * k for k in range(6)])
        corrupted = stack.copy()
        for k in range(6):
            corrupted[k], _ = inject_sparse_errors(stack[k], 0.1, rng)
        strategy = RpcaExclusionStrategy(sampling_fraction=0.5)
        recon = strategy.reconstruct(
            corrupted[2], np.random.default_rng(11),
            frame_stack=corrupted, frame_index=2,
        )
        naive = NaiveStrategy(sampling_fraction=0.5)
        recon_naive = naive.reconstruct(corrupted[2], np.random.default_rng(11))
        assert rmse(stack[2], recon) < rmse(stack[2], recon_naive)

    def test_single_frame_fallback(self):
        frame = _smooth_frame((8, 8))
        strategy = RpcaExclusionStrategy(sampling_fraction=0.7)
        out = strategy.reconstruct(frame, np.random.default_rng(12))
        assert out.shape == frame.shape

    def test_detect_returns_mask_per_frame(self):
        stack = np.stack([_smooth_frame((8, 8))] * 4)
        strategy = RpcaExclusionStrategy()
        masks = strategy.detect(stack)
        assert masks.shape == stack.shape
        assert masks.dtype == bool
