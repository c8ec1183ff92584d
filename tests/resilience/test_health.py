"""Unit tests for reconstruction health validation and FrameGuard."""

import numpy as np
import pytest

from repro.core.solvers import SolverResult
from repro.resilience import (
    FrameGuard,
    residual_sane,
    validate_reconstruction,
)
from repro.resilience.health import FILL_VALUE


def _result(residual=0.01, diverged=False, coefficients=None):
    info = {"diverged": True} if diverged else {}
    return SolverResult(
        coefficients=coefficients
        if coefficients is not None
        else np.zeros(16),
        iterations=10,
        converged=True,
        residual=residual,
        solver="fista",
        info=info,
    )


class TestValidateReconstruction:
    def test_healthy_frame_passes(self):
        report = validate_reconstruction(np.full((4, 4), 0.5))
        assert report.ok and report.failed == ()

    def test_nan_fails_finite(self):
        frame = np.full((4, 4), 0.5)
        frame[1, 2] = np.nan
        report = validate_reconstruction(frame)
        assert not report.ok
        assert "finite" in report.failed
        assert report.detail["finite"]["bad_pixels"] == 1

    def test_inf_fails_finite(self):
        frame = np.full((4, 4), 0.5)
        frame[0, 0] = np.inf
        assert "finite" in validate_reconstruction(frame).failed

    def test_shape_mismatch(self):
        report = validate_reconstruction(
            np.zeros((4, 4)), expected_shape=(8, 8)
        )
        assert "shape" in report.failed

    def test_range_violation(self):
        report = validate_reconstruction(
            np.full((4, 4), 7.0), value_range=(-0.5, 1.5)
        )
        assert "range" in report.failed
        assert report.detail["range"]["observed"] == (7.0, 7.0)

    def test_range_band_inclusive(self):
        frame = np.full((4, 4), 1.5)
        assert validate_reconstruction(frame, value_range=(-0.5, 1.5)).ok

    def test_residual_check_requires_both_inputs(self):
        # a huge residual is invisible without the measurements
        report = validate_reconstruction(
            np.full((4, 4), 0.5), solver_result=_result(residual=1e9)
        )
        assert report.ok

    def test_residual_failure(self):
        report = validate_reconstruction(
            np.full((4, 4), 0.5),
            solver_result=_result(residual=1e9),
            measurements=np.ones(10),
        )
        assert "residual" in report.failed

    def test_diverged_flag_fails_even_with_small_residual(self):
        report = validate_reconstruction(
            np.full((4, 4), 0.5),
            solver_result=_result(residual=0.001, diverged=True),
            measurements=np.ones(10),
        )
        assert "residual" in report.failed
        assert report.detail["residual"]["diverged"] is True


class TestResidualSane:
    def test_small_residual_ok(self):
        assert residual_sane(_result(residual=0.1), np.ones(10))

    def test_nan_residual_fails(self):
        assert not residual_sane(_result(residual=float("nan")), np.ones(10))

    def test_inf_residual_fails(self):
        assert not residual_sane(_result(residual=float("inf")), np.ones(10))

    def test_relative_to_measurement_norm(self):
        b = 100.0 * np.ones(10)
        assert residual_sane(_result(residual=50.0), b, factor=2.0)
        assert not residual_sane(_result(residual=1000.0), b, factor=2.0)

    def test_zero_measurements_zero_residual(self):
        assert residual_sane(_result(residual=0.0), np.zeros(10))


class TestFrameGuard:
    def test_fill_frame_before_any_success(self):
        guard = FrameGuard()
        out = guard.fallback((3, 3))
        assert out.shape == (3, 3)
        assert np.all(out == FILL_VALUE)
        assert not guard.has_frame

    def test_holds_last_good_frame(self):
        guard = FrameGuard()
        frame = np.arange(9.0).reshape(3, 3)
        guard.update(frame)
        assert guard.has_frame
        out = guard.fallback((3, 3))
        assert np.array_equal(out, frame)

    def test_fallback_returns_copy(self):
        guard = FrameGuard()
        guard.update(np.zeros((2, 2)))
        out = guard.fallback((2, 2))
        out[0, 0] = 99.0
        assert guard.fallback((2, 2))[0, 0] == 0.0

    def test_update_is_defensive_copy(self):
        guard = FrameGuard()
        frame = np.zeros((2, 2))
        guard.update(frame)
        frame[0, 0] = 99.0
        assert guard.fallback((2, 2))[0, 0] == 0.0

    def test_shape_mismatch_serves_fill(self):
        guard = FrameGuard()
        guard.update(np.ones((2, 2)))  # distinct from the fill value
        out = guard.fallback((4, 4))
        assert out.shape == (4, 4)
        assert np.all(out == FILL_VALUE)
