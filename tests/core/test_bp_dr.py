"""Tests for the Douglas-Rachford basis-pursuit solver."""

import numpy as np
import pytest

from repro.core.dct import Dct2Basis, idct2
from repro.core.engine import DecodeContext, DecodeEngine
from repro.core.measurement import DenseCodeMatrix
from repro.core.metrics import rmse
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix, gaussian_matrix
from repro.core.solvers import solve_basis_pursuit, solve_bp_dr
from repro.datasets import (
    TactileObjectGenerator,
    ThermalHandGenerator,
    UltrasoundGenerator,
)


def _sparse_problem(shape=(12, 12), sparsity=10, m=90, seed=0, dense=False):
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    coefficients = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    coefficients[support] = rng.normal(size=sparsity) + np.sign(
        rng.normal(size=sparsity)
    )
    image = idct2(coefficients.reshape(shape))
    if dense:
        phi = DenseCodeMatrix(gaussian_matrix(m, n, rng))
    else:
        phi = RowSamplingMatrix.random(n, m, rng)
    b = phi.apply(image.ravel())
    return CompositeOperator(phi, Dct2Basis(shape)), b, coefficients


class TestTightFramePath:
    def test_exact_recovery(self):
        operator, b, coefficients = _sparse_problem()
        result = solve_bp_dr(operator, b, tolerance=1e-9)
        assert result.info["tight_frame"]
        assert np.allclose(result.coefficients, coefficients, atol=1e-7)

    def test_solution_is_feasible(self):
        operator, b, _ = _sparse_problem(seed=1)
        result = solve_bp_dr(operator, b)
        assert result.residual < 1e-8

    def test_matches_lp_objective(self):
        operator, b, _ = _sparse_problem(seed=2)
        dr = solve_bp_dr(operator, b, tolerance=1e-9)
        lp = solve_basis_pursuit(operator, b)
        assert np.sum(np.abs(dr.coefficients)) == pytest.approx(
            np.sum(np.abs(lp.coefficients)), rel=1e-5
        )

    def test_gamma_insensitive(self):
        operator, b, coefficients = _sparse_problem(seed=3)
        for gamma in (0.01, 0.1, 1.0):
            result = solve_bp_dr(operator, b, gamma=gamma,
                                 max_iterations=3000, tolerance=1e-9)
            assert np.allclose(result.coefficients, coefficients, atol=1e-5)

    def test_default_gamma_scales_with_the_frame(self):
        operator, b, _ = _sparse_problem(seed=3)
        scale = float(np.max(np.abs(operator.rmatvec(b))))
        result = solve_bp_dr(operator, b)
        assert result.info["gamma"] == pytest.approx(1e-2 * scale)
        scaled = solve_bp_dr(operator, 10.0 * b)
        assert scaled.info["gamma"] == pytest.approx(1e-1 * scale)
        assert np.allclose(scaled.coefficients, 10.0 * result.coefficients)
        assert solve_bp_dr(operator, b, gamma=0.5).info["gamma"] == 0.5


class TestGeneralPath:
    def test_dense_matrix_recovery(self):
        operator, b, coefficients = _sparse_problem(seed=4, dense=True)
        result = solve_bp_dr(operator, b, tolerance=1e-9)
        assert not result.info["tight_frame"]
        assert np.allclose(result.coefficients, coefficients, atol=1e-6)


class TestValidation:
    def test_measurement_shape_checked(self):
        operator, b, _ = _sparse_problem()
        with pytest.raises(ValueError):
            solve_bp_dr(operator, b[:-1])

    def test_gamma_positive(self):
        operator, b, _ = _sparse_problem()
        with pytest.raises(ValueError):
            solve_bp_dr(operator, b, gamma=0.0)


class TestOnRealFrames:
    def test_thermal_reconstruction_beats_fista_default(self):
        """On noiseless compressible data, exact BP should match or
        beat the lam-regularised FISTA default."""
        from repro.core.solvers import solve_fista
        from repro.datasets import ThermalHandGenerator

        frame = ThermalHandGenerator(seed=5).frame()
        rng = np.random.default_rng(5)
        phi = RowSamplingMatrix.random(frame.size, frame.size // 2, rng)
        operator = CompositeOperator(phi, Dct2Basis(frame.shape))
        b = phi.apply(frame.ravel())
        dr = solve_bp_dr(operator, b, max_iterations=400)
        fista = solve_fista(operator, b)
        error_dr = rmse(
            frame, operator.synthesize(dr.coefficients).reshape(frame.shape)
        )
        error_fista = rmse(
            frame, operator.synthesize(fista.coefficients).reshape(frame.shape)
        )
        assert error_dr < error_fista * 1.1


class TestBpDrDefaultStoppingRule:
    """The default tolerance stops before the cap, at the tight RMSE."""

    FRAMES = {
        "thermal": lambda: ThermalHandGenerator(shape=(32, 32), seed=7),
        "tactile": lambda: TactileObjectGenerator(
            class_index=3, shape=(32, 32), seed=7
        ),
        "ultrasound": lambda: UltrasoundGenerator(shape=(32, 32), seed=7),
    }

    @pytest.mark.parametrize("dataset", ["thermal", "tactile", "ultrasound"])
    def test_default_converges_under_the_cap(self, dataset):
        frame = self.FRAMES[dataset]().frames(1)[0]
        engine = DecodeEngine()
        solves = {}
        for label, options in (
            ("default", {}),
            # A tolerance=1e-9 solve never stops on these frames, and
            # its RMSE still moves by 1.9 % between 1000 and 10000
            # iterations on the tactile frame, so it runs to 10000.
            ("tight", {"tolerance": 1e-9, "max_iterations": 10000}),
        ):
            plan = DecodeContext(
                (32, 32), 0.5, solver="bp_dr", solver_options=options
            )
            decoded = engine.decode(
                frame, plan, np.random.default_rng(11), full_output=True
            )
            solves[label] = (
                rmse(frame, decoded.reconstruction),
                decoded.solver_result,
            )
        error, result = solves["default"]
        tight_error, _ = solves["tight"]
        assert result.converged
        assert result.iterations < 1000
        # Accuracy is not given up: at most 1 % above the tight solve
        # (stopping earlier may also land slightly closer to the frame).
        assert error <= 1.01 * tight_error

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 7])
    def test_near_empty_tactile_frames_converge(self, seed):
        # With a fixed gamma = 0.1 these took 682-1000 iterations, two
        # of them stopped by the cap; the frame-scaled step takes ~200.
        frame = TactileObjectGenerator(
            class_index=3, shape=(32, 32), seed=seed
        ).frames(1)[0]
        decoded = DecodeEngine().decode(
            frame,
            DecodeContext((32, 32), 0.5, solver="bp_dr"),
            np.random.default_rng(11),
            full_output=True,
        )
        assert decoded.solver_result.converged
        assert decoded.solver_result.iterations < 1000
