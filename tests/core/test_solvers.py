"""Tests for the CS decoders (Eq. 9 solvers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DecodeContext, DecodeEngine
from repro.core.dct import Dct2Basis, idct2
from repro.core.measurement import DenseCodeMatrix, get_measurement
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix, bernoulli_matrix
from repro.core.solvers import (
    default_lambda,
    hard_threshold,
    soft_threshold,
    solve,
    solve_basis_pursuit,
    solve_cosamp,
    solve_fista,
    solve_iht,
    solve_ista,
    solve_omp,
    solver_names,
)
from repro.core.solvers import greedy
from repro.datasets import (
    TactileObjectGenerator,
    ThermalHandGenerator,
    UltrasoundGenerator,
)


def _sparse_problem(shape=(12, 12), sparsity=12, m=90, seed=0):
    """A K-sparse-in-DCT image with enough random measurements."""
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    coefficients = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    coefficients[support] = rng.normal(size=sparsity) + np.sign(
        rng.normal(size=sparsity)
    )
    image = idct2(coefficients.reshape(shape))
    phi = RowSamplingMatrix.random(n, m, rng)
    operator = CompositeOperator(phi, Dct2Basis(shape))
    b = phi.apply(image.ravel())
    return operator, b, coefficients, image


_REAL_FRAMES = {
    "thermal": lambda: ThermalHandGenerator(shape=(32, 32), seed=7),
    "tactile": lambda: TactileObjectGenerator(
        class_index=3, shape=(32, 32), seed=7
    ),
    "ultrasound": lambda: UltrasoundGenerator(shape=(32, 32), seed=7),
}

_REAL_FRAME_CASES = [
    ("thermal", "row_sampling"),
    ("tactile", "row_sampling"),
    ("ultrasound", "row_sampling"),
    ("thermal", "dense_codes"),
]


def _real_frame_problem(dataset, measurement):
    """The engine operator and measurements of one 32x32 frame at 50 %.

    The draw is the one ``DecodeEngine.decode`` makes from
    ``default_rng(11)``.
    """
    frame = _REAL_FRAMES[dataset]().frames(1)[0]
    model = get_measurement(measurement)
    phi = model.draw(frame.shape, frame.size // 2, np.random.default_rng(11))
    operator = DecodeEngine().operator(
        phi, frame.shape, "dct2", measurement=measurement
    )
    return operator, phi.apply(frame.ravel())


class TestBasisPursuit:
    def test_exact_recovery(self):
        operator, b, coefficients, _ = _sparse_problem()
        result = solve_basis_pursuit(operator, b)
        assert result.converged
        assert np.allclose(result.coefficients, coefficients, atol=1e-6)

    def test_residual_near_zero(self):
        operator, b, _, _ = _sparse_problem(seed=1)
        result = solve_basis_pursuit(operator, b)
        assert result.residual < 1e-6

    def test_rejects_wrong_measurement_shape(self):
        operator, b, _, _ = _sparse_problem()
        with pytest.raises(ValueError):
            solve_basis_pursuit(operator, b[:-1])


class TestFista:
    def test_recovers_sparse_signal(self):
        operator, b, coefficients, _ = _sparse_problem(seed=2)
        result = solve_fista(operator, b)
        assert np.linalg.norm(result.coefficients - coefficients) < 1e-2

    @pytest.mark.parametrize("dataset, measurement", _REAL_FRAME_CASES)
    def test_restart_beats_plain_fista(self, dataset, measurement):
        """Restart reaches the BPDN optimum in fewer iterations.

        The default solve ends within 1e-4 relative objective of a
        ``tolerance=1e-9`` solve, in at most 0.8x the iterations of
        one-stage FISTA without restart at the same tolerance and the
        fixed step ``1 / ||A||_2^2`` (the norm hint, or the power
        iteration's estimate on a code that states no norm).
        """
        operator, b = _real_frame_problem(dataset, measurement)
        result = solve_fista(operator, b)
        lam = result.info["lambda"]
        sigma = operator.spectral_norm()
        step = 1.0 / (sigma * sigma)

        def objective(x):
            return 0.5 * np.sum((operator.matvec(x) - b) ** 2) + lam * np.sum(
                np.abs(x)
            )

        reference = solve_fista(
            operator, b, tolerance=1e-9, max_iterations=20000
        )
        assert result.converged and reference.converged
        optimum = objective(reference.coefficients)
        assert objective(result.coefficients) - optimum <= 1e-4 * optimum
        x = z = np.zeros(operator.n)
        t = 1.0
        for plain_iterations in range(1, 401):
            gradient = operator.rmatvec(operator.matvec(z) - b)
            x_next = soft_threshold(z - step * gradient, step * lam)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_next + ((t - 1.0) / t_next) * (x_next - x)
            change = np.linalg.norm(x_next - x)
            x, t = x_next, t_next
            if change <= 1e-4 * max(1.0, np.linalg.norm(x)):
                break
        assert result.info["restarts"] > 0
        assert result.iterations <= 0.8 * plain_iterations

    def test_large_lambda_gives_zero(self):
        operator, b, _, _ = _sparse_problem(seed=5)
        lam = 10.0 * float(np.max(np.abs(operator.rmatvec(b))))
        result = solve_fista(operator, b, lam=lam)
        assert np.allclose(result.coefficients, 0.0)


class TestFistaDefaultStoppingRule:
    """The default tolerance stops once the frame's RMSE stops moving."""

    @pytest.mark.parametrize("dataset, measurement", _REAL_FRAME_CASES)
    def test_default_keeps_rmse_in_far_fewer_iterations(
        self, dataset, measurement
    ):
        frame = _REAL_FRAMES[dataset]().frames(1)[0]
        engine = DecodeEngine()
        solves = {}
        for label, options in (("default", {}), ("tight", {"tolerance": 1e-7})):
            plan = DecodeContext(
                (32, 32), 0.5, solver_options=options, measurement=measurement
            )
            decoded = engine.decode(
                frame, plan, np.random.default_rng(11), full_output=True
            )
            rmse = float(np.sqrt(np.mean((decoded.reconstruction - frame) ** 2)))
            solves[label] = (rmse, decoded.solver_result)
        rmse, result = solves["default"]
        tight_rmse, tight = solves["tight"]
        assert result.converged and tight.converged
        # Accuracy is not given up: at most 1 % above the 1e-7 solve
        # (stopping earlier may also land slightly closer to the frame).
        assert rmse <= 1.01 * tight_rmse
        # Restart makes the 1e-7 solve cheap too (0.49-0.76x here), so
        # the iteration bound is TestFista::test_restart_beats_plain_fista.
        assert result.iterations < tight.iterations


class TestAllZeroMeasurement:
    """``b = 0``: the solution is ``x = 0``, found in the first iteration."""

    @pytest.mark.parametrize("measurement", ["row_sampling", "dense_codes"])
    @pytest.mark.parametrize("name", ["fista", "bp_dr"])
    def test_exact_zeros_in_one_iteration(self, name, measurement):
        operator, b = _real_frame_problem("thermal", measurement)
        result = solve(name, operator, np.zeros_like(b))
        assert result.converged
        assert result.iterations == 1
        assert not result.coefficients.any()
        if name == "bp_dr":
            assert result.info["gamma"] == 0.1


class TestIsta:
    def test_satisfies_bpdn_optimality(self):
        """At convergence, the BPDN subgradient conditions hold:
        |A^T(Ax-b)|_inf <= lam (+tol), with equality-signed residual
        correlation on the support."""
        operator, b, _, _ = _sparse_problem(seed=6, sparsity=8)
        lam = 1e-3 * float(np.max(np.abs(operator.rmatvec(b))))
        result = solve_ista(operator, b, lam=lam, max_iterations=6000,
                            tolerance=1e-10)
        gradient = operator.rmatvec(operator.matvec(result.coefficients) - b)
        assert np.max(np.abs(gradient)) <= lam * (1 + 1e-3)
        support = result.coefficients != 0
        assert np.allclose(
            gradient[support],
            -lam * np.sign(result.coefficients[support]),
            atol=lam * 1e-2,
        )

    def test_objective_decreases(self):
        operator, b, _, _ = _sparse_problem(seed=7)
        lam = default_lambda(operator, b)

        def objective(x):
            return 0.5 * np.sum((operator.matvec(x) - b) ** 2) + lam * np.sum(
                np.abs(x)
            )

        r5 = solve_ista(operator, b, lam=lam, max_iterations=5)
        r50 = solve_ista(operator, b, lam=lam, max_iterations=50)
        assert objective(r50.coefficients) <= objective(r5.coefficients) + 1e-12


class TestGreedy:
    def test_omp_exact_on_true_sparsity(self):
        operator, b, coefficients, _ = _sparse_problem(seed=8)
        result = solve_omp(operator, b, sparsity=12)
        assert np.allclose(result.coefficients, coefficients, atol=1e-8)

    def test_omp_support_size_bounded(self):
        operator, b, _, _ = _sparse_problem(seed=9)
        result = solve_omp(operator, b, sparsity=5)
        assert np.count_nonzero(result.coefficients) <= 5

    def test_cosamp_exact(self):
        operator, b, coefficients, _ = _sparse_problem(seed=10)
        result = solve_cosamp(operator, b, sparsity=12)
        assert np.allclose(result.coefficients, coefficients, atol=1e-6)

    def test_iht_recovers(self):
        operator, b, coefficients, _ = _sparse_problem(seed=11, sparsity=8)
        result = solve_iht(operator, b, sparsity=8, max_iterations=500)
        assert np.linalg.norm(result.coefficients - coefficients) < 1e-4

    def test_sparsity_validation(self):
        operator, b, _, _ = _sparse_problem()
        for solver in (solve_omp, solve_cosamp, solve_iht):
            with pytest.raises(ValueError):
                solver(operator, b, sparsity=0)


def _omp_reference(operator, b, sparsity, tolerance=1e-9):
    """OMP as a fresh least-squares fit per atom (the pre-QR algorithm).

    Returns ``(coefficients, support, iterations, converged)``.
    """
    sparsity = min(sparsity, operator.m, operator.n)
    support = []
    x = np.zeros(operator.n)
    residual = b.copy()
    iteration = 0
    diverged = False
    for iteration in range(1, sparsity + 1):
        if not np.all(np.isfinite(residual)):
            diverged = True
            break
        correlations = operator.rmatvec(residual)
        correlations[support] = 0.0
        support.append(int(np.argmax(np.abs(correlations))))
        columns = np.column_stack(
            [operator.matvec(np.eye(operator.n)[j]) for j in support]
        )
        fit, *_ = np.linalg.lstsq(columns, b, rcond=None)
        x = np.zeros(operator.n)
        x[support] = fit
        residual = b - columns @ fit
        if np.linalg.norm(residual) <= tolerance:
            break
    converged = not diverged and bool(
        np.linalg.norm(residual) <= max(tolerance, 1e-6 * np.linalg.norm(b))
    )
    return x, support, iteration, converged


def _thermal_problem(measurement, seed=0, shape=(16, 16)):
    """A non-sparse thermal frame seen through a row-sampling or dense code."""
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    m = n // 2
    frame = ThermalHandGenerator(shape=shape, seed=seed).frames(1)[0]
    if measurement == "row_sampling":
        phi = RowSamplingMatrix.random(n, m, rng)
        b = phi.apply(frame.ravel())
    else:
        phi = DenseCodeMatrix(bernoulli_matrix(m, n, rng))
        b = phi.apply(frame.ravel())
    return CompositeOperator(phi, Dct2Basis(shape)), b


class TestOmpIncrementalQR:
    """OMP's QR-extended least squares against the per-atom lstsq oracle."""

    @pytest.mark.parametrize("measurement", ["row_sampling", "dense_codes"])
    @pytest.mark.parametrize("sparsity", [1, 12, 100])
    def test_matches_per_atom_lstsq(self, measurement, sparsity):
        operator, b = _thermal_problem(measurement)
        result = solve_omp(operator, b, sparsity=sparsity)
        x, support, iterations, converged = _omp_reference(
            operator, b, sparsity
        )
        assert set(np.flatnonzero(result.coefficients)) == set(support)
        assert result.info["support_size"] == len(support) == sparsity
        np.testing.assert_allclose(result.coefficients, x, rtol=0, atol=1e-10)
        assert result.iterations == iterations
        assert result.converged == converged

    def test_early_stop_on_exact_recovery_matches_oracle(self):
        operator, b, coefficients, _ = _sparse_problem(seed=8)
        result = solve_omp(operator, b, sparsity=40)
        x, support, iterations, converged = _omp_reference(operator, b, 40)
        assert result.iterations == iterations == 12
        assert result.converged and converged
        np.testing.assert_allclose(result.coefficients, x, rtol=0, atol=1e-10)

    def test_deadline_returns_fit_on_atoms_so_far(self, monkeypatch):
        class ExpiresAfter:
            """A deadline that expires at its fourth check."""

            def __init__(self, limit_s):
                self.checks = 0
                self.expired_flag = False

            def expired(self):
                self.checks += 1
                self.expired_flag = self.checks > 3
                return self.expired_flag

        monkeypatch.setattr(greedy, "SolveDeadline", ExpiresAfter)
        operator, b = _thermal_problem("row_sampling")
        result = solve_omp(operator, b, sparsity=50, time_limit_s=1.0)
        assert result.info["deadline"] is True
        assert result.info["support_size"] == 3
        assert not result.converged
        x, *_ = _omp_reference(operator, b, 3)
        np.testing.assert_allclose(result.coefficients, x, rtol=0, atol=1e-10)

    def test_nan_measurements_report_diverged(self):
        operator, b, _, _ = _sparse_problem(seed=9)
        b = b.copy()
        b[3] = np.nan
        result = solve_omp(operator, b, sparsity=12)
        assert result.info["diverged"] is True
        assert not result.converged
        assert result.info["support_size"] == 0
        assert np.array_equal(result.coefficients, np.zeros(operator.n))

    def test_dependent_column_ends_the_loop(self):
        # Column 1 is column 0 tilted by 1e-13: once column 0 is in the
        # support, column 1 is the only atom left with any correlation,
        # but it adds no numerically independent direction.
        matrix = np.array([[1.0, 0.999], [0.0, 1e-13], [0.0, 0.0]])
        b = np.array([1.0, 1.0, 0.0])
        result = solve_omp(
            CompositeOperator(DenseCodeMatrix(matrix), None), b, sparsity=2
        )
        assert result.info["support_size"] == 1
        assert result.iterations == 2
        np.testing.assert_allclose(result.coefficients, [1.0, 0.0])
        assert not result.converged


class TestRegistry:
    def test_all_names_dispatch(self):
        operator, b, coefficients, _ = _sparse_problem(seed=12)
        expected = {"bp": "basis_pursuit"}
        for name in solver_names():
            result = solve(name, operator, b, sparsity=12)
            assert result.solver == expected.get(name, name)
            assert result.coefficients.shape == (operator.n,)

    def test_unknown_name_rejected(self):
        operator, b, _, _ = _sparse_problem()
        with pytest.raises(ValueError):
            solve("magic", operator, b)

    def test_greedy_defaults_sparsity_from_m(self):
        operator, b, _, _ = _sparse_problem(seed=13)
        result = solve("omp", operator, b)
        assert result.info["support_size"] <= operator.m // 2


class TestThresholds:
    def test_soft_threshold_shrinks_toward_zero(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        out = soft_threshold(x, 1.0)
        assert np.array_equal(out, [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_hard_threshold_keeps_top_k(self):
        x = np.array([1.0, -5.0, 3.0, 0.1])
        out = hard_threshold(x, 2)
        assert np.array_equal(out, [0.0, -5.0, 3.0, 0.0])

    def test_hard_threshold_edge_cases(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(hard_threshold(x, 0), [0.0, 0.0])
        assert np.array_equal(hard_threshold(x, 5), x)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    threshold=st.floats(min_value=0, max_value=50, allow_nan=False),
)
def test_property_soft_threshold_is_proximal(values, threshold):
    """Soft threshold never increases magnitude and preserves sign."""
    x = np.array(values)
    out = soft_threshold(x, threshold)
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
    nonzero = out != 0
    assert np.all(np.sign(out[nonzero]) == np.sign(x[nonzero]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=0, max_value=25),
)
def test_property_hard_threshold_support(seed, k):
    """Hard threshold keeps exactly min(k, n) of the largest entries."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=20)
    out = hard_threshold(x, k)
    expected_support = min(k, 20)
    assert np.count_nonzero(out) == expected_support
    if 0 < k < 20:
        kept_min = np.min(np.abs(out[out != 0]))
        dropped_max = np.max(np.abs(x[out == 0]))
        assert kept_min >= dropped_max - 1e-12
