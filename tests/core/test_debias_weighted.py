"""Tests for the debiasing pass and weighted sampling extensions."""

import numpy as np
import pytest

from repro.core.dct import Dct2Basis, idct2
from repro.core.errors import inject_sparse_errors
from repro.core.metrics import rmse
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix, weighted_sample_indices
from repro.core.solvers import debias_on_support, solve_fista
from repro.core.strategies import WeightedSamplingStrategy


def _sparse_problem(shape=(12, 12), sparsity=10, m=90, seed=0):
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
    return operator, phi.apply(image.ravel()), coefficients


class TestDebias:
    def test_reduces_shrinkage_bias(self):
        operator, b, coefficients = _sparse_problem()
        # a deliberately large lambda -> strong bias
        lam = 0.05 * float(np.max(np.abs(operator.rmatvec(b))))
        biased = solve_fista(operator, b, lam=lam)
        debiased = debias_on_support(operator, b, biased)
        error_biased = np.linalg.norm(biased.coefficients - coefficients)
        error_debiased = np.linalg.norm(debiased.coefficients - coefficients)
        assert error_debiased < error_biased

    def test_support_preserved_or_truncated(self):
        operator, b, _ = _sparse_problem(seed=1)
        result = solve_fista(operator, b)
        debiased = debias_on_support(operator, b, result, max_support=5)
        assert np.count_nonzero(debiased.coefficients) <= 5

    def test_solver_name_tagged(self):
        operator, b, _ = _sparse_problem(seed=2)
        result = solve_fista(operator, b)
        assert debias_on_support(operator, b, result).solver == "fista+debias"

    def test_empty_support_passthrough(self):
        operator, b, _ = _sparse_problem(seed=3)
        result = solve_fista(operator, b)
        result.coefficients = np.zeros(operator.n)
        assert debias_on_support(operator, b, result) is result

    def test_residual_not_worse(self):
        operator, b, _ = _sparse_problem(seed=4)
        result = solve_fista(operator, b, lam=1e-2)
        debiased = debias_on_support(operator, b, result)
        assert debiased.residual <= result.residual + 1e-9


class TestWeightedSampleIndices:
    def test_zero_weight_never_sampled(self):
        rng = np.random.default_rng(0)
        weights = np.ones(20)
        weights[:10] = 0.0
        indices = weighted_sample_indices(20, 8, weights, rng)
        assert np.all(indices >= 10)

    def test_heavier_pixels_sampled_more(self):
        rng = np.random.default_rng(1)
        weights = np.ones(100)
        weights[:50] = 10.0
        counts = np.zeros(100)
        for _ in range(200):
            counts[weighted_sample_indices(100, 10, weights, rng)] += 1
        assert counts[:50].sum() > 3 * counts[50:].sum()

    def test_exclusion_respected(self):
        rng = np.random.default_rng(2)
        indices = weighted_sample_indices(
            10, 4, np.ones(10), rng, exclude=np.array([0, 1, 2])
        )
        assert np.all(indices >= 3)

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            weighted_sample_indices(10, 4, np.ones(9), rng)
        with pytest.raises(ValueError):
            weighted_sample_indices(10, 4, -np.ones(10), rng)
        with pytest.raises(ValueError):
            weighted_sample_indices(10, 4, np.zeros(10), rng)


class TestWeightedSamplingStrategy:
    def _frame(self):
        r, c = np.mgrid[0:16, 0:16]
        return 0.5 + 0.4 * np.sin(r / 4.0) * np.cos(c / 5.0)

    def test_reconstructs_clean_frame(self):
        frame = self._frame()
        strategy = WeightedSamplingStrategy(sampling_fraction=0.6)
        out = strategy.reconstruct(frame, np.random.default_rng(0))
        assert rmse(frame, out) < 0.05

    def test_uniform_floor_one_equals_uniformish(self):
        frame = self._frame()
        strategy = WeightedSamplingStrategy(
            sampling_fraction=0.6, uniform_floor=1.0
        )
        out = strategy.reconstruct(frame, np.random.default_rng(1))
        assert rmse(frame, out) < 0.05

    def test_respects_error_mask(self):
        frame = self._frame()
        rng = np.random.default_rng(2)
        corrupted, mask = inject_sparse_errors(frame, 0.1, rng)
        strategy = WeightedSamplingStrategy(sampling_fraction=0.5)
        with_mask = strategy.reconstruct(
            corrupted, np.random.default_rng(3), error_mask=mask
        )
        without = strategy.reconstruct(corrupted, np.random.default_rng(3))
        assert rmse(frame, with_mask) < rmse(frame, without)

    def test_weights_from_prior_properties(self):
        frame = self._frame()
        weights = WeightedSamplingStrategy.weights_from_prior(frame, 0.3)
        assert weights.shape == frame.shape
        assert np.all(weights >= 0.3 - 1e-12)
        assert np.all(weights <= 1.0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedSamplingStrategy(uniform_floor=1.5)
        strategy = WeightedSamplingStrategy()
        with pytest.raises(ValueError):
            strategy.reconstruct(np.zeros(16), np.random.default_rng(0))
