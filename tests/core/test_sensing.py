"""Tests for repro.core.sensing: Phi_M and driver control words."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measurement import get_measurement
from repro.core.sensing import (
    RowSamplingMatrix,
    bernoulli_matrix,
    gaussian_matrix,
    sample_indices,
)


class TestSampleIndices:
    def test_returns_sorted_unique(self):
        rng = np.random.default_rng(0)
        idx = sample_indices(100, 40, rng)
        assert len(idx) == 40
        assert np.array_equal(idx, np.sort(np.unique(idx)))

    def test_respects_exclusions(self):
        rng = np.random.default_rng(1)
        exclude = np.arange(0, 50)
        idx = sample_indices(100, 30, rng, exclude=exclude)
        assert np.all(idx >= 50)

    def test_rejects_overdraw_after_exclusion(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            sample_indices(10, 6, rng, exclude=np.arange(5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sample_indices(10, -1, np.random.default_rng(0))


class TestRowSamplingMatrix:
    def test_apply_selects_entries(self):
        phi = RowSamplingMatrix(n=6, indices=np.array([1, 4]))
        y = np.arange(6.0)
        assert np.array_equal(phi.apply(y), [1.0, 4.0])

    def test_adjoint_scatters(self):
        phi = RowSamplingMatrix(n=5, indices=np.array([0, 3]))
        out = phi.adjoint(np.array([2.0, 7.0]))
        assert np.array_equal(out, [2.0, 0.0, 0.0, 7.0, 0.0])

    def test_to_matrix_rows_of_identity(self):
        phi = RowSamplingMatrix(n=4, indices=np.array([2, 0]))
        dense = phi.to_matrix()
        identity = np.eye(4)
        for row, index in zip(dense, phi.indices):
            assert np.array_equal(row, identity[index])

    def test_each_column_has_at_most_one_one(self):
        rng = np.random.default_rng(3)
        phi = RowSamplingMatrix.random(50, 25, rng)
        dense = phi.to_matrix()
        assert np.all(dense.sum(axis=0) <= 1.0)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RowSamplingMatrix(n=5, indices=np.array([1, 1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RowSamplingMatrix(n=5, indices=np.array([5]))

    def test_apply_checks_length(self):
        phi = RowSamplingMatrix(n=5, indices=np.array([1]))
        with pytest.raises(ValueError):
            phi.apply(np.zeros(4))
        with pytest.raises(ValueError):
            phi.adjoint(np.zeros(2))

    def test_random_avoids_excluded(self):
        rng = np.random.default_rng(4)
        exclude = np.array([0, 1, 2, 3])
        phi = RowSamplingMatrix.random(20, 10, rng, exclude=exclude)
        assert not set(exclude) & set(phi.indices)


class TestDenseMatrices:
    def test_gaussian_column_norms_near_one(self):
        rng = np.random.default_rng(5)
        a = gaussian_matrix(400, 30, rng)
        norms = np.linalg.norm(a, axis=0)
        assert np.all(np.abs(norms - 1.0) < 0.25)

    def test_bernoulli_unit_columns(self):
        rng = np.random.default_rng(6)
        a = bernoulli_matrix(16, 8, rng)
        assert np.allclose(np.linalg.norm(a, axis=0), 1.0)
        assert np.allclose(np.abs(a), 0.25)

    def test_reject_bad_shapes(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            gaussian_matrix(0, 5, rng)
        with pytest.raises(ValueError):
            bernoulli_matrix(5, 0, rng)

    def test_repeated_exclusions_count_once(self):
        """Four entries naming three of four pixels leave one to measure."""
        rng = np.random.default_rng(8)
        a = bernoulli_matrix(2, 4, rng, exclude=np.array([0, 2, 2, 1]))
        assert np.count_nonzero(a[:, 3]) == 2
        assert not a[:, :3].any()

    @pytest.mark.parametrize("exclude", [[0, 1, 2, 3], [3, 0, 1, 2, 2]])
    def test_rejects_exclusions_covering_every_pixel(self, exclude):
        with pytest.raises(ValueError, match="covers all 4 pixels"):
            bernoulli_matrix(2, 4, np.random.default_rng(8), exclude=exclude)

    @pytest.mark.parametrize("exclude", [[-1], [4], [0, 4]])
    def test_rejects_exclusions_out_of_range(self, exclude):
        with pytest.raises(ValueError, match="out of range"):
            bernoulli_matrix(2, 4, np.random.default_rng(8), exclude=exclude)


class TestColumnControlWords:
    def test_words_cover_exactly_the_sampled_pixels(self):
        rng = np.random.default_rng(8)
        shape = (6, 5)
        phi = RowSamplingMatrix.random(30, 13, rng)
        words = get_measurement("row_sampling").control_words(phi, shape)
        assert len(words) == 5
        recovered = []
        for c, word in enumerate(words):
            for r in np.flatnonzero(word):
                recovered.append(r * 5 + c)
        assert sorted(recovered) == sorted(phi.indices.tolist())

    def test_shape_mismatch_rejected(self):
        phi = RowSamplingMatrix(n=30, indices=np.array([0]))
        with pytest.raises(ValueError):
            get_measurement("row_sampling").control_words(phi, (4, 4))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_property_apply_adjoint_identity(n, seed, data):
    """<Phi x, v> == <x, Phi^T v> for every sampled matrix."""
    m = data.draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(seed)
    phi = RowSamplingMatrix.random(n, m, rng)
    x = rng.normal(size=n)
    v = rng.normal(size=m)
    assert np.dot(phi.apply(x), v) == pytest.approx(np.dot(x, phi.adjoint(v)))
