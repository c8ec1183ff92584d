"""Tests for the Haar wavelet basis (DWT alternative)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dct import Dct2Basis
from repro.core.metrics import rmse
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix
from repro.core.solvers import solve
from repro.core.wavelet import Haar2Basis, haar2, ihaar2


class TestTransform:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        image = rng.normal(size=(16, 16))
        assert np.allclose(ihaar2(haar2(image)), image)

    def test_orthonormal(self):
        rng = np.random.default_rng(1)
        image = rng.normal(size=(8, 8))
        assert np.linalg.norm(haar2(image)) == pytest.approx(
            np.linalg.norm(image)
        )

    def test_constant_image_single_coefficient(self):
        image = np.full((8, 8), 2.0)
        coefficients = haar2(image)
        assert coefficients[0, 0] == pytest.approx(16.0)
        assert np.count_nonzero(np.abs(coefficients) > 1e-10) == 1

    def test_rectangular_even_shapes(self):
        rng = np.random.default_rng(2)
        image = rng.normal(size=(12, 20))
        assert np.allclose(ihaar2(haar2(image)), image)

    def test_level_cap(self):
        rng = np.random.default_rng(3)
        image = rng.normal(size=(16, 16))
        one_level = haar2(image, max_levels=1)
        # the LL quadrant of a single level is a scaled 2x2 average
        assert one_level.shape == (16, 16)
        assert np.allclose(ihaar2(one_level, max_levels=1), image)

    def test_odd_shape_rejected(self):
        with pytest.raises(ValueError):
            haar2(np.zeros((7, 8)))
        with pytest.raises(ValueError):
            ihaar2(np.zeros((8, 7)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            haar2(np.zeros(8))


class TestBasisObject:
    def test_matrix_is_orthogonal(self):
        basis = Haar2Basis((4, 4))
        psi = basis.to_matrix()
        assert np.allclose(psi.T @ psi, np.eye(16), atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(4)
        basis = Haar2Basis((8, 8))
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        assert np.dot(basis.synthesize(x), y) == pytest.approx(
            np.dot(x, basis.analyze(y))
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Haar2Basis((1, 8))
        with pytest.raises(ValueError):
            Haar2Basis((7, 7))


class TestCsWithHaar:
    def _blocky_frame(self):
        frame = np.zeros((16, 16))
        frame[2:8, 3:10] = 0.8
        frame[10:14, 6:15] = 0.4
        return frame

    def test_haar_wins_with_dense_measurements(self):
        """With an incoherent (Gaussian) sensing matrix, the sparser
        basis wins: a blocky frame is ~5x sparser in Haar than DCT."""
        from repro.core.measurement import DenseCodeMatrix
        from repro.core.sensing import gaussian_matrix

        frame = self._blocky_frame()
        rng = np.random.default_rng(5)
        phi = DenseCodeMatrix(gaussian_matrix(140, 256, rng))
        b = phi.apply(frame.ravel())
        results = {}
        for name, basis in (
            ("haar", Haar2Basis((16, 16))),
            ("dct", Dct2Basis((16, 16))),
        ):
            operator = CompositeOperator(phi, basis)
            result = solve("fista", operator, b)
            recon = operator.synthesize(result.coefficients).reshape(16, 16)
            results[name] = rmse(frame, recon)
        assert results["haar"] < results["dct"]

    def test_dct_wins_with_pixel_sampling(self):
        """With the paper's row-sampling encoder, DCT beats Haar even
        on a blocky frame: point sampling is *coherent* with localized
        wavelet atoms (unsampled fine atoms are invisible), which is
        exactly why the paper builds on the DCT."""
        frame = self._blocky_frame()
        rng = np.random.default_rng(5)
        phi = RowSamplingMatrix.random(256, 140, rng)
        b = phi.apply(frame.ravel())
        results = {}
        for name, basis in (
            ("haar", Haar2Basis((16, 16))),
            ("dct", Dct2Basis((16, 16))),
        ):
            operator = CompositeOperator(phi, basis)
            result = solve("fista", operator, b)
            recon = operator.synthesize(result.coefficients).reshape(16, 16)
            results[name] = rmse(frame, recon)
        assert results["dct"] < results["haar"]

    def test_sensing_operator_accepts_haar(self):
        rng = np.random.default_rng(6)
        phi = RowSamplingMatrix.random(64, 30, rng)
        operator = CompositeOperator(phi, Haar2Basis((8, 8)))
        x = rng.normal(size=64)
        v = rng.normal(size=30)
        assert np.dot(operator.matvec(x), v) == pytest.approx(
            np.dot(x, operator.rmatvec(v))
        )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.sampled_from([2, 4, 6, 8, 12, 16]),
    cols=st.sampled_from([2, 4, 6, 8, 12, 16]),
)
def test_property_haar_is_isometry(seed, rows, cols):
    """Energy is preserved for every even shape."""
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(rows, cols))
    coefficients = haar2(image)
    assert np.linalg.norm(coefficients) == pytest.approx(
        np.linalg.norm(image), rel=1e-9
    )
    assert np.allclose(ihaar2(coefficients), image)
