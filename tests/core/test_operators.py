"""Tests for repro.core.operators: the A = Phi @ Psi map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dct import Dct2Basis
from repro.core.measurement import DenseCodeMatrix
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix, gaussian_matrix


def _make_fast_operator(shape=(6, 5), m=12, seed=0):
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    phi = RowSamplingMatrix.random(n, m, rng)
    return CompositeOperator(phi, Dct2Basis(shape))


class TestFastPath:
    def test_matvec_matches_dense(self):
        op = _make_fast_operator()
        dense = op.to_dense()
        rng = np.random.default_rng(1)
        x = rng.normal(size=op.n)
        assert np.allclose(op.matvec(x), dense @ x)

    def test_rmatvec_matches_dense(self):
        op = _make_fast_operator()
        dense = op.to_dense()
        rng = np.random.default_rng(2)
        r = rng.normal(size=op.m)
        assert np.allclose(op.rmatvec(r), dense.T @ r)

    def test_spectral_norm_is_one_for_orthonormal_basis(self):
        op = _make_fast_operator(m=20)
        assert op.spectral_norm() == pytest.approx(1.0, abs=1e-2)

    def test_shape_attributes(self):
        op = _make_fast_operator(shape=(4, 4), m=7)
        assert op.shape == (7, 16)
        assert op.m == 7 and op.n == 16


class TestDensePath:
    def test_dense_phi_identity_basis(self):
        rng = np.random.default_rng(3)
        a = gaussian_matrix(8, 20, rng)
        op = CompositeOperator(DenseCodeMatrix(a), None)
        x = rng.normal(size=20)
        assert np.allclose(op.matvec(x), a @ x)
        r = rng.normal(size=8)
        assert np.allclose(op.rmatvec(r), a.T @ r)
        assert np.allclose(op.to_dense(), a)

    def test_identity_basis_with_row_sampling(self):
        rng = np.random.default_rng(5)
        phi = RowSamplingMatrix.random(10, 4, rng)
        op = CompositeOperator(phi, None)
        x = rng.normal(size=10)
        assert np.allclose(op.matvec(x), x[phi.indices])


class TestValidation:
    def test_basis_size_mismatch(self):
        rng = np.random.default_rng(6)
        phi = RowSamplingMatrix.random(10, 4, rng)
        with pytest.raises(ValueError):
            CompositeOperator(phi, Dct2Basis((3, 3)))

    def test_non_square_dense_basis_rejected(self):
        # A dense array is not a basis object at all any more.
        rng = np.random.default_rng(7)
        phi = RowSamplingMatrix.random(10, 4, rng)
        with pytest.raises(TypeError, match="matrix-free basis API"):
            CompositeOperator(phi, rng.normal(size=(10, 9)))

    def test_non_2d_dense_phi_rejected(self):
        with pytest.raises(ValueError):
            DenseCodeMatrix(np.zeros(5))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_forward_adjoint_consistency(seed):
    """<A x, v> == <x, A^T v> on the fast path."""
    rng = np.random.default_rng(seed)
    op = _make_fast_operator(shape=(5, 7), m=14, seed=seed)
    x = rng.normal(size=op.n)
    v = rng.normal(size=op.m)
    assert np.dot(op.matvec(x), v) == pytest.approx(np.dot(x, op.rmatvec(v)))
