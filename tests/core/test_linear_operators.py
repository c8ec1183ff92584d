"""End-to-end tests for the implicit operator layer (PR 8).

Covers the :class:`~repro.core.operators.LinearOperator` contract that
the matrix-free refactor rests on: adjoint consistency (the dot-test
every iterative solver implicitly assumes), bitwise batch/serial
forward-apply agreement, dense-vs-implicit decode agreement (documented
tolerance 1e-10; measured ~1e-14), spectral-norm hints and
power-iteration caching, and the operator cache's mode keys and byte
accounting.
"""

import numpy as np
import pytest

from repro.core.dct import Dct2Basis
from repro.core.engine import (
    _DENSE_MODE_MAX_N,
    DecodeContext,
    DecodeEngine,
    OPERATOR_MODES,
)
from repro.core.operators import (
    CompositeOperator,
    DenseOperator,
    LinearOperator,
    SeparableDCTOperator,
)
from repro.core.sensing import RowSamplingMatrix, gaussian_matrix
from repro.core.solvers import solve_batch
from repro.core.solvers.fista import solve_ista
from repro.core.solvers.greedy import solve_iht

ADJOINT_TOL = 1e-10
"""Documented adjoint/dense-agreement tolerance (measured ~1e-14)."""


def _operators():
    """One instance of each concrete operator class (same 6x5 problem)."""
    rng = np.random.default_rng(0)
    shape = (6, 5)
    n = shape[0] * shape[1]
    phi = RowSamplingMatrix.random(n, 12, rng)
    basis = Dct2Basis(shape)
    implicit = SeparableDCTOperator(phi, basis)
    composite = CompositeOperator(gaussian_matrix(12, n, rng), basis)
    dense = DenseOperator(implicit.to_dense(), basis=basis)
    return {"separable": implicit, "composite": composite, "dense": dense}


class TestAdjointDotTest:
    """<A x, y> == <x, A^T y> for every operator class."""

    @pytest.mark.parametrize("kind", ["separable", "composite", "dense"])
    def test_adjoint_consistency(self, kind):
        op = _operators()[kind]
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(size=op.n)
            y = rng.normal(size=op.m)
            lhs = float(op.matvec(x) @ y)
            rhs = float(x @ op.rmatvec(y))
            assert lhs == pytest.approx(rhs, abs=ADJOINT_TOL)

    @pytest.mark.parametrize("kind", ["separable", "composite", "dense"])
    def test_applies_match_dense_matrix(self, kind):
        op = _operators()[kind]
        a = op.to_dense()
        rng = np.random.default_rng(8)
        x = rng.normal(size=op.n)
        r = rng.normal(size=op.m)
        np.testing.assert_allclose(op.matvec(x), a @ x, atol=ADJOINT_TOL)
        np.testing.assert_allclose(op.rmatvec(r), a.T @ r, atol=ADJOINT_TOL)


class TestBatchApplies:
    """The row-stack forward apply is bitwise the per-row serial apply."""

    @pytest.mark.parametrize("kind", ["separable", "composite", "dense"])
    def test_matvec_batch_bitwise(self, kind):
        op = _operators()[kind]
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(4, op.n))
        batched = op.matvec_batch(stack)
        for i, row in enumerate(stack):
            np.testing.assert_array_equal(batched[i], op.matvec(row))

    def test_matmat_matches_dense_product(self):
        op = _operators()["separable"]
        rng = np.random.default_rng(11)
        block = rng.normal(size=(op.n, 3))
        np.testing.assert_allclose(
            op.matmat(block), op.to_dense() @ block, atol=ADJOINT_TOL
        )

    def test_separable_batch_is_vectorised(self):
        assert _operators()["separable"].supports_batch()
        assert _operators()["dense"].supports_batch()

    def test_batch_shape_validation(self):
        op = _operators()["separable"]
        with pytest.raises(ValueError):
            op.matvec_batch(np.zeros((2, op.n + 1)))
        with pytest.raises(ValueError):
            op.matvec_batch(np.zeros(op.n))


class TestSpectralNorm:
    def test_hint_short_circuits_power_iteration(self):
        op = _operators()["separable"]
        assert op.spectral_norm_hint == 1.0
        calls = {"n": 0}
        original = op.rmatvec

        def counting(r):
            calls["n"] += 1
            return original(r)

        op.rmatvec = counting
        assert op.spectral_norm() == 1.0
        assert calls["n"] == 0

    def test_power_iteration_matches_svd(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(10, 16))
        op = DenseOperator(a)
        assert op.spectral_norm_hint is None
        sigma = op.spectral_norm(iterations=100)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-6)

    def test_power_iteration_cached_per_key(self):
        rng = np.random.default_rng(13)
        op = DenseOperator(rng.normal(size=(8, 12)))
        first = op.spectral_norm(iterations=20, seed=3)
        calls = {"n": 0}
        original = op.rmatvec

        def counting(r):
            calls["n"] += 1
            return original(r)

        op.rmatvec = counting
        assert op.spectral_norm(iterations=20, seed=3) == first
        assert calls["n"] == 0  # cache hit, no fresh iteration
        op.spectral_norm(iterations=21, seed=3)
        assert calls["n"] == 21  # different key re-runs

    def test_default_step_uses_hint(self):
        """Gradient solvers read the hint: unit step, no power iteration."""
        op = _operators()["separable"]
        rng = np.random.default_rng(14)
        b = op.matvec(rng.normal(size=op.n))
        result = solve_ista(op, b, max_iterations=3)
        assert result.info["step"] == 1.0


class TestMultiRHSKernels:
    """solve_batch over a measurement stack: bitwise the serial solves."""

    def _problem(self, k=3, seed=20):
        op = _operators()["separable"]
        rng = np.random.default_rng(seed)
        coeffs = np.zeros((k, op.n))
        for row in coeffs:
            row[rng.choice(op.n, size=4, replace=False)] = rng.normal(size=4)
        b_stack = op.matvec_batch(coeffs)
        return op, b_stack

    def test_ista_batch_bitwise_serial(self):
        op, b_stack = self._problem()
        batch = solve_batch("ista", op, b_stack, max_iterations=60)
        for result, b in zip(batch, b_stack):
            serial = solve_ista(op, b, max_iterations=60)
            np.testing.assert_array_equal(
                result.coefficients, serial.coefficients
            )
            assert result.iterations == serial.iterations
            assert result.converged == serial.converged
            assert result.info["lambda"] == serial.info["lambda"]

    def test_iht_batch_bitwise_serial(self):
        op, b_stack = self._problem(seed=21)
        batch = solve_batch("iht", op, b_stack, sparsity=4, max_iterations=60)
        for result, b in zip(batch, b_stack):
            serial = solve_iht(op, b, sparsity=4, max_iterations=60)
            np.testing.assert_array_equal(
                result.coefficients, serial.coefficients
            )
            assert result.converged == serial.converged


class TestDenseVsImplicitDecode:
    """The dense control arm agrees with the implicit route to 1e-10."""

    def test_full_decode_agreement(self):
        shape = (16, 16)
        yy, xx = np.mgrid[0: shape[0], 0: shape[1]]
        frame = 0.5 + 0.25 * (
            np.cos(2 * np.pi * yy / shape[0])
            + np.cos(2 * np.pi * xx / shape[1])
        )
        recons = {}
        for mode in OPERATOR_MODES:
            engine = DecodeEngine(operator_mode=mode)
            plan = DecodeContext(shape=shape, sampling_fraction=0.5)
            recons[mode] = engine.decode(
                frame, plan, np.random.default_rng(42)
            )
        np.testing.assert_allclose(
            recons["implicit"], recons["dense"], atol=ADJOINT_TOL
        )

    def test_dense_mode_size_guard(self):
        engine = DecodeEngine(operator_mode="dense")
        big = (128, 128)  # 16384 cells > _DENSE_MODE_MAX_N
        assert big[0] * big[1] > _DENSE_MODE_MAX_N
        with pytest.raises(ValueError, match="dense"):
            engine.entry_for(big)


class TestCacheAccounting:
    def test_mode_is_part_of_the_cache_key(self):
        engine = DecodeEngine()
        implicit = engine.entry_for((8, 8), mode="implicit")
        dense = engine.entry_for((8, 8), mode="dense")
        assert implicit.key != dense.key
        assert implicit.mode == "implicit" and dense.mode == "dense"
        assert len(engine.cache) == 2

    def test_dense_entry_bytes_are_the_full_basis(self):
        engine = DecodeEngine()
        n = 8 * 8
        engine.entry_for((8, 8), mode="dense")
        assert engine.cache.bytes == n * n * 8

    def test_implicit_entry_is_light(self):
        engine = DecodeEngine()
        entry = engine.entry_for((8, 8), mode="implicit")
        n = 8 * 8
        # Implicit entries pin at most sqrt(N)-sized factor matrices
        # (nothing at all on the FFT path); dense pins the full N x N.
        assert entry.nbytes < n * n * 8 / 16

    def test_eviction_returns_bytes(self):
        from repro.core.engine import OperatorCache

        engine = DecodeEngine(cache=OperatorCache(capacity=1))
        engine.entry_for((8, 8), mode="dense")
        assert engine.cache.bytes > 0
        engine.entry_for((8, 8), mode="implicit")  # evicts the dense entry
        stats = engine.cache.stats()
        assert stats["evictions"] == 1
        assert stats["bytes"] == engine.cache.bytes < 64 * 64 * 8

    def test_stats_bytes_matches_attribute(self):
        engine = DecodeEngine()
        engine.entry_for((8, 8), mode="dense")
        engine.entry_for((4, 4), mode="implicit")
        assert engine.cache.stats()["bytes"] == engine.cache.bytes

    def test_clear_resets_bytes(self):
        engine = DecodeEngine()
        engine.entry_for((8, 8), mode="dense")
        engine.cache.clear()
        assert engine.cache.bytes == 0


class TestAbstractContract:
    def test_base_class_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LinearOperator((0, 4))

    def test_generic_batch_falls_back_to_loop(self):
        class Doubler(LinearOperator):
            def matvec(self, x):
                return 2.0 * np.asarray(x, dtype=float)

            def rmatvec(self, r):
                return 2.0 * np.asarray(r, dtype=float)

        op = Doubler((3, 3))
        assert not op.supports_batch()
        stack = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(op.matvec_batch(stack), 2.0 * stack)
        np.testing.assert_array_equal(op.to_dense(), 2.0 * np.eye(3))
