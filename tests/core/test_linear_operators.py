"""End-to-end tests for the implicit operator layer.

Covers the :class:`~repro.core.operators.LinearOperator` contract that
the matrix-free refactor rests on: adjoint consistency (the dot-test
every iterative solver implicitly assumes), bitwise batch/serial
forward-apply agreement, the dense oracle (every family's engine
operator and decode against ``Phi @ Psi`` built from the reference
basis; documented tolerance 1e-10, measured ~1e-14), spectral-norm
hints (the engine's entry-hint x ``norm_bound`` rule) and
power-iteration caching, and the operator cache's keys and byte
accounting.
"""

import numpy as np
import pytest

from repro.core.dct import Dct2Basis
from repro.core.engine import DecodeContext, DecodeEngine
from repro.core.measurement import DenseCodeMatrix, get_measurement
from repro.core.operators import CompositeOperator, LinearOperator
from repro.core.sensing import RowSamplingMatrix, gaussian_matrix
from repro.core.solvers import solve_batch
from repro.core.solvers.fista import solve_fista, solve_ista
from repro.core.solvers.greedy import solve_iht
from repro.core.wavelet import Haar2Basis

ADJOINT_TOL = 1e-10
"""Documented adjoint/dense-agreement tolerance (measured ~1e-14)."""


def _operators():
    """One instance of each operator configuration (same 6x5 problem).

    ``"dense"`` is an explicit matrix behind the identity basis
    (``CompositeOperator(DenseCodeMatrix(A), None)``): the
    representation the dense oracle below decodes with.
    """
    rng = np.random.default_rng(0)
    shape = (6, 5)
    n = shape[0] * shape[1]
    phi = RowSamplingMatrix.random(n, 12, rng)
    basis = Dct2Basis(shape)
    implicit = CompositeOperator(phi, basis, spectral_norm_hint=1.0)
    composite = CompositeOperator(
        DenseCodeMatrix(gaussian_matrix(12, n, rng)), basis
    )
    dense = CompositeOperator(DenseCodeMatrix(implicit.to_dense()), None)
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
        op = CompositeOperator(DenseCodeMatrix(a), None)
        assert op.spectral_norm_hint is None
        sigma = op.spectral_norm(iterations=100)
        assert sigma == pytest.approx(np.linalg.norm(a, 2), rel=1e-6)

    def test_power_iteration_cached_per_key(self):
        rng = np.random.default_rng(13)
        op = CompositeOperator(DenseCodeMatrix(rng.normal(size=(8, 12))), None)
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


class TestEngineHintRule:
    """The engine's hint is the entry's hint times ``phi.norm_bound``."""

    @pytest.mark.parametrize("basis", ["dct2", "haar2"])
    @pytest.mark.parametrize(
        "family", ["row_sampling", "dense_codes", "block_sampling"]
    )
    def test_hint_per_family_and_basis(self, family, basis):
        shape = (8, 8)
        phi = get_measurement(family).draw(shape, 32, np.random.default_rng(0))
        expected = 1.0 if family == "row_sampling" else None
        op = DecodeEngine().operator(phi, shape, basis, measurement=family)
        assert op.spectral_norm_hint == expected
        slow = DecodeEngine(fast_basis=False).operator(
            phi, shape, basis, measurement=family
        )
        assert slow.spectral_norm_hint is None


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


_REFERENCE_BASES = {"dct2": Dct2Basis, "haar2": Haar2Basis}
"""The reference factory per basis kind (never the engine's fast one)."""

_ORACLE_SHAPES = {
    # 72x72 is above the engine's separable-matmul cut-over, so it
    # checks the FFT DCT path too.
    "row_sampling": ((8, 8), (16, 12), (32, 32), (72, 72)),
    "dense_codes": ((8, 8), (16, 12), (32, 32)),
    "block_sampling": ((8, 8), (16, 12), (32, 32)),
}

_ORACLE_CASES = [
    (family, basis, shape)
    for family, shapes in _ORACLE_SHAPES.items()
    for basis in _REFERENCE_BASES
    for shape in shapes
]


def _psi_ref(basis: str, shape: tuple) -> np.ndarray:
    """The explicit ``N x N`` basis from the reference factory."""
    return _REFERENCE_BASES[basis](shape).to_matrix()


class TestDenseOracle:
    """The engine's matrix-free operators against ``Phi @ Psi_ref``."""

    @pytest.mark.parametrize(
        "family, basis, shape",
        _ORACLE_CASES,
        ids=[f"{f}-{b}-{r}x{c}" for f, b, (r, c) in _ORACLE_CASES],
    )
    def test_applies_match_dense_product(self, family, basis, shape):
        n = shape[0] * shape[1]
        rng = np.random.default_rng(31)
        # A quarter of N keeps the 72x72 oracle matrix at ~54 MB.
        phi = get_measurement(family).draw(shape, n // 4, rng)
        psi_ref = _psi_ref(basis, shape)
        a_ref = phi.to_matrix() @ psi_ref
        op = DecodeEngine().operator(phi, shape, basis, measurement=family)
        assert op.shape == a_ref.shape
        x = rng.normal(size=(3, n))
        r = rng.normal(size=op.m)
        for row in x:
            np.testing.assert_allclose(
                op.matvec(row), a_ref @ row, rtol=0, atol=ADJOINT_TOL
            )
            np.testing.assert_allclose(
                op.synthesize(row), psi_ref @ row, rtol=0, atol=ADJOINT_TOL
            )
        np.testing.assert_allclose(
            op.rmatvec(r), a_ref.T @ r, rtol=0, atol=ADJOINT_TOL
        )
        np.testing.assert_allclose(
            op.matvec_batch(x), x @ a_ref.T, rtol=0, atol=ADJOINT_TOL
        )

    @pytest.mark.parametrize("basis", sorted(_REFERENCE_BASES))
    @pytest.mark.parametrize("family", sorted(_ORACLE_SHAPES))
    def test_decode_matches_dense_fista(self, family, basis):
        """A whole decode agrees with FISTA on the dense ``A`` (16x16)."""
        shape = (16, 16)
        yy, xx = np.mgrid[0: shape[0], 0: shape[1]]
        frame = 0.5 + 0.25 * (
            np.cos(2 * np.pi * yy / shape[0])
            + np.cos(2 * np.pi * xx / shape[1])
        )
        plan = DecodeContext(
            shape=shape,
            sampling_fraction=0.5,
            basis=basis,
            measurement=family,
        )
        got = DecodeEngine().decode(
            frame, plan, np.random.default_rng(42), full_output=True
        )
        # The oracle replays the draw, then solves on the dense matrix.
        model = get_measurement(family)
        phi = model.draw(shape, frame.size // 2, np.random.default_rng(42))
        b = phi.apply(frame.ravel())
        psi_ref = _psi_ref(basis, shape)
        # Row sampling of an orthonormal basis has ||A||_2 = 1 exactly
        # (the engine's hint); dense codes estimate the norm.
        hint = 1.0 if family == "row_sampling" else None
        dense = CompositeOperator(
            DenseCodeMatrix(phi.to_matrix() @ psi_ref),
            None,
            spectral_norm_hint=hint,
        )
        oracle = solve_fista(dense, b)
        np.testing.assert_array_equal(got.measurements, b)
        np.testing.assert_allclose(
            got.reconstruction.ravel(),
            psi_ref @ oracle.coefficients,
            rtol=0,
            atol=ADJOINT_TOL,
        )
        assert got.solver_result.iterations == oracle.iterations


class TestCacheAccounting:
    def test_entry_key_is_the_cache_key(self):
        engine = DecodeEngine()
        entry = engine.entry_for((8, 8))
        assert entry.key == ((8, 8), "dct2", "row_sampling")
        assert entry.key in engine.cache
        assert engine.entry_for((8, 8)) is entry
        assert len(engine.cache) == 1

    def test_entry_bytes_are_the_factor_matrices(self):
        engine = DecodeEngine()
        # Separable path: two 8x8 float64 DCT factors.
        assert engine.entry_for((8, 8)).nbytes == 2 * 8 * 8 * 8 == 1024
        assert engine.cache.bytes == 1024
        # FFT path (above the separable cut-over): no resident matrix.
        assert engine.entry_for((72, 72)).nbytes == 0
        assert engine.cache.bytes == 1024

    def test_implicit_entry_is_light(self):
        engine = DecodeEngine()
        entry = engine.entry_for((8, 8))
        n = 8 * 8
        # Entries pin at most sqrt(N)-sized factor matrices (nothing at
        # all on the FFT path), never an N x N basis.
        assert entry.nbytes < n * n * 8 / 16

    def test_eviction_returns_bytes(self):
        from repro.core.engine import OperatorCache

        engine = DecodeEngine(cache=OperatorCache(capacity=1))
        engine.entry_for((8, 8))
        assert engine.cache.bytes == 1024
        engine.entry_for((4, 4))  # evicts the 8x8 entry
        stats = engine.cache.stats()
        assert stats["evictions"] == 1
        assert stats["bytes"] == engine.cache.bytes == 2 * 4 * 4 * 8

    def test_stats_bytes_matches_attribute(self):
        engine = DecodeEngine()
        engine.entry_for((8, 8))
        engine.entry_for((4, 4))
        assert engine.cache.stats()["bytes"] == engine.cache.bytes == 1280

    def test_clear_resets_bytes(self):
        engine = DecodeEngine()
        engine.entry_for((8, 8))
        assert engine.cache.bytes > 0
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
        stack = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(op.matvec_batch(stack), 2.0 * stack)
        np.testing.assert_array_equal(op.to_dense(), 2.0 * np.eye(3))
