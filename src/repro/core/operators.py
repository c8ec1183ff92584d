"""Implicit linear operators: the decoder-side view of ``A = Phi_M @ Psi``.

Eq. (8) of the paper splits the CS system into the FE-side encoder
(``Phi_M @ y``) and the silicon-side decoder model (``Phi_M @ Psi @ x``).
Every solver in :mod:`repro.core.solvers` works against the linear map

    ``A x = Phi_M (Psi x)``,   ``A^T r = Psi^T (Phi_M^T r)``

and only ever needs applies, never entries.  This module is the operator
layer: a small :class:`LinearOperator` abstraction (``matvec`` /
``rmatvec`` / ``matmat``, shape, dtype, a spectral-norm hint with a
cached power-iteration fallback, and a ``to_dense()`` escape hatch) plus
the two concrete implementations the engine hands out:

* :class:`SeparableDCTOperator` -- row-subsampled separable 2-D DCT:
  applies run through the fast separable transform (``scipy.fft`` or
  two small GEMMs), ``O(N log N)`` time and ``O(1)`` extra memory
  beyond the sampling index vector.
* :class:`CompositeOperator` -- the general ``Phi o Psi`` chain for any
  measurement matrix / sparsifying basis pairing (Gaussian and
  Bernoulli ablations, Haar wavelets, 3-D video DCT...).

Library code constructs operators only through
:meth:`repro.core.engine.DecodeEngine.operator` (which asks the
measurement family to build one), and dense materialisation
(``to_dense`` / ``to_matrix``) is forbidden outside this module and its
allow-listed callers; CI enforces both seams
(``tools/check_engine_seam.py``).
"""

from __future__ import annotations

import numpy as np

from .sensing import RowSamplingMatrix

__all__ = [
    "LinearOperator",
    "CompositeOperator",
    "SeparableDCTOperator",
]


def _is_matrix_free(basis) -> bool:
    return (
        hasattr(basis, "synthesize")
        and hasattr(basis, "analyze")
        and hasattr(basis, "n")
    )


class LinearOperator:
    """Abstract ``(m, n)`` linear map defined by its applies.

    Subclasses implement :meth:`matvec` / :meth:`rmatvec`; everything
    else (the batched forward apply, ``matmat``, dense materialisation,
    the spectral norm) has a generic default built on them.  The
    batched apply uses the row-stack convention (``(k, n) -> (k, m)``)
    because that is what the greedy solvers' support-column gathers
    consume; ``matmat`` exposes the conventional column layout on top
    of it.

    Parameters
    ----------
    shape:
        ``(m, n)`` of the map.
    dtype:
        Element dtype (all repo operators are float64).
    spectral_norm_hint:
        Exact (or safe upper-bound) value for ``||A||_2``; when set,
        :meth:`spectral_norm` returns it without running the power
        iteration.  Gradient solvers divide by its square for the step
        size, so an upper bound keeps them convergent.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        dtype=float,
        spectral_norm_hint: float | None = None,
    ):
        m, n = shape
        if m < 1 or n < 1:
            raise ValueError(f"invalid operator shape {shape}")
        self.m = int(m)
        self.n = int(n)
        self.shape = (self.m, self.n)
        self.dtype = np.dtype(dtype)
        self._spectral_norm_hint = (
            None if spectral_norm_hint is None else float(spectral_norm_hint)
        )
        self._sigma_cache: dict[tuple[int, int], float] = {}

    # -- core applies (subclass responsibility) ----------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a coefficient vector ``x`` of length ``n``."""
        raise NotImplementedError

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """``A.T @ r`` for a measurement vector ``r`` of length ``m``."""
        raise NotImplementedError

    # -- batched forward apply (support-column gathers) --------------------
    def matvec_batch(self, x: np.ndarray) -> np.ndarray:
        """``A @ x_i`` for every row of a ``(k, n)`` stack.

        Row ``i`` of the result is ``matvec(x[i])``; the generic default
        loops, subclasses with a vectorised path override it (and report
        so through :meth:`supports_batch`).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(
                f"expected a (k, {self.n}) coefficient stack, got {x.shape}"
            )
        return np.stack([self.matvec(row) for row in x])

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """``A @ X`` for a dense ``(n, k)`` block; returns ``(m, k)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(
                f"expected an ({self.n}, k) block, got {x.shape}"
            )
        return self.matvec_batch(x.T).T

    def supports_batch(self) -> bool:
        """Whether :meth:`matvec_batch` takes a vectorised fast path."""
        return False

    # -- basis bridging (decode reshape path) ------------------------------
    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x``: coefficients to pixel vector (identity default)."""
        return np.asarray(coeffs, dtype=float)

    def analyze(self, pixels: np.ndarray) -> np.ndarray:
        """``Psi.T @ y``: pixel vector to coefficients (identity default)."""
        return np.asarray(pixels, dtype=float)

    # -- accounting / escape hatches ---------------------------------------
    @property
    def nbytes(self) -> int:
        """Memory held by the operator representation (0 when implicit)."""
        return 0

    @property
    def spectral_norm_hint(self) -> float | None:
        """The cached exact/upper-bound ``||A||_2``, when one is known."""
        return self._spectral_norm_hint

    def to_dense(self) -> np.ndarray:
        """Materialise the dense ``(m, n)`` matrix ``A`` (small problems).

        This is the escape hatch for algorithms that genuinely need
        entries (the basis-pursuit LP); ``O(m n)`` memory, so CI forbids
        calls outside the allow-listed modules.
        """
        return self.matmat(np.eye(self.n))

    def spectral_norm(self, iterations: int = 30, seed: int = 0) -> float:
        """``||A||_2``: the hint when set, else cached power iteration.

        The power iteration runs on ``A.T A`` from a seeded start and
        the estimate is cached per ``(iterations, seed)`` on the
        operator instance, so repeated solves against one operator
        (retry chains, batch fan-outs) pay for it once.
        """
        if self._spectral_norm_hint is not None:
            return self._spectral_norm_hint
        key = (int(iterations), int(seed))
        cached = self._sigma_cache.get(key)
        if cached is not None:
            return cached
        rng = np.random.default_rng(seed)
        v = rng.normal(size=self.n)
        v /= np.linalg.norm(v)
        sigma = 1.0
        for _ in range(iterations):
            w = self.rmatvec(self.matvec(v))
            norm = np.linalg.norm(w)
            if norm == 0.0:
                sigma = 0.0
                break
            v = w / norm
            sigma = np.sqrt(norm)
        sigma = float(sigma)
        self._sigma_cache[key] = sigma
        return sigma

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(m={self.m}, n={self.n})"


class CompositeOperator(LinearOperator):
    """Linear operator ``A = Phi @ Psi`` with forward and adjoint applies.

    Parameters
    ----------
    phi:
        Measurement matrix: either a :class:`RowSamplingMatrix` (the
        paper's hardware-friendly encoder) or a dense ``(m, n)`` array.
    basis:
        Sparsifying synthesis basis: any matrix-free basis object
        exposing ``synthesize`` / ``analyze`` / ``n`` (e.g.
        :class:`~repro.core.dct.Dct2Basis` or
        :class:`~repro.core.wavelet.Haar2Basis`), a dense ``(n, n)``
        array, or ``None`` for the identity basis (the "no transform"
        ablation).
    spectral_norm_hint:
        As for :class:`LinearOperator`; the engine sets ``1.0`` when
        ``phi`` is row-sampling and the basis is orthonormal.
    """

    def __init__(
        self,
        phi: RowSamplingMatrix | np.ndarray,
        basis,
        spectral_norm_hint: float | None = None,
    ):
        self._phi = phi
        self._basis = basis
        if isinstance(phi, RowSamplingMatrix):
            m, n = phi.m, phi.n
        else:
            phi = np.asarray(phi, dtype=float)
            if phi.ndim != 2:
                raise ValueError("dense phi must be a 2-D array")
            self._phi = phi
            m, n = phi.shape
        basis_n = self._basis_size()
        if basis_n is not None and basis_n != n:
            raise ValueError(
                f"basis size {basis_n} does not match phi columns {n}"
            )
        super().__init__((m, n), spectral_norm_hint=spectral_norm_hint)

    def _basis_size(self) -> int | None:
        if self._basis is None:
            return None
        if _is_matrix_free(self._basis):
            return int(self._basis.n)
        self._basis = np.asarray(self._basis, dtype=float)
        if self._basis.ndim != 2 or self._basis.shape[0] != self._basis.shape[1]:
            raise ValueError("dense basis must be a square 2-D array")
        return self._basis.shape[0]

    # -- basis applies ----------------------------------------------------
    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x``: coefficients to pixel vector."""
        if self._basis is None:
            return np.asarray(coeffs, dtype=float)
        if _is_matrix_free(self._basis):
            return self._basis.synthesize(coeffs)
        return self._basis @ coeffs

    def analyze(self, pixels: np.ndarray) -> np.ndarray:
        """``Psi.T @ y``: pixel vector to coefficients."""
        if self._basis is None:
            return np.asarray(pixels, dtype=float)
        if _is_matrix_free(self._basis):
            return self._basis.analyze(pixels)
        return self._basis.T @ pixels

    # -- full operator applies --------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a coefficient vector ``x`` of length ``n``."""
        y = self.synthesize(x)
        if isinstance(self._phi, RowSamplingMatrix):
            return self._phi.apply(y)
        return self._phi @ y

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """``A.T @ r`` for a measurement vector ``r`` of length ``m``."""
        if isinstance(self._phi, RowSamplingMatrix):
            scattered = self._phi.adjoint(r)
        else:
            scattered = self._phi.T @ np.asarray(r, dtype=float)
        return self.analyze(scattered)

    # -- batched forward apply (support-column gathers) --------------------
    def _has_batch_basis(self) -> bool:
        return (
            isinstance(self._phi, RowSamplingMatrix)
            and self._basis is not None
            and hasattr(self._basis, "synthesize_batch")
        )

    def _has_dense_phi_batch(self) -> bool:
        # Dense Phi vectorises through broadcast matmul for any basis
        # except a matrix-free one without a batched synthesis.
        return not isinstance(self._phi, RowSamplingMatrix) and (
            self._basis is None
            or not _is_matrix_free(self._basis)
            or hasattr(self._basis, "synthesize_batch")
        )

    def _synthesize_batch(self, x: np.ndarray) -> np.ndarray:
        """``Psi @ x_i`` per row, bitwise the serial :meth:`synthesize`."""
        if self._basis is None:
            return x
        if _is_matrix_free(self._basis):
            return self._basis.synthesize_batch(x)
        return np.matmul(self._basis, x[:, :, None])[..., 0]

    def matvec_batch(self, x: np.ndarray) -> np.ndarray:
        """``A @ x_i`` for every row of a ``(k, n)`` stack.

        Row ``i`` of the result is bitwise ``matvec(x[i])``: row
        sampling uses the basis's batched apply (same per-slice
        arithmetic) plus fancy indexing, dense codes use broadcast
        matmul (``np.matmul`` applies the identical ``(m, n) @ (n, 1)``
        product per slice), and configurations without either fall back
        to a per-row loop.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(
                f"expected a (k, {self.n}) coefficient stack, got {x.shape}"
            )
        if self._has_batch_basis():
            return self._basis.synthesize_batch(x)[:, self._phi.indices]
        if self._has_dense_phi_batch():
            return np.matmul(self._phi, self._synthesize_batch(x)[:, :, None])[
                ..., 0
            ]
        return np.stack([self.matvec(row) for row in x])

    def supports_batch(self) -> bool:
        """Whether :meth:`matvec_batch` takes a vectorised fast path."""
        return self._has_batch_basis() or self._has_dense_phi_batch()

    @property
    def nbytes(self) -> int:
        """Memory held by the operator: sampling indices + basis factors."""
        total = 0
        if isinstance(self._phi, RowSamplingMatrix):
            total += int(np.asarray(self._phi.indices).nbytes)
        else:
            total += int(self._phi.nbytes)
        if self._basis is not None:
            if _is_matrix_free(self._basis):
                total += int(getattr(self._basis, "nbytes", 0))
            else:
                total += int(self._basis.nbytes)
        return total

    def to_dense(self) -> np.ndarray:
        """Materialise the dense ``(m, n)`` matrix ``A`` (small problems)."""
        if isinstance(self._phi, RowSamplingMatrix):
            phi = self._phi.to_matrix()
        else:
            phi = self._phi
        if self._basis is None:
            return phi.copy()
        if _is_matrix_free(self._basis):
            return phi @ self._basis.to_matrix()
        return phi @ self._basis

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = (
            "row-sampling"
            if isinstance(self._phi, RowSamplingMatrix)
            else "dense"
        )
        basis = (
            "identity"
            if self._basis is None
            else (
                type(self._basis).__name__
                if _is_matrix_free(self._basis)
                else "dense"
            )
        )
        return (
            f"{type(self).__name__}(m={self.m}, n={self.n}, "
            f"phi={kind}, basis={basis})"
        )


class SeparableDCTOperator(CompositeOperator):
    """Row-subsampled separable 2-D DCT: the implicit fast path.

    ``A = Phi_M o Psi`` where ``Phi_M`` is a
    :class:`~repro.core.sensing.RowSamplingMatrix` and ``Psi`` a
    separable DCT basis (:class:`~repro.core.dct.Dct2Basis` on the FFT
    path, :class:`~repro.core.dct.SeparableDct2Basis` on the
    two-small-GEMM path).  Applies cost ``O(N log N)`` (or two
    ``sqrt(N)``-sized GEMMs) and the representation holds only the
    sampling index vector plus the basis factors -- no ``O(N^2)``
    matrix ever exists.

    Row subsampling of an orthonormal basis keeps every singular value
    at most 1, so the spectral-norm hint defaults to ``1.0`` (the exact
    value whenever at least one full row survives); gradient solvers
    take the unit step without a power iteration.  The batched forward
    apply is always vectorised: both DCT bases expose a bitwise
    per-slice ``synthesize_batch``.
    """

    def __init__(
        self,
        phi: RowSamplingMatrix,
        basis,
        spectral_norm_hint: float | None = 1.0,
    ):
        if not isinstance(phi, RowSamplingMatrix):
            raise TypeError(
                "SeparableDCTOperator requires a RowSamplingMatrix encoder, "
                f"got {type(phi).__name__}"
            )
        if not hasattr(basis, "synthesize_batch"):
            raise TypeError(
                "SeparableDCTOperator requires a separable basis with a "
                f"batched synthesis, got {type(basis).__name__}"
            )
        super().__init__(phi, basis, spectral_norm_hint=spectral_norm_hint)
