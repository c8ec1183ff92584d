"""Implicit linear operators: the decoder-side view of ``A = Phi_M @ Psi``.

Eq. (8) of the paper splits the CS system into the FE-side encoder
(``Phi_M @ y``) and the silicon-side decoder model (``Phi_M @ Psi @ x``).
Every solver in :mod:`repro.core.solvers` works against the linear map

    ``A x = Phi_M (Psi x)``,   ``A^T r = Psi^T (Phi_M^T r)``

and only ever needs applies, never entries.  This module is the operator
layer: a small :class:`LinearOperator` abstraction (``matvec`` /
``rmatvec`` / ``matmat``, shape, dtype, a spectral-norm hint with a
cached power-iteration fallback for ISTA and IHT, and a ``to_dense()``
escape hatch) plus
:class:`CompositeOperator`, the one implementation the engine hands
out: a code carrier ``Phi`` chained with a matrix-free basis ``Psi``.

The operator never asks which kind of ``Phi`` it holds.  Every code
carrier (:class:`~repro.core.sensing.RowSamplingMatrix`,
:class:`~repro.core.measurement.DenseCodeMatrix`...) answers one
duck-typed protocol -- ``m``, ``n``, ``apply``, ``adjoint``,
``apply_batch``, ``support_mask()``, ``nbytes``, ``to_matrix()`` and
``norm_bound`` -- so a new code is a new carrier and nothing else.

Every apply counts itself in :mod:`repro.instrument`:
``operator.applies`` gains 1 per ``matvec`` / ``rmatvec`` and ``k``
per ``matvec_batch`` of a ``(k, n)`` stack, and
``operator.power_iteration_applies`` gains the applies a
:meth:`LinearOperator.spectral_norm` power iteration ran (which
``operator.applies`` counts too).  FISTA never asks for one: without a
hint it backtracks its step.

Library code constructs operators only through
:meth:`repro.core.engine.DecodeEngine.operator`, and dense
materialisation (``to_dense`` / ``to_matrix``) is forbidden outside
this module and its allow-listed callers; CI enforces both seams
(``tools/check_engine_seam.py``).
"""

from __future__ import annotations

import numpy as np

from .. import instrument

__all__ = [
    "LinearOperator",
    "CompositeOperator",
]


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
        iteration.  Fixed-step gradient solvers divide by its square
        for the step size, so an upper bound keeps them convergent;
        FISTA steps ``1 / hint^2`` when it is set and backtracks when
        it is not.
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
    def _check_stack(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a float ``(k, n)`` coefficient stack, else ``ValueError``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(
                f"expected a (k, {self.n}) coefficient stack, got {x.shape}"
            )
        return x

    def matvec_batch(self, x: np.ndarray) -> np.ndarray:
        """``A @ x_i`` for every row of a ``(k, n)`` stack.

        Row ``i`` of the result is ``matvec(x[i])``; the generic default
        loops, and subclasses with a vectorised path override it.
        """
        return np.stack([self.matvec(row) for row in self._check_stack(x)])

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """``A @ X`` for a dense ``(n, k)`` block; returns ``(m, k)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(
                f"expected an ({self.n}, k) block, got {x.shape}"
            )
        return self.matvec_batch(x.T).T

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

        ISTA and IHT take their default step ``1 / ||A||_2^2`` from it
        (FISTA backtracks instead when no hint is set).  The power
        iteration runs on ``A.T A`` from a seeded start and the
        estimate is cached per ``(iterations, seed)`` on the operator
        instance, so repeated solves against one operator (retry
        chains, batch fan-outs) pay for it once.  It reads low (by up
        to ~2 % on 32x32 Bernoulli codes).  The applies it runs are
        added to ``operator.power_iteration_applies``.
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
        rounds = 0
        for rounds in range(1, iterations + 1):
            w = self.rmatvec(self.matvec(v))
            norm = np.linalg.norm(w)
            if norm == 0.0:
                sigma = 0.0
                break
            v = w / norm
            sigma = np.sqrt(norm)
        instrument.incr("operator.power_iteration_applies", 2 * rounds)
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
        Code carrier: any object answering the carrier protocol
        (``m``, ``n``, ``apply``, ``adjoint``, ``apply_batch``,
        ``nbytes``, ``to_matrix``), such as a
        :class:`~repro.core.sensing.RowSamplingMatrix` (the paper's
        hardware-friendly encoder) or a
        :class:`~repro.core.measurement.DenseCodeMatrix`.
    basis:
        Matrix-free sparsifying synthesis basis exposing ``synthesize``
        / ``analyze`` / ``n`` (e.g. :class:`~repro.core.dct.Dct2Basis`
        or :class:`~repro.core.wavelet.Haar2Basis`), or ``None`` for the
        identity basis (the "no transform" ablation).  Anything else
        raises ``TypeError``.
    spectral_norm_hint:
        As for :class:`LinearOperator`; the engine sets the basis
        entry's hint times ``phi.norm_bound`` when both are known.
    """

    def __init__(self, phi, basis, spectral_norm_hint: float | None = None):
        if basis is not None:
            missing = [
                name
                for name in ("synthesize", "analyze", "n")
                if not hasattr(basis, name)
            ]
            if missing:
                raise TypeError(
                    f"basis {type(basis).__name__} lacks the matrix-free "
                    f"basis API ({', '.join(missing)})"
                )
            if int(basis.n) != phi.n:
                raise ValueError(
                    f"basis size {basis.n} does not match phi columns {phi.n}"
                )
        self._phi = phi
        self._basis = basis
        super().__init__((phi.m, phi.n), spectral_norm_hint=spectral_norm_hint)

    # -- basis applies ----------------------------------------------------
    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x``: coefficients to pixel vector."""
        if self._basis is None:
            return np.asarray(coeffs, dtype=float)
        return self._basis.synthesize(coeffs)

    def analyze(self, pixels: np.ndarray) -> np.ndarray:
        """``Psi.T @ y``: pixel vector to coefficients."""
        if self._basis is None:
            return np.asarray(pixels, dtype=float)
        return self._basis.analyze(pixels)

    # -- full operator applies --------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a coefficient vector ``x`` of length ``n``."""
        instrument.incr("operator.applies")
        return self._phi.apply(self.synthesize(x))

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """``A.T @ r`` for a measurement vector ``r`` of length ``m``."""
        instrument.incr("operator.applies")
        return self.analyze(self._phi.adjoint(r))

    def matvec_batch(self, x: np.ndarray) -> np.ndarray:
        """``A @ x_i`` for every row of a ``(k, n)`` stack.

        Row ``i`` of the result is bitwise ``matvec(x[i])``: the stack is
        synthesised by the basis's batched apply when it has one (same
        per-slice arithmetic) or row by row otherwise, and the carrier's
        ``apply_batch`` is bitwise its ``apply`` per row.
        """
        x = self._check_stack(x)
        instrument.incr("operator.applies", len(x))
        if self._basis is None:
            pixels = x
        elif hasattr(self._basis, "synthesize_batch"):
            pixels = self._basis.synthesize_batch(x)
        else:
            pixels = np.stack([self._basis.synthesize(row) for row in x])
        return self._phi.apply_batch(pixels)

    @property
    def nbytes(self) -> int:
        """Memory held by the operator: the carrier plus basis factors."""
        return int(self._phi.nbytes) + int(getattr(self._basis, "nbytes", 0))

    def to_dense(self) -> np.ndarray:
        """Materialise the dense ``(m, n)`` matrix ``A`` (small problems).

        Column ``j`` of ``A`` is ``Phi`` applied to column ``j`` of the
        basis matrix.
        """
        if self._basis is None:
            return self._phi.to_matrix()
        return self._phi.apply_batch(self._basis.to_matrix().T).T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        basis = "identity" if self._basis is None else type(self._basis).__name__
        return (
            f"{type(self).__name__}(m={self.m}, n={self.n}, "
            f"phi={type(self._phi).__name__}, basis={basis})"
        )
