"""Greedy sparse-recovery solvers: OMP, CoSaMP and IHT.

Baselines for the solver-ablation bench, and OMP is the last link of
the resilience runtime's default fallback chain.  OMP extends a QR
factorisation of its support by one column per atom; CoSaMP re-fits a
least-squares problem on its merged support every iteration, so it
materialises the columns it touches; IHT is fully matrix-free and
scales like FISTA.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from ... import instrument
from ..operators import LinearOperator
from .base import (
    DivergenceGuard,
    SolveDeadline,
    SolverResult,
    finish_solve_span,
    hard_threshold,
    residual_norm,
)

__all__ = ["solve_omp", "solve_cosamp", "solve_iht"]

_DEPENDENT_RTOL = 1e-10
"""OMP ends at a column this close (relative) to its support's span."""


def _columns(operator: LinearOperator, support: np.ndarray) -> np.ndarray:
    """Extract the columns of ``A`` indexed by ``support`` (m x |S|).

    Operators with vectorised batched applies gather all columns with
    one ``matvec_batch`` over a stack of unit vectors (each slice runs
    the same per-vector arithmetic as the serial apply); the rest fall
    back to one ``matvec`` per column.
    """
    supports = getattr(operator, "supports_batch", None)
    if supports is not None and supports() and len(support) > 1:
        units = np.zeros((len(support), operator.n))
        units[np.arange(len(support)), support] = 1.0
        return operator.matvec_batch(units).T
    cols = np.zeros((operator.m, len(support)))
    unit = np.zeros(operator.n)
    for j, index in enumerate(support):
        unit[index] = 1.0
        cols[:, j] = operator.matvec(unit)
        unit[index] = 0.0
    return cols


def _ls_on_support(
    operator: LinearOperator, b: np.ndarray, support: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of ``b`` on the given support; returns (x, residual)."""
    x = np.zeros(operator.n)
    if len(support) == 0:
        return x, b.copy()
    cols = _columns(operator, support)
    coefficients, *_ = np.linalg.lstsq(cols, b, rcond=None)
    x[support] = coefficients
    return x, b - cols @ coefficients


def solve_omp(
    operator: LinearOperator,
    b: np.ndarray,
    sparsity: int,
    tolerance: float = 1e-9,
    time_limit_s: float | None = None,
) -> SolverResult:
    """Orthogonal Matching Pursuit: grow the support one atom at a time.

    The least-squares fit on the support is kept as a QR factorisation
    ``A[:, S] = Q R`` that grows with the support: each atom costs one
    adjoint apply (the correlations), one forward apply of a unit vector
    (the new column) and one Gram-Schmidt step run twice against ``Q``
    ("twice is enough" keeps ``Q`` orthonormal to working precision),
    i.e. ``O(|S| m)`` on top of the two applies.  The residual is
    updated by projecting out the new direction, and the coefficients
    come from one triangular solve ``R x_S = Q^T b`` after the loop
    ends, whatever ended it.

    Parameters
    ----------
    operator, b:
        Sensing operator and measurement vector.
    sparsity:
        Maximum number of atoms (the target sparsity ``K``); clipped to
        ``min(K, m, n)``.  One atom joins the support per iteration.
        The loop also ends, without adding it, at a column that is
        numerically dependent on the support (its distance from the
        span of ``Q`` at most ``1e-10`` of its norm).
    tolerance:
        Stop early once ``||residual||_2`` falls below this;
        ``converged`` additionally tolerates ``1e-6 * ||b||_2``
        (relative floor for well-scaled problems).
    time_limit_s:
        Optional wall-clock budget; on expiry the solve stops with the
        least-squares fit on the atoms selected so far and
        ``info['deadline']=True``.

    Returns
    -------
    SolverResult
        ``info['support_size']`` is the number of atoms in the final
        support; ``info['diverged']`` flags a non-finite residual
        (poisoned measurements).  When instrumentation is enabled the
        ``solver.omp`` span records the residual norm after each atom
        selection.
    """
    with instrument.span("solver.omp", m=operator.m, n=operator.n) as sp:
        b = np.asarray(b, dtype=float)
        if sparsity < 1:
            raise ValueError(f"sparsity must be >= 1, got {sparsity}")
        sparsity = min(sparsity, operator.m, operator.n)
        deadline = SolveDeadline(time_limit_s)
        support: list[int] = []
        # Row j of q is the j-th orthonormal direction; row j of r_t is
        # column j of R (so r_t is R transposed, lower triangular).
        q = np.zeros((sparsity, operator.m))
        r_t = np.zeros((sparsity, sparsity))
        q_t_b = np.zeros(sparsity)
        unit = np.zeros(operator.n)
        residual = b.copy()
        iteration = 0
        diverged = False
        for iteration in range(1, sparsity + 1):
            if not np.all(np.isfinite(residual)):
                diverged = True
                break
            if deadline.expired():
                break
            correlations = operator.rmatvec(residual)
            correlations[support] = 0.0
            best = int(np.argmax(np.abs(correlations)))
            unit[best] = 1.0
            column = operator.matvec(unit)
            unit[best] = 0.0
            k = len(support)
            basis = q[:k]
            projection = basis @ column
            direction = column - projection @ basis
            correction = basis @ direction
            direction -= correction @ basis
            length = np.linalg.norm(direction)
            if length <= _DEPENDENT_RTOL * np.linalg.norm(column):
                break
            q[k] = direction / length
            r_t[k, :k] = projection + correction
            r_t[k, k] = length
            q_t_b[k] = q[k] @ residual
            residual -= q_t_b[k] * q[k]
            support.append(best)
            if sp.active:
                sp.record(np.linalg.norm(residual))
            if np.linalg.norm(residual) <= tolerance:
                break
        x = np.zeros(operator.n)
        k = len(support)
        if k:
            x[support] = solve_triangular(
                r_t[:k, :k], q_t_b[:k], trans="T", lower=True,
                check_finite=False,
            )
        info = {"support_size": k}
        if diverged:
            info["diverged"] = True
        if deadline.expired_flag:
            info["deadline"] = True
        return finish_solve_span(sp, SolverResult(
            coefficients=x,
            iterations=iteration,
            converged=not diverged
            and bool(
                np.linalg.norm(residual)
                <= max(tolerance, 1e-6 * np.linalg.norm(b))
            ),
            residual=residual_norm(operator, x, b),
            solver="omp",
            info=info,
        ))


def solve_cosamp(
    operator: LinearOperator,
    b: np.ndarray,
    sparsity: int,
    max_iterations: int = 50,
    tolerance: float = 1e-7,
    time_limit_s: float | None = None,
) -> SolverResult:
    """Compressive Sampling Matching Pursuit (Needell & Tropp 2009).

    Parameters
    ----------
    operator, b:
        Sensing operator and measurement vector.
    sparsity:
        Target sparsity ``K``; clipped to ``min(K, m // 2, n)`` so the
        ``2K`` candidate set stays identifiable from ``m`` measurements.
    max_iterations, tolerance:
        Stop when the residual norm or the iterate change drops below
        ``tolerance``; ``converged`` is ``False`` at the iteration cap.
    time_limit_s:
        Optional wall-clock budget; on expiry the solve stops at the
        current iterate with ``info['deadline']=True``.

    Returns
    -------
    SolverResult
        ``info['sparsity']`` is the post-clipping target sparsity;
        ``info['diverged']`` flags a non-finite residual.
        When instrumentation is enabled the ``solver.cosamp`` span
        records the per-iteration residual-norm trajectory.
    """
    with instrument.span("solver.cosamp", m=operator.m, n=operator.n) as sp:
        b = np.asarray(b, dtype=float)
        if sparsity < 1:
            raise ValueError(f"sparsity must be >= 1, got {sparsity}")
        sparsity = min(sparsity, operator.m // 2 if operator.m >= 2 else 1, operator.n)
        sparsity = max(sparsity, 1)
        deadline = SolveDeadline(time_limit_s)
        x = np.zeros(operator.n)
        residual = b.copy()
        converged = False
        iteration = 0
        diverged = False
        for iteration in range(1, max_iterations + 1):
            if not np.all(np.isfinite(residual)):
                diverged = True
                break
            if deadline.expired():
                break
            proxy = operator.rmatvec(residual)
            candidates = np.argpartition(np.abs(proxy), -2 * sparsity)[-2 * sparsity:]
            merged = np.union1d(candidates, np.nonzero(x)[0])
            ls_fit, _ = _ls_on_support(operator, b, merged.astype(int))
            x_next = hard_threshold(ls_fit, sparsity)
            residual = b - operator.matvec(x_next)
            change = np.linalg.norm(x_next - x)
            x = x_next
            if sp.active:
                sp.record(np.linalg.norm(residual))
            if np.linalg.norm(residual) <= tolerance or change <= tolerance:
                converged = True
                break
        info = {"sparsity": sparsity}
        if diverged:
            info["diverged"] = True
        if deadline.expired_flag:
            info["deadline"] = True
        return finish_solve_span(sp, SolverResult(
            coefficients=x,
            iterations=iteration,
            converged=converged,
            residual=residual_norm(operator, x, b),
            solver="cosamp",
            info=info,
        ))


def solve_iht(
    operator: LinearOperator,
    b: np.ndarray,
    sparsity: int,
    step: float | None = None,
    max_iterations: int = 300,
    tolerance: float = 1e-7,
    time_limit_s: float | None = None,
) -> SolverResult:
    """Iterative Hard Thresholding (Blumensath & Davies 2009).

    Fully matrix-free: each iteration is one forward and one adjoint
    apply plus a hard threshold onto the best ``sparsity`` atoms.

    Parameters
    ----------
    operator, b:
        Sensing operator and measurement vector.
    sparsity:
        Target sparsity ``K`` (atoms kept by the hard threshold).
    step:
        Gradient step; defaults to ``1 / ||A||_2^2``.
    max_iterations, tolerance:
        Stop when the relative iterate change drops below ``tolerance``;
        ``converged`` is ``False`` when the iteration cap is hit first.
    time_limit_s:
        Optional wall-clock budget; on expiry the solve stops at the
        current iterate with ``converged=False`` and
        ``info['deadline']=True``.

    Returns
    -------
    SolverResult
        ``info`` carries ``sparsity`` and ``step``, plus
        ``diverged``/``deadline`` flags when the divergence guard or
        time budget stopped the solve early.  When instrumentation is
        enabled the ``solver.iht`` span records the per-iteration
        residual-norm trajectory.
    """
    with instrument.span("solver.iht", m=operator.m, n=operator.n) as sp:
        b = np.asarray(b, dtype=float)
        if sparsity < 1:
            raise ValueError(f"sparsity must be >= 1, got {sparsity}")
        if step is None:
            sigma = operator.spectral_norm()
            step = 1.0 if sigma == 0.0 else 1.0 / (sigma * sigma)
        guard = DivergenceGuard()
        deadline = SolveDeadline(time_limit_s)
        x = np.zeros(operator.n)
        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            residual_vec = operator.matvec(x) - b
            residual_now = np.linalg.norm(residual_vec)
            if sp.active:
                sp.record(residual_now)
            if guard.diverged(residual_now) or deadline.expired():
                break
            gradient = operator.rmatvec(residual_vec)
            x_next = hard_threshold(x - step * gradient, sparsity)
            change = np.linalg.norm(x_next - x)
            x = x_next
            if change <= tolerance * max(1.0, np.linalg.norm(x)):
                converged = True
                break
        info = {"sparsity": sparsity, "step": step}
        if guard.tripped:
            info["diverged"] = True
        if deadline.expired_flag:
            info["deadline"] = True
        return finish_solve_span(sp, SolverResult(
            coefficients=x,
            iterations=iteration,
            converged=converged,
            residual=residual_norm(operator, x, b),
            solver="iht",
            info=info,
        ))
