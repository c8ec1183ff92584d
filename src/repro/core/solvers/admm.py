"""Douglas-Rachford splitting for *exact* basis pursuit.

FISTA solves the noiseless Eq. (9) only in the ``lam -> 0`` limit; the
LP solves it exactly but needs the dense matrix.  Douglas-Rachford
splitting gets both: it solves

    minimize ||x||_1   subject to   A x = b

by alternating the L1 proximal map (soft threshold) with the exact
projection onto the affine constraint set ``{x : A x = b}``,

    P(x) = x + A^T (A A^T)^{-1} (b - A x).

For the paper's encoder the projection is *free*: with ``Phi_M`` made
of identity rows and ``Psi`` orthonormal, ``A A^T = I`` exactly, so
``P(x) = x + A^T (b - A x)`` -- one forward and one adjoint apply.  For
any other operator ``A A^T`` is formed once per solve from ``m``
adjoint applies and Cholesky-factored, so each projection costs the
same two applies plus two ``m x m`` triangular solves, whatever ``Psi``
is.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ... import instrument
from ..operators import LinearOperator
from .base import (
    DivergenceGuard,
    SolveDeadline,
    SolverResult,
    finish_solve_span,
    l2_norm,
    residual_norm,
    soft_threshold,
)

__all__ = ["solve_bp_dr"]


_MIN_PIVOT_RATIO = float(np.sqrt(np.finfo(float).eps))
"""Smallest accepted min/max squared Cholesky pivot of ``A A^T``.

Full-rank 50 % dense and block codes read >= 0.29 at 16x16 and 32x32
(20 draws each); 16x16 dense codes whose exclusions leave 127 live
columns for 128 rows read <= 1.1e-11 when they factor at all.
"""


def _make_projector(operator: LinearOperator, b: np.ndarray):
    """Projection onto {x : A x = b}, closed form when A A^T == I.

    Otherwise ``A A^T`` is formed from ``m`` adjoint applies (row ``j``
    of ``A`` is ``A^T e_j``) and Cholesky-factored once.  A numerically
    rank-deficient ``A A^T`` -- e.g. exclusions that leave fewer live
    columns than measurements -- raises ``ValueError`` instead of
    iterating on an ill-posed projection.
    """
    rng = np.random.default_rng(0)
    probe = rng.normal(size=operator.m)
    gram_probe = operator.matvec(operator.rmatvec(probe))
    tight_frame = np.allclose(gram_probe, probe, atol=1e-10)
    if tight_frame:

        def project(x: np.ndarray) -> np.ndarray:
            return x + operator.rmatvec(b - operator.matvec(x))

        return project, True

    rows = np.empty((operator.m, operator.n))
    unit = np.zeros(operator.m)
    for j in range(operator.m):
        unit[j] = 1.0
        rows[j] = operator.rmatvec(unit)
        unit[j] = 0.0
    try:
        factor = cho_factor(rows @ rows.T)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"A A^T is numerically rank-deficient ({exc})") from exc
    pivots = np.diag(factor[0]) ** 2
    ratio = pivots.min() / pivots.max()
    if not ratio >= _MIN_PIVOT_RATIO:
        raise ValueError(
            f"A A^T is numerically rank-deficient (min/max squared "
            f"Cholesky pivot {ratio:.1e}); the code has fewer "
            "independent measurements than rows"
        )

    def project(x: np.ndarray) -> np.ndarray:
        residual = b - operator.matvec(x)
        return x + operator.rmatvec(cho_solve(factor, residual))

    return project, False


def solve_bp_dr(
    operator: LinearOperator,
    b: np.ndarray,
    gamma: float | None = None,
    max_iterations: int = 1000,
    tolerance: float = 1e-4,
    time_limit_s: float | None = None,
) -> SolverResult:
    """Solve Eq. (9) exactly by Douglas-Rachford splitting.

    Parameters
    ----------
    operator, b:
        Sensing operator ``A = Phi_M @ Psi`` and measurements.
    gamma:
        Proximal step, the soft-threshold level (any positive value
        converges).  Defaults to ``1e-2 * ||A^T b||_inf``, so it scales
        with the frame's coefficients (``0.1`` for an all-zero ``b``).
    max_iterations, tolerance:
        Stop when the relative iterate change of the auxiliary variable
        ``z`` falls below ``tolerance``, i.e. ``||z_{k+1} - z_k|| <=
        tolerance * max(1, ||z_{k+1}||)``; ``converged`` is ``False``
        when the iteration cap is hit first.  The default ``1e-4`` is
        FISTA's, for the same Eq. 2 reason: iterating past the frame's
        compressibility and noise scale buys no accuracy.  On 32x32
        frames it stops after about 180-320 iterations (measured curve
        in ``docs/ENGINE.md``, "Stopping rule").  Recovering a sparse
        vector exactly, to ~1e-7, needs a tight tolerance passed
        explicitly (``tolerance=1e-9``).
    time_limit_s:
        Optional wall-clock budget; on expiry the solve stops at the
        current iterate with ``converged=False`` and
        ``info['deadline']=True``.  A divergence guard likewise stops
        runs whose iterates go non-finite (``info['diverged']=True``).

    Returns
    -------
    SolverResult
        ``info['gamma']`` is the proximal step used;
        ``info['tight_frame']`` records whether the closed-form
        projection (the hardware-encoder case) was available; otherwise
        the projection uses one Cholesky factorisation of ``A A^T``.  When
        instrumentation is enabled the ``solver.bp_dr`` span records
        the per-iteration relative-change trajectory (the solver's own
        stopping quantity; the L1 iterate is infeasible until the final
        projection, so the residual is not meaningful mid-run).

    Raises
    ------
    ValueError
        For a mismatched ``b``, a non-positive ``gamma``, or an
        ``A A^T`` that is numerically rank-deficient (checked before
        the first iteration).
    """
    with instrument.span("solver.bp_dr", m=operator.m, n=operator.n) as sp:
        b = np.asarray(b, dtype=float)
        if b.shape != (operator.m,):
            raise ValueError(
                f"measurement vector shape {b.shape} does not match m={operator.m}"
            )
        if gamma is None:
            gamma = 1e-2 * float(np.max(np.abs(operator.rmatvec(b))))
            if gamma == 0.0:
                gamma = 0.1
        elif gamma <= 0:
            raise ValueError("gamma must be positive")
        project, tight_frame = _make_projector(operator, b)
        guard = DivergenceGuard()
        deadline = SolveDeadline(time_limit_s)
        # Start from the minimum-norm interpolant (already feasible).
        z = project(np.zeros(operator.n))
        z_norm = l2_norm(z)
        x = z.copy()
        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            if guard.diverged(z_norm) or deadline.expired():
                break
            x = soft_threshold(z, gamma)
            reflected = project(2.0 * x - z)
            z_next = z + reflected - x
            change = l2_norm(z_next - z)
            z = z_next
            z_norm = l2_norm(z)
            if sp.active:
                sp.record(change / max(1.0, z_norm))
            if change <= tolerance * max(1.0, z_norm):
                converged = True
                break
        # The constraint-feasible iterate is the projection of the final x.
        x = project(soft_threshold(z, gamma))
        info = {"gamma": gamma, "tight_frame": tight_frame}
        if guard.tripped:
            info["diverged"] = True
        if deadline.expired_flag:
            info["deadline"] = True
        return finish_solve_span(sp, SolverResult(
            coefficients=x,
            iterations=iteration,
            converged=converged,
            residual=residual_norm(operator, x, b),
            solver="bp_dr",
            info=info,
        ))
