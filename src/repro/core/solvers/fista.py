"""ISTA and FISTA solvers for basis-pursuit denoising (BPDN / LASSO).

These are the workhorse decoders for the big Fig. 6 sweeps: they only
touch ``A`` through matrix-vector products, so with the row-sampling +
fast-DCT operator every iteration costs ``O(N log N)``.

They solve the unconstrained relaxation of Eq. (9)

    minimize  0.5 * ||A x - b||_2^2 + lam * ||x||_1

which coincides with the equality-constrained problem as ``lam -> 0``
(for noiseless data) and is the right formulation when the measurements
carry noise ``eps`` (Eq. 2's measurement-error term).
"""

from __future__ import annotations

import math

import numpy as np

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

__all__ = [
    "solve_ista",
    "solve_fista",
    "default_lambda",
]


def default_lambda(operator: LinearOperator, b: np.ndarray) -> float:
    """Heuristic regularisation weight: a small fraction of ``||A^T b||_inf``.

    ``||A^T b||_inf`` is the smallest ``lam`` for which the BPDN solution
    is identically zero; scaling it down by 1000x keeps the data term
    dominant (the Fig. 6 sweeps are nearly noiseless) while still
    promoting sparsity.
    """
    scale = float(np.max(np.abs(operator.rmatvec(b))))
    if scale == 0.0:
        return 1e-12
    return 1e-3 * scale


def _prepare(
    operator: LinearOperator,
    b: np.ndarray,
    lam: float | None,
    step: float | None,
) -> tuple[np.ndarray, float, float]:
    b = np.asarray(b, dtype=float)
    if b.shape != (operator.m,):
        raise ValueError(
            f"measurement vector shape {b.shape} does not match m={operator.m}"
        )
    if lam is None:
        lam = default_lambda(operator, b)
    if step is None:
        sigma = operator.spectral_norm()
        step = 1.0 if sigma == 0.0 else 1.0 / (sigma * sigma)
    return b, float(lam), float(step)


def solve_ista(
    operator: LinearOperator,
    b: np.ndarray,
    lam: float | None = None,
    step: float | None = None,
    max_iterations: int = 500,
    tolerance: float = 1e-7,
    time_limit_s: float | None = None,
) -> SolverResult:
    """Proximal gradient descent (ISTA) for BPDN.

    Parameters
    ----------
    operator, b:
        Sensing operator and measurements.
    lam:
        L1 weight; defaults to :func:`default_lambda`.
    step:
        Gradient step; defaults to ``1 / ||A||_2^2`` (guaranteed descent).
    max_iterations, tolerance:
        Stop when the relative iterate change drops below ``tolerance``,
        i.e. ``||x_{k+1} - x_k|| <= tolerance * max(1, ||x_{k+1}||)``;
        ``converged`` is ``False`` when the iteration cap is hit first.
    time_limit_s:
        Optional wall-clock budget; on expiry the solve stops at the
        current iterate with ``converged=False`` and
        ``info['deadline']=True``.

    Returns
    -------
    SolverResult
        ``info`` carries ``lambda`` and ``step`` (see
        :class:`~repro.core.solvers.base.SolverResult`), plus
        ``diverged``/``deadline`` flags when the divergence guard or
        time budget stopped the solve early.  When instrumentation is
        enabled the ``solver.ista`` span records the per-iteration
        residual-norm trajectory.
    """
    with instrument.span("solver.ista", m=operator.m, n=operator.n) as sp:
        b, lam, step = _prepare(operator, b, lam, step)
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
            x_next = soft_threshold(x - step * gradient, step * lam)
            change = np.linalg.norm(x_next - x)
            x = x_next
            if change <= tolerance * max(1.0, np.linalg.norm(x)):
                converged = True
                break
        info = {"lambda": lam, "step": step}
        if guard.tripped:
            info["diverged"] = True
        if deadline.expired_flag:
            info["deadline"] = True
        return finish_solve_span(sp, SolverResult(
            coefficients=x,
            iterations=iteration,
            converged=converged,
            residual=residual_norm(operator, x, b),
            solver="ista",
            info=info,
        ))


def solve_fista(
    operator: LinearOperator,
    b: np.ndarray,
    lam: float | None = None,
    step: float | None = None,
    max_iterations: int = 400,
    tolerance: float = 1e-4,
    time_limit_s: float | None = None,
) -> SolverResult:
    """Accelerated proximal gradient (FISTA, Beck & Teboulle 2009).

    Same problem as :func:`solve_ista` but with Nesterov momentum
    (``O(1/k^2)`` objective error) and adaptive gradient restart
    (O'Donoghue & Candes 2015): whenever the momentum step points
    uphill, ``(z_k - x_{k+1}) . (x_{k+1} - x_k) > 0`` for the
    extrapolated point ``z_k``, the momentum resets (``t = 1``).
    Restart keeps the accelerated rate while the iterate is far from
    the optimum and stops the oscillation momentum causes near it, so
    the solve reaches a given BPDN objective in fewer iterations than
    plain FISTA.  This is the default decoder for the paper's
    experiments.

    Parameters
    ----------
    max_iterations, tolerance:
        Iteration cap for the whole solve, and the relative-change
        stopping rule of :func:`solve_ista`.  The default ``1e-4`` is
        the loosest tolerance that keeps every smoke-suite cell's RMSE
        within 1 % of a ``1e-7`` solve (measured curve in
        ``docs/ENGINE.md``, "Stopping rule"): by Eq. 2 the recovery
        error is bounded by the measurement-noise term, so iterating
        the iterate change below that scale buys no accuracy, and it
        costs about 2x the iterations.
    time_limit_s:
        Optional wall-clock budget; on expiry the solve stops at the
        current iterate with ``converged=False`` and
        ``info['deadline']=True``.

    Returns
    -------
    SolverResult
        ``info`` carries ``lambda``, ``step`` and ``restarts`` (the
        number of momentum resets), plus ``diverged``/``deadline``
        flags when the divergence guard or time budget stopped the
        solve early.  When instrumentation is enabled the
        ``solver.fista`` span records the per-iteration residual-norm
        trajectory.
    """
    with instrument.span("solver.fista", m=operator.m, n=operator.n) as sp:
        b, lam, step = _prepare(operator, b, lam, step)
        guard = DivergenceGuard()
        deadline = SolveDeadline(time_limit_s)
        x = np.zeros(operator.n)
        z = x
        t = 1.0
        restarts = 0
        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            residual_vec = operator.matvec(z) - b
            residual_now = l2_norm(residual_vec)
            if sp.active:
                sp.record(residual_now)
            if guard.diverged(residual_now) or deadline.expired():
                break
            gradient = operator.rmatvec(residual_vec)
            x_next = soft_threshold(z - step * gradient, step * lam)
            step_taken = x_next - x
            if (z - x_next).dot(step_taken) > 0.0:
                t = 1.0
                restarts += 1
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            z = x_next + ((t - 1.0) / t_next) * step_taken
            x, t = x_next, t_next
            if l2_norm(step_taken) <= tolerance * max(1.0, l2_norm(x)):
                converged = True
                break
        info = {"lambda": lam, "step": step, "restarts": restarts}
        if guard.tripped:
            info["diverged"] = True
        if deadline.expired_flag:
            info["deadline"] = True
        return finish_solve_span(sp, SolverResult(
            coefficients=x,
            iterations=iteration,
            converged=converged,
            residual=residual_norm(operator, x, b),
            solver="fista",
            info=info,
        ))
