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
    return _lambda_from(operator.rmatvec(b))


def _lambda_from(atb: np.ndarray) -> float:
    """:func:`default_lambda` from an already computed ``A^T b``."""
    scale = float(np.max(np.abs(atb)))
    if scale == 0.0:
        return 1e-12
    return 1e-3 * scale


def _check_measurements(operator: LinearOperator, b: np.ndarray) -> np.ndarray:
    """``b`` as a float vector of length ``m``, else ``ValueError``."""
    b = np.asarray(b, dtype=float)
    if b.shape != (operator.m,):
        raise ValueError(
            f"measurement vector shape {b.shape} does not match m={operator.m}"
        )
    return b


def _prepare(
    operator: LinearOperator,
    b: np.ndarray,
    lam: float | None,
    step: float | None,
) -> tuple[np.ndarray, float, float]:
    b = _check_measurements(operator, b)
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

    Step rules
    ----------
    *Fixed step* -- when ``step`` is passed, or the operator carries a
    spectral-norm hint (every row-sampling code under an orthonormal
    basis, so the paper's encoder): every iteration steps ``step``,
    by default ``1 / ||A||_2^2`` from the hint.  Each iteration makes
    one ``A z`` and one ``A^T`` apply.

    *Backtracking* -- when no step is passed and the operator states no
    norm (dense and block codes, any basis registered without
    ``orthonormal``), the solve finds its own step (Beck & Teboulle,
    SIAM J. Imaging Sci. 2(1), 2009, Sec. 4) and never runs
    :meth:`~repro.core.operators.LinearOperator.spectral_norm`'s
    power iteration.  The curvature estimate ``L`` starts at
    ``||A^T b||^2 / ||b||^2`` (``A^T b`` is the first gradient, and the
    ``A^T b`` :func:`default_lambda` needs), is multiplied by
    ``_SHRINK`` after each iteration and by ``_GROW`` until the step
    ``x+ = prox(z - grad / L)`` meets the quadratic upper bound
    ``f(x+) <= f(z) + <grad, x+ - z> + L/2 ||x+ - z||^2`` of
    ``f = ||A x - b||^2 / 2`` -- for this ``f`` exactly
    ``||A (x+ - z)|| <= sqrt(L) ||x+ - z||``, the form tested, free of
    the cancellation between the two sides' large terms.  Letting ``L``
    fall as well as rise borrows the step increases of Scheinberg,
    Goldfarb & Bai, Found. Comput. Math. 14, 2014, so the step tracks
    the local curvature, which sits below ``||A||_2^2``.  Their
    momentum is not taken: they rescale the ``t`` update by
    ``L_k / L_{k+1}``, and Beck and Teboulle's ``O(1/k^2)`` bound needs
    an ``L`` that never falls, while this loop keeps the plain ``t``
    sequence.  A falling ``L`` with plain ``t`` is a heuristic with no
    convergence proof: gradient restart (which resets ``t`` when a
    longer step overshoots), the divergence guard and the iteration
    cap contain it, and the measured frames below are its only check.
    ``A z`` is the momentum combination of the
    kept ``A x_{k+1}`` and ``A x_k``, so an iteration makes one ``A x+``
    apply per trial and one ``A^T`` apply: ``2 * iterations +
    backtracks`` applies per converged solve, with ``residual`` taken
    from the last ``A x``.  A trial count of ``_MAX_TRIALS`` in one
    iteration ends the solve as ``diverged``.

    The constants were measured on 20 thermal 32x32 frames per family
    at 50 % sampling: mean applies per frame, and the range of each
    frame's RMSE change against a ``tolerance=1e-7`` solve of the same
    problem (negative: closer to the frame than that solve).  The
    chosen pair is the cheapest whose worst frame loses no more
    accuracy than the fixed step's worst (+0.57 %), and its mean RMSE
    is the fixed step's (-0.05 % dense, -0.19 % block).  One dense
    frame reads -1.54 %, beyond 1.5 % on the closer side, as the fixed
    step's worst block frame (-1.62 %) is; only 0.9 / 1.5 and 0.7 / 2
    keep every frame within 1.5 % either way, at 11-20 % more applies.
    No frame took more than 3 trials in one iteration, far below
    ``_MAX_TRIALS``.

    =======================  =====  =====  ==============  ==============
    ``_SHRINK`` / ``_GROW``  dense  block  dense dRMSE %   block dRMSE %
    =======================  =====  =====  ==============  ==============
    0.9 / 2 (chosen)         206    210    -1.54 .. +0.22  -1.43 .. +0.28
    0.95 / 2                 192    198    -1.13 .. +0.46  -1.70 .. +0.63
    0.9 / 3                  191    196    -1.27 .. +0.27  -1.60 .. +1.55
    0.8 / 2                  228    211    -1.13 .. +0.41  -1.57 .. +0.28
    0.7 / 2                  248    237    -1.23 .. +0.43  -1.13 .. +0.55
    0.9 / 1.5                240    234    -0.83 .. +0.24  -1.43 .. +0.21
    1 / 1.5 (monotone L)     254    261    -1.55 .. +0.44  -1.56 .. +0.54
    1 / 2 (monotone L)       286    286    -1.36 .. +0.70  -1.61 .. +0.81
    fixed ``1 / sigma^2``    347    349    -1.33 .. +0.52  -1.62 .. +0.57
    =======================  =====  =====  ==============  ==============

    The last row is the fixed-step loop after the 60-apply power
    iteration, which is what these codes ran before backtracking.

    Parameters
    ----------
    step:
        A fixed gradient step; ``None`` picks the step rule above.
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
        ``info`` carries ``lambda``, ``step`` (the last accepted step)
        and ``restarts`` (the number of momentum resets), ``backtracks``
        (rejected trials) when the step was backtracked, plus
        ``diverged``/``deadline`` flags when the divergence guard, the
        trial cap or the time budget stopped the solve early.  When
        instrumentation is enabled the ``solver.fista`` span records
        the per-iteration residual-norm trajectory.
    """
    with instrument.span("solver.fista", m=operator.m, n=operator.n) as sp:
        if step is None and operator.spectral_norm_hint is None:
            return finish_solve_span(sp, _fista_backtracking(
                operator, b, lam, max_iterations, tolerance, time_limit_s, sp
            ))
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


#: Backtracking FISTA's curvature factors and trial cap (the table in
#: :func:`solve_fista`'s docstring).  For ``b`` in ``A``'s range the
#: starting estimate is at least the smallest nonzero ``sigma(A)^2``, so
#: ``_MAX_TRIALS`` doublings (a factor ``2**60 ~ 1e18``) reach
#: ``||A||_2^2`` on any code whose condition number is below ``1e9``.
_SHRINK = 0.9
_GROW = 2.0
_MAX_TRIALS = 60


def _fista_backtracking(
    operator: LinearOperator,
    b: np.ndarray,
    lam: float | None,
    max_iterations: int,
    tolerance: float,
    time_limit_s: float | None,
    sp,
) -> SolverResult:
    """:func:`solve_fista` with the backtracked step (see its docstring)."""
    b = _check_measurements(operator, b)
    atb = operator.rmatvec(b)
    lam = _lambda_from(atb) if lam is None else float(lam)
    b_norm = l2_norm(b)
    ratio = l2_norm(atb) / b_norm if b_norm > 0.0 else 0.0
    # A Rayleigh quotient of A A^T, so at most ||A||_2^2; 0 when
    # A^T b = 0 (x = 0 is then optimal) and NaN on NaN data.
    lipschitz = ratio * ratio if ratio > 0.0 else 1.0
    step = 1.0 / lipschitz
    guard = DivergenceGuard()
    deadline = SolveDeadline(time_limit_s)
    x = z = np.zeros(operator.n)
    ax = az = np.zeros(operator.m)
    t = 1.0
    restarts = backtracks = 0
    converged = exhausted = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        residual_vec = az - b
        residual_now = l2_norm(residual_vec)
        if sp.active:
            sp.record(residual_now)
        if guard.diverged(residual_now) or deadline.expired():
            break
        gradient = -atb if iteration == 1 else operator.rmatvec(residual_vec)
        for _ in range(_MAX_TRIALS):
            trial = 1.0 / lipschitz
            x_next = soft_threshold(z - trial * gradient, trial * lam)
            ax_next = operator.matvec(x_next)
            if l2_norm(ax_next - az) <= math.sqrt(lipschitz) * l2_norm(
                x_next - z
            ):
                break
            lipschitz *= _GROW
            backtracks += 1
        else:
            exhausted = True
            break
        step = trial
        step_taken = x_next - x
        if (z - x_next).dot(step_taken) > 0.0:
            t = 1.0
            restarts += 1
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        z = x_next + momentum * step_taken
        az = ax_next + momentum * (ax_next - ax)
        x, ax, t = x_next, ax_next, t_next
        lipschitz *= _SHRINK
        if l2_norm(step_taken) <= tolerance * max(1.0, l2_norm(x)):
            converged = True
            break
    info = {
        "lambda": lam, "step": step, "restarts": restarts,
        "backtracks": backtracks,
    }
    if guard.tripped or exhausted:
        info["diverged"] = True
    if deadline.expired_flag:
        info["deadline"] = True
    return SolverResult(
        coefficients=x,
        iterations=iteration,
        converged=converged,
        residual=l2_norm(ax - b),
        solver="fista",
        info=info,
    )
