"""Common interfaces for the CS recovery solvers.

All solvers take the :class:`~repro.core.operators.LinearOperator`
``A = Phi_M @ Psi`` and the measurement vector ``b = Phi_M @ y`` and
return an estimate of the sparse coefficient vector ``x`` solving (or
approximating) the paper's Eq. (9)::

    minimize ||x||_1  subject to  A x = b
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ... import instrument
from ..operators import LinearOperator

__all__ = [
    "SolverResult",
    "DivergenceGuard",
    "SolveDeadline",
    "finish_solve_span",
    "soft_threshold",
    "hard_threshold",
    "l2_norm",
    "residual_norm",
]


@dataclass
class SolverResult:
    """Outcome of a sparse-recovery solve.

    Attributes
    ----------
    coefficients:
        Recovered coefficient vector ``x_cs`` (length ``n``).
    iterations:
        Number of iterations the solver ran.
    converged:
        Whether the solver's own stopping criterion was met (as opposed
        to hitting the iteration cap).
    residual:
        Final ``||A x - b||_2``.
    solver:
        Name of the solver that produced this result.
    info:
        Solver-specific diagnostics.  Keys by solver:

        ================  ==============================================
        solver            ``info`` keys
        ================  ==============================================
        ``basis_pursuit`` ``status`` -- the HiGHS LP status message
        ``bp_dr``         ``gamma`` -- proximal step used;
                          ``tight_frame`` -- whether the closed-form
                          affine projection (``A A^T = I``) applied
        ``ista``          ``lambda`` -- L1 weight; ``step`` -- gradient
                          step size
        ``fista``         ``lambda``, ``step`` -- as for ``ista``;
                          ``restarts`` -- momentum resets by gradient
                          restart
        ``omp``           ``support_size`` -- atoms in the final support
        ``cosamp``        ``sparsity`` -- target sparsity after clipping
                          to ``min(K, m // 2, n)``
        ``iht``           ``sparsity`` -- target sparsity; ``step`` --
                          gradient step size
        ================  ==============================================
    """

    coefficients: np.ndarray
    iterations: int
    converged: bool
    residual: float
    solver: str
    info: dict = field(default_factory=dict)


class DivergenceGuard:
    """Detect a diverging iterative solve from its residual trajectory.

    The iterative solvers (ISTA/FISTA/IHT/Douglas-Rachford) are only
    guaranteed to descend for well-conditioned steps; a poisoned
    measurement vector (NaN/Inf), an injected fault, or a pathological
    operator can send the iterates off to infinity instead.  The guard
    watches one scalar per iteration (the residual norm, or any
    monotone-ish progress measure) and trips when the value goes
    non-finite or blows past ``blowup_factor`` times its starting level.

    Solvers break out of their loop when :meth:`diverged` returns
    ``True`` and report ``converged=False`` with ``info['diverged']``
    set, so the failure is contained rather than a 400-iteration NaN
    churn.

    Parameters
    ----------
    blowup_factor:
        How far above the first observed value the measure may grow
        before the solve is declared divergent.
    """

    __slots__ = ("blowup_factor", "baseline", "tripped")

    def __init__(self, blowup_factor: float = 1e6):
        self.blowup_factor = float(blowup_factor)
        self.baseline: float | None = None
        self.tripped = False

    def diverged(self, value: float) -> bool:
        """Feed one iteration's progress measure; ``True`` trips the guard."""
        value = float(value)
        if not math.isfinite(value):
            self.tripped = True
            return True
        if self.baseline is None:
            self.baseline = max(value, 1.0)
            return False
        if value > self.blowup_factor * self.baseline:
            self.tripped = True
            return True
        return False


class SolveDeadline:
    """Wall-clock budget for one solve (``None`` disables the check).

    Iterative solvers consult :meth:`expired` once per iteration; when
    the budget runs out they stop where they are and report
    ``converged=False`` with ``info['deadline']`` set.  This is the
    enforcement half of the resilience runtime's per-solver time
    budgets.
    """

    __slots__ = ("limit_s", "_start", "expired_flag")

    def __init__(self, limit_s: float | None = None):
        if limit_s is not None and limit_s <= 0:
            raise ValueError(f"time_limit_s must be positive, got {limit_s}")
        self.limit_s = limit_s
        self._start = time.perf_counter()
        self.expired_flag = False

    def expired(self) -> bool:
        """Whether the budget has been exhausted (sticky once ``True``)."""
        if self.limit_s is None:
            return False
        if not self.expired_flag:
            self.expired_flag = (
                time.perf_counter() - self._start >= self.limit_s
            )
        return self.expired_flag


def soft_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-thresholding (proximal operator of ``threshold * ||.||_1``)."""
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def hard_threshold(x: np.ndarray, k: int) -> np.ndarray:
    """Keep the ``k`` largest-magnitude entries of ``x``, zero the rest."""
    if k <= 0:
        return np.zeros_like(x)
    if k >= len(x):
        return x.copy()
    out = np.zeros_like(x)
    keep = np.argpartition(np.abs(x), -k)[-k:]
    out[keep] = x[keep]
    return out


def l2_norm(v: np.ndarray) -> float:
    """``||v||_2`` of a 1-D float vector, the value ``np.linalg.norm`` gives.

    ``np.linalg.norm`` computes ``sqrt(v.dot(v))`` for such a vector
    after per-call dtype and axis checks; the iterative solvers call
    this a few times per iteration, so they skip the checks.
    """
    return math.sqrt(v.dot(v))


def residual_norm(
    operator: LinearOperator, x: np.ndarray, b: np.ndarray
) -> float:
    """``||A x - b||_2`` for reporting in :class:`SolverResult`."""
    return l2_norm(operator.matvec(x) - b)


def finish_solve_span(span, result: SolverResult) -> SolverResult:
    """Publish a finished solve to the instrumentation layer.

    Attaches the :class:`SolverResult` diagnostics (iterations,
    convergence flag, final residual, scalar ``info`` entries) to the
    enclosing ``solver.*`` span and feeds the per-solver call counter
    and iteration/residual histograms.  A non-finite residual (a
    diverged or poisoned solve) stays out of the residual histogram,
    whose total would otherwise read NaN for the rest of the session.
    A no-op when instrumentation is disabled (``span`` is then the null
    span), so solvers can call it unconditionally.  Returns ``result``
    for use in return statements.
    """
    if span.active:
        span.set(
            solver=result.solver,
            iterations=result.iterations,
            converged=result.converged,
            residual=result.residual,
            **{
                key: value
                for key, value in result.info.items()
                if isinstance(value, (bool, int, float, str))
            },
        )
        instrument.incr(f"solver.{result.solver}.calls")
        instrument.observe(f"solver.{result.solver}.iterations", result.iterations)
        if math.isfinite(result.residual):
            instrument.observe(f"solver.{result.solver}.residual", result.residual)
        if not result.converged:
            instrument.incr(f"solver.{result.solver}.nonconverged")
        if result.info.get("diverged"):
            instrument.incr(f"solver.{result.solver}.diverged")
        if result.info.get("deadline"):
            instrument.incr(f"solver.{result.solver}.deadline_expired")
    return result
