"""Sparse-recovery solvers for the silicon-side CS decoder (Eq. 9).

The registry in :func:`solve` lets the pipeline and the ablation benches
pick a decoder by name:

=========  ====================================================  ===========
name       algorithm                                             scaling
=========  ====================================================  ===========
``bp``     basis pursuit via linear programming (reference)      dense LP
``bp_dr``  basis pursuit via Douglas-Rachford splitting          matrix-free
``ista``   proximal gradient on BPDN                             matrix-free
``fista``  accelerated proximal gradient on BPDN (default)       matrix-free
``omp``    orthogonal matching pursuit                           QR per atom
``cosamp`` CoSaMP                                                LS per iter
``iht``    iterative hard thresholding                           matrix-free
=========  ====================================================  ===========
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ... import instrument
from ..operators import LinearOperator
from .admm import solve_bp_dr
from .base import (
    DivergenceGuard,
    SolveDeadline,
    SolverResult,
    hard_threshold,
    soft_threshold,
)
from .basis_pursuit import solve_basis_pursuit
from .debias import debias_on_support
from .fista import default_lambda, solve_fista, solve_ista
from .greedy import solve_cosamp, solve_iht, solve_omp

__all__ = [
    "SolverResult",
    "DivergenceGuard",
    "SolveDeadline",
    "solve",
    "solve_batch",
    "solver_names",
    "solve_basis_pursuit",
    "solve_bp_dr",
    "solve_ista",
    "solve_fista",
    "solve_omp",
    "solve_cosamp",
    "solve_iht",
    "debias_on_support",
    "soft_threshold",
    "hard_threshold",
    "default_lambda",
    "register_solve_hook",
    "unregister_solve_hook",
    "solve_hooks",
]

_GRADIENT_SOLVERS: dict[str, Callable[..., SolverResult]] = {
    "ista": solve_ista,
    "fista": solve_fista,
}
_GREEDY_SOLVERS: dict[str, Callable[..., SolverResult]] = {
    "omp": solve_omp,
    "cosamp": solve_cosamp,
    "iht": solve_iht,
}


def solver_names() -> tuple[str, ...]:
    """All registered solver names."""
    return ("bp", "bp_dr", *_GRADIENT_SOLVERS, *_GREEDY_SOLVERS)


_SOLVE_HOOKS: list = []


def register_solve_hook(hook) -> None:
    """Install a fault/observation hook around every :func:`solve`.

    A hook is any object exposing (either or both of)

    * ``before_solve(name, operator, b) -> b`` -- called before
      dispatch; may return a *replacement* measurement vector, or raise
      to abort the solve (this is how chaos injectors simulate solver
      crashes and measurement corruption);
    * ``after_solve(name, result) -> result`` -- called after dispatch;
      may return a replacement :class:`SolverResult` (divergence
      injection, budget-exhaustion simulation).

    Hooks run in registration order.  The seam is the attach point for
    :mod:`repro.resilience.chaos`; with no hooks registered the cost is
    one empty-list check per solve.
    """
    _SOLVE_HOOKS.append(hook)


def unregister_solve_hook(hook) -> None:
    """Remove a previously registered hook (no-op if absent)."""
    try:
        _SOLVE_HOOKS.remove(hook)
    except ValueError:
        pass


def solve_hooks() -> tuple:
    """The currently installed solve hooks, in execution order."""
    return tuple(_SOLVE_HOOKS)


def solve(
    name: str,
    operator: LinearOperator,
    b: np.ndarray,
    sparsity: int | None = None,
    **options,
) -> SolverResult:
    """Dispatch a recovery solve to the named algorithm.

    Parameters
    ----------
    name:
        One of :func:`solver_names`.
    operator, b:
        Sensing operator ``A = Phi_M @ Psi`` and measurements ``b``.
    sparsity:
        Target sparsity ``K``; required by the greedy solvers and
        ignored by the convex ones.
    options:
        Forwarded to the underlying solver (``lam``, ``step``,
        ``max_iterations``, ``tolerance``...).

    Raises
    ------
    ValueError
        For an unknown solver name, or a measurement vector that is not
        1-D finite (NaN/Inf measurements from the *caller* are an input
        bug; faults injected by hooks bypass this check on purpose so
        the downstream containment paths get exercised).

    Notes
    -----
    Every dispatched solve is observable through
    :mod:`repro.instrument`: the underlying solver opens a
    ``solver.<name>`` span carrying iterations, convergence flag, final
    residual and (for the iterative solvers) the residual trajectory,
    and this dispatcher counts requests under ``decoder.requests``.
    Hooks installed via :func:`register_solve_hook` run around the
    dispatch (fault injection / chaos testing).
    """
    instrument.incr("decoder.requests")
    if name not in solver_names():
        raise ValueError(
            f"unknown solver {name!r}; expected one of {solver_names()}"
        )
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"measurement vector must be 1-D, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError(
            "measurement vector contains NaN/Inf; reject or repair "
            "measurements before solving"
        )
    for hook in _SOLVE_HOOKS:
        before = getattr(hook, "before_solve", None)
        if before is not None:
            b = before(name, operator, b)
    if name == "bp":
        result = solve_basis_pursuit(operator, b, **options)
    elif name == "bp_dr":
        result = solve_bp_dr(operator, b, **options)
    elif name in _GRADIENT_SOLVERS:
        result = _GRADIENT_SOLVERS[name](operator, b, **options)
    else:
        if sparsity is None:
            # Eq. (1) read backwards: with M ~ K log(N/K) measurements
            # available, assume roughly K ~ M / 2 recoverable atoms.
            sparsity = max(1, operator.m // 2)
        result = _GREEDY_SOLVERS[name](operator, b, sparsity=sparsity, **options)
    for hook in _SOLVE_HOOKS:
        after = getattr(hook, "after_solve", None)
        if after is not None:
            result = after(name, result)
    return result


def solve_batch(
    name: str,
    operator: LinearOperator,
    b_stack: np.ndarray,
    sparsity: int | None = None,
    **options,
) -> list[SolverResult]:
    """Solve every row of ``b_stack`` (shape ``(k, m)``) against one operator.

    A validated loop over :func:`solve`, one call per row in row order,
    so every result, hook call and instrument counter is exactly that
    of ``k`` serial dispatches.  The one bound operator is what a
    shared-``Phi`` batch saves: one bind for all rows, and for ISTA and
    IHT on an operator without a spectral-norm hint one cached power
    iteration (FISTA backtracks each row's step and runs none).
    Raises ``ValueError`` for a stack that is not 2-D finite.
    """
    b_stack = np.asarray(b_stack, dtype=float)
    if b_stack.ndim != 2:
        raise ValueError(
            f"measurement stack must be 2-D, got shape {b_stack.shape}"
        )
    if not np.all(np.isfinite(b_stack)):
        raise ValueError(
            "measurement stack contains NaN/Inf; reject or repair "
            "measurements before solving"
        )
    return [solve(name, operator, b, sparsity, **options) for b in b_stack]
