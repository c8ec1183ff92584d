"""Debiasing: least-squares re-fit on the recovered support.

L1 regularisation shrinks every kept coefficient toward zero by up to
``lam`` (the soft-threshold bias).  The standard fix is a *debiasing*
pass: freeze the support that BPDN/FISTA identified and re-solve the
unregularised least-squares problem on it.  Implemented matrix-free via
``scipy.sparse.linalg.lsqr`` so it scales to the 32x32+ sweeps.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import linalg as sparse_linalg

from ..operators import LinearOperator
from .base import SolverResult, residual_norm

__all__ = ["debias_on_support"]


def debias_on_support(
    operator: LinearOperator,
    b: np.ndarray,
    result: SolverResult,
    max_support: int | None = None,
    iteration_limit: int = 200,
) -> SolverResult:
    """Least-squares re-fit of a solve's coefficients on their support.

    Parameters
    ----------
    operator, b:
        The original sensing operator and measurements.
    result:
        A prior :class:`SolverResult` whose nonzero pattern defines the
        support.
    max_support:
        Optional cap: keep only the largest-magnitude entries (the LS
        problem must be overdetermined, so supports larger than ``m``
        are always truncated to ``m``).
    iteration_limit:
        LSQR iteration cap.

    Returns
    -------
    SolverResult
        A new result with solver name ``"<orig>+debias"``; if the
        support is empty the input is returned unchanged.
    """
    b = np.asarray(b, dtype=float)
    coefficients = result.coefficients
    support = np.flatnonzero(coefficients)
    if len(support) == 0:
        return result
    limit = operator.m if max_support is None else min(max_support, operator.m)
    if len(support) > limit:
        order = np.argsort(np.abs(coefficients[support]))[::-1]
        support = np.sort(support[order[:limit]])

    def matvec(z: np.ndarray) -> np.ndarray:
        full = np.zeros(operator.n)
        full[support] = z
        return operator.matvec(full)

    def rmatvec(r: np.ndarray) -> np.ndarray:
        return operator.rmatvec(r)[support]

    restricted = sparse_linalg.LinearOperator(
        shape=(operator.m, len(support)), matvec=matvec, rmatvec=rmatvec
    )
    solution = sparse_linalg.lsqr(
        restricted, b, iter_lim=iteration_limit, atol=1e-12, btol=1e-12
    )[0]
    debiased = np.zeros(operator.n)
    debiased[support] = solution
    return SolverResult(
        coefficients=debiased,
        iterations=result.iterations,
        converged=result.converged,
        residual=residual_norm(operator, debiased, b),
        solver=f"{result.solver}+debias",
        info={**result.info, "support_size": len(support)},
    )
