"""Basis pursuit: exact L1 minimisation via linear programming.

Sec. 3.1 notes that the L1-norm problem of Eq. (9) "can be re-formulated
as a linear programming problem and solved efficiently in the silicon
side".  This module performs exactly that re-formulation.

Splitting ``x = u - v`` with ``u, v >= 0`` turns

    minimize ||x||_1   subject to   A x = b

into the LP

    minimize 1^T u + 1^T v   subject to   A u - A v = b,  u, v >= 0

which we hand to ``scipy.optimize.linprog`` (HiGHS).  The LP needs the
dense matrix, so this solver is the reference implementation for small /
moderate ``N``; the iterative solvers are the fast path for sweeps.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from ... import instrument
from ..operators import LinearOperator
from .base import SolverResult, finish_solve_span, residual_norm

__all__ = ["solve_basis_pursuit"]


def solve_basis_pursuit(
    operator: LinearOperator,
    b: np.ndarray,
    tolerance: float = 1e-9,
) -> SolverResult:
    """Solve Eq. (9) exactly as an LP.

    Parameters
    ----------
    operator:
        The sensing operator ``A = Phi_M @ Psi``.
    b:
        Measurement vector of length ``m``.
    tolerance:
        Primal feasibility tolerance passed to HiGHS.

    Returns
    -------
    SolverResult
        ``converged`` mirrors the LP success flag; ``iterations`` is
        the simplex/IPM iteration count HiGHS reports;
        ``info['status']`` carries the HiGHS status message.  The LP is
        a black box, so the ``solver.basis_pursuit`` span carries no
        residual trajectory -- only the final diagnostics.
    """
    with instrument.span(
        "solver.basis_pursuit", m=operator.m, n=operator.n
    ) as sp:
        b = np.asarray(b, dtype=float)
        if b.shape != (operator.m,):
            raise ValueError(
                f"measurement vector shape {b.shape} does not match m={operator.m}"
            )
        # The LP genuinely needs entries; this is the one sanctioned
        # dense-materialisation site in the solver layer (seam-checked).
        a = operator.to_dense()
        m, n = a.shape
        cost = np.ones(2 * n)
        a_eq = np.hstack([a, -a])
        result = linprog(
            cost,
            A_eq=a_eq,
            b_eq=b,
            bounds=[(0, None)] * (2 * n),
            method="highs",
            options={"primal_feasibility_tolerance": tolerance},
        )
        if result.x is None:
            x = np.zeros(n)
        else:
            x = result.x[:n] - result.x[n:]
        return finish_solve_span(sp, SolverResult(
            coefficients=x,
            iterations=int(getattr(result, "nit", 0) or 0),
            converged=bool(result.success),
            residual=residual_norm(operator, x, b),
            solver="basis_pursuit",
            info={"status": result.message},
        ))
