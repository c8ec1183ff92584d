"""FISTA's backtracked step cannot hang or hide a fault.

On a code that states no norm, ``solve_fista`` finds its step by
backtracking.  Over generated dense and block codes (8x8 to 16x16,
with and without exclusions, ``b = 0`` included) every solve must end
within ``max_iterations`` with finite coefficients, make exactly
``2 * iterations + backtracks`` applies, and report a ``residual``
equal bit for bit to a fresh ``||A x - b||``.  A non-finite ``b`` trips
the divergence guard before the first trial, a spent time budget stops
the solve, and a forward apply that goes non-finite exhausts the trial
cap and ends the solve as ``diverged``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.core.engine import DecodeEngine
from repro.core.measurement import DenseCodeMatrix, get_measurement
from repro.core.operators import LinearOperator
from repro.core.solvers import fista, solve_fista
from repro.core.solvers.base import residual_norm


@st.composite
def _problems(draw):
    """A dense or block code, its engine operator and measurements."""
    family = draw(st.sampled_from(["dense_codes", "block_sampling", "zero"]))
    side = draw(st.integers(8, 16))
    shape, n = (side, side), side * side
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    excluded = draw(st.integers(0, n // 2))
    exclude = rng.choice(n, excluded, replace=False) if excluded else None
    m = draw(st.integers(1, n - excluded))
    if family == "zero":
        phi = DenseCodeMatrix(np.zeros((m, n)))
    else:
        phi = get_measurement(family).draw(shape, m, rng, exclude=exclude)
    operator = DecodeEngine().operator(
        phi, shape, measurement="dense_codes" if family == "zero" else family
    )
    frame = np.zeros(n) if draw(st.booleans()) else rng.random(n)
    return operator, phi.apply(frame)


class _NaNForward(LinearOperator):
    """``operator`` whose forward apply returns NaN; no norm hint."""

    def __init__(self, operator):
        super().__init__(operator.shape)
        self._operator = operator

    def matvec(self, x):
        return np.full(self.m, np.nan)

    def rmatvec(self, r):
        return self._operator.rmatvec(r)


def _solve_counted(operator, b, **options):
    with instrument.profiled() as session:
        result = solve_fista(operator, b, **options)
    return result, session.report()["metrics"]["counters"]


@settings(max_examples=60, deadline=None)
@given(problem=_problems(), max_iterations=st.integers(1, 400))
def test_backtracking_ends_and_accounts_for_every_apply(problem, max_iterations):
    operator, b = problem
    assert operator.spectral_norm_hint is None
    result, counters = _solve_counted(
        operator, b, max_iterations=max_iterations
    )
    x = result.coefficients
    assert np.all(np.isfinite(x))
    assert 1 <= result.iterations <= max_iterations
    assert result.converged or result.iterations == max_iterations
    assert "diverged" not in result.info
    assert "operator.power_iteration_applies" not in counters
    assert counters["operator.applies"] == (
        2 * result.iterations + result.info["backtracks"]
    )
    assert np.float64(result.residual).tobytes() == (
        np.float64(residual_norm(operator, x, b)).tobytes()
    )
    if not b.any():
        assert result.converged and result.iterations == 1
        assert not x.any()


@settings(max_examples=30, deadline=None)
@given(problem=_problems(), poison=st.sampled_from([np.nan, np.inf]))
def test_non_finite_measurements_trip_the_guard_before_any_trial(
    problem, poison
):
    operator, b = problem
    b = b.copy()
    b[len(b) // 2] = poison
    with np.errstate(invalid="ignore"):
        result, counters = _solve_counted(operator, b)
    assert result.info["diverged"] and not result.converged
    assert result.iterations == 1 and result.info["backtracks"] == 0
    # The one apply is A^T b; no trial ran.
    assert counters["operator.applies"] == 1
    assert not result.coefficients.any()


@settings(max_examples=30, deadline=None)
@given(problem=_problems())
def test_a_spent_time_budget_stops_the_solve(problem):
    operator, b = problem
    result = solve_fista(operator, b, time_limit_s=1e-9)
    assert result.info["deadline"] and not result.converged
    assert result.iterations == 1
    assert not result.coefficients.any()


@settings(max_examples=30, deadline=None)
@given(problem=_problems())
def test_the_trial_cap_ends_the_solve_as_diverged(problem):
    operator, b = problem
    result = solve_fista(_NaNForward(operator), b)
    assert result.info["diverged"] and not result.converged
    assert result.iterations == 1
    assert result.info["backtracks"] == fista._MAX_TRIALS
    assert not result.coefficients.any()
