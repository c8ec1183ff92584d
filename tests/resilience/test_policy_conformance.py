"""Every supervised entry point honours the whole resilience policy.

One table: each policy case runs through ``ResilientDecoder.decode``,
``ResilientStrategy(NaiveStrategy(...)).reconstruct`` and
``StreamingImager(policy=...).capture``, with solvers killed by a solve
hook that also counts every dispatch.  The three entry points share one
supervision loop, so they must agree on the delivered status, the
delivering solver and how often each solver was tried.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

from repro.array import (
    ActiveMatrix,
    FlexibleEncoder,
    ReadoutChain,
    StreamingImager,
)
from repro.core import DecodeContext, NaiveStrategy
from repro.core.solvers import register_solve_hook, unregister_solve_hook
from repro.resilience import (
    ResiliencePolicy,
    ResilientDecoder,
    ResilientStrategy,
    SolverBudget,
)

SHAPE = (16, 16)


def _frame(k=0):
    r, c = np.mgrid[0 : SHAPE[0], 0 : SHAPE[1]]
    return 0.5 + 0.35 * np.sin(r / 4.0 + 0.3 * k) * np.cos(c / 5.0)


def _decoder(policy):
    decoder = ResilientDecoder(policy=policy)
    plan = DecodeContext(shape=SHAPE, sampling_fraction=0.6)
    rng = np.random.default_rng(0)

    def run(frame):
        outcome = decoder.decode(frame, plan, rng)
        return outcome.status, outcome.solver

    return run


def _strategy(policy):
    strategy = ResilientStrategy(
        NaiveStrategy(sampling_fraction=0.6), policy=policy
    )
    rng = np.random.default_rng(0)

    def run(frame):
        strategy.reconstruct(frame, rng)
        return strategy.last_outcome.status, strategy.last_outcome.solver

    return run


def _imager(policy):
    encoder = FlexibleEncoder(
        ActiveMatrix(SHAPE),
        readout=ReadoutChain(noise_sigma_v=0.0, sh_droop=0.0, adc_bits=12),
    )
    imager = StreamingImager(
        encoder, sampling_fraction=0.6, policy=policy, seed=0
    )

    def run(frame):
        record = imager.capture(frame)
        return record.status, record.solver

    return run


ENTRY_POINTS = {"decoder": _decoder, "strategy": _strategy, "imager": _imager}


class _DeadSolvers:
    """Solve hook: counts every dispatch, kills the named solvers."""

    def __init__(self, dead):
        self.dead = set(dead)
        self.calls = Counter()

    def before_solve(self, solver, operator, b):
        self.calls[solver] += 1
        if solver in self.dead:
            raise RuntimeError(f"{solver} down")
        return b


@dataclass(frozen=True)
class Case:
    """One policy case and what every entry point must deliver."""

    policy: Callable[[], ResiliencePolicy] = ResiliencePolicy
    dead: tuple = ()
    frames: int = 1
    status: str = "ok"
    solver: str | None = None
    calls: dict = field(default_factory=dict)


CASES = {
    # (a) omp has no iteration cap; fista's must not reach it.
    "budgets_do_not_leak": Case(
        policy=lambda: ResiliencePolicy(
            budget=SolverBudget(max_iterations=200)
        ),
        dead=("fista", "bp_dr"),
        status="degraded",
        solver="omp",
        calls={"fista": 1, "bp_dr": 1, "omp": 1},
    ),
    # (b) A budget-starved fista never converges: rejected every round.
    "nonconverged_rejected": Case(
        policy=lambda: ResiliencePolicy(
            fallback_chain=("fista",),
            budget=SolverBudget(max_iterations=3),
            accept_nonconverged=False,
        ),
        status="fallback",
        calls={"fista": 2},
    ),
    # (c) Default breaker: three failures open it for the rest.
    "breaker_sidelines_dead_solver": Case(
        dead=("fista",),
        frames=6,
        status="degraded",
        solver="bp_dr",
        calls={"fista": 3, "bp_dr": 6},
    ),
    # (d) Every solver dead, no breaker: max_rounds x len(chain) tries.
    "retry_rounds_run": Case(
        policy=lambda: ResiliencePolicy(breaker=None),
        dead=("fista", "bp_dr", "omp"),
        status="fallback",
        calls={"fista": 2, "bp_dr": 2, "omp": 2},
    ),
    # (e) A strict policy still gets a frame from the fallback: bp_dr
    # converges within its default iteration cap.
    "strict_fallback_delivers": Case(
        policy=lambda: ResiliencePolicy(
            fallback_chain=("fista", "bp_dr"),
            accept_nonconverged=False,
        ),
        dead=("fista",),
        status="degraded",
        solver="bp_dr",
        calls={"fista": 1, "bp_dr": 1},
    ),
}

# A strategy is opaque to the loop: its attempts count as converged.
EXEMPT = {
    ("strategy", "nonconverged_rejected"): Case(
        status="ok",
        solver="fista",
        calls={"fista": 1},
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case_name", CASES)
def test_entry_point_honours_policy(entry, case_name):
    case = CASES[case_name]
    expected = EXEMPT.get((entry, case_name), case)
    run = ENTRY_POINTS[entry](case.policy())
    hook = _DeadSolvers(case.dead)
    register_solve_hook(hook)
    try:
        delivered = [run(_frame(k)) for k in range(case.frames)]
    finally:
        unregister_solve_hook(hook)
    assert delivered[-1] == (expected.status, expected.solver)
    assert dict(hook.calls) == expected.calls

