"""Policy objects steering the resilient decode runtime.

The runtime itself (:mod:`repro.resilience.runtime`) is a mechanism;
*what* it does -- which solvers to try in which order, how many fresh
sampling draws to spend, how long each solver may run, when to stop
trusting a solver altogether -- lives here as small, declarative,
test-friendly objects:

* :class:`SolverBudget` -- per-solver iteration/wall-clock caps,
  translated into the right keyword arguments per solver;
* :class:`RetryPolicy` -- bounded retries with fresh sampling draws;
* :class:`CircuitBreaker` -- sidelines a repeatedly failing solver and
  re-admits it after a cooldown (classic closed/open/half-open);
* :class:`ResiliencePolicy` -- the bundle the runtime consumes, with a
  conservative default chain ``fista -> bp_dr -> omp`` (fast accelerated
  gradient, then the exact Douglas-Rachford splitting, then greedy
  least-squares -- three genuinely different algorithm families, so one
  family's pathology rarely takes out all three).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .. import instrument

__all__ = [
    "SolverBudget",
    "RetryPolicy",
    "CircuitBreaker",
    "ResiliencePolicy",
    "DEFAULT_FALLBACK_CHAIN",
]

#: Default solver fallback chain (three distinct algorithm families).
DEFAULT_FALLBACK_CHAIN: tuple[str, ...] = ("fista", "bp_dr", "omp")

#: The solver breaker's fixed tuning (see :class:`CircuitBreaker`).
FAILURE_THRESHOLD = 3
COOLDOWN = 8

#: Which budget keywords each registered solver understands.
_BUDGET_KWARGS: dict[str, tuple[str, ...]] = {
    "fista": ("max_iterations", "time_limit_s"),
    "ista": ("max_iterations", "time_limit_s"),
    "bp_dr": ("max_iterations", "time_limit_s"),
    "iht": ("max_iterations", "time_limit_s"),
    "cosamp": ("max_iterations", "time_limit_s"),
    "omp": ("time_limit_s",),
    "bp": (),
}


def _budget_keywords(solver: str) -> tuple[str, ...]:
    """The budget keywords ``solver`` accepts (both for an unlisted one)."""
    return _BUDGET_KWARGS.get(solver, ("max_iterations", "time_limit_s"))


def _attempt_options(
    solver: str, own_solver: str | None, options, budget: dict
) -> dict:
    """Keyword arguments for one supervised attempt of ``solver``.

    ``options`` are the caller's solver options, written for its own
    solver ``own_solver``, which gets them whole.  Any other solver of
    the fallback chain gets only the budget keywords among them that it
    accepts -- FISTA's ``lam`` means nothing to ``bp_dr``, and ``omp``
    takes no iteration cap -- so a caller's options cannot make a
    fallback raise ``TypeError``.  ``budget``, the solver's policy
    budget from :meth:`SolverBudget.solver_options`, goes on top.
    """
    if solver != own_solver:
        accepted = _budget_keywords(solver)
        options = {k: v for k, v in options.items() if k in accepted}
    return {**options, **budget}


@dataclass(frozen=True)
class SolverBudget:
    """Iteration and wall-clock caps for one solve attempt.

    ``None`` leaves the solver's own default in place.  Budgets keep a
    pathological attempt from starving the rest of the fallback chain:
    a solve that exceeds them stops early and reports
    ``converged=False`` (see ``SolveDeadline`` in the solver base), at
    which point the runtime moves on.
    """

    max_iterations: int | None = None
    time_limit_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError(
                f"time_limit_s must be positive, got {self.time_limit_s}"
            )

    def solver_options(self, solver: str) -> dict:
        """The budget as keyword arguments the named solver accepts.

        Unsupported keywords are dropped (e.g. ``omp`` has no iteration
        cap -- its loop is bounded by the sparsity target -- and the LP
        solver takes neither).
        """
        supported = _budget_keywords(solver)
        options = {}
        if self.max_iterations is not None and "max_iterations" in supported:
            options["max_iterations"] = self.max_iterations
        if self.time_limit_s is not None and "time_limit_s" in supported:
            options["time_limit_s"] = self.time_limit_s
        return options


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries across the fallback chain.

    Parameters
    ----------
    max_rounds:
        How many full passes over the fallback chain to attempt.  Each
        round consumes fresh randomness from the caller's RNG, so a
        retry is a genuinely new sampling draw (``Phi_M`` changes) --
        the right response to a pathological draw, per the paper's
        resampling strategy -- not a replay of the failing one.
    """

    max_rounds: int = 2

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")


@dataclass
class CircuitBreaker:
    """Per-solver closed/open/half-open breaker.

    A solver that keeps failing wastes its budget on every frame; the
    breaker sidelines it after :data:`FAILURE_THRESHOLD` (3)
    *consecutive* failures.  While open, the runtime skips the solver
    without spending an attempt; after :data:`COOLDOWN` (8) skipped
    uses the breaker goes half-open and lets one probe attempt through
    -- success re-closes it, failure re-opens it for another cooldown.

    The breaker is deliberately count-based (not wall-clock-based) so
    chaos tests and retries are exactly reproducible.

    State transitions are serialised by an internal lock, because one
    policy can be shared by streams of two
    :class:`~repro.serve.async_service.AsyncDecodeService` instances,
    each running ``run_cycle`` in an :func:`asyncio.to_thread` worker.
    Those concurrent callers see a consistent closed/open/half-open
    machine -- at most one half-open probe is admitted per cooldown,
    and a success/failure race cannot corrupt the counters.  The lock
    is excluded from pickling (a pickled policy rebuilds a fresh one).
    """

    _consecutive: dict = field(default_factory=dict, init=False, repr=False)
    _open_skips: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Picklable state: everything but the (unpicklable) lock."""
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore pickled state with a fresh lock."""
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def is_open(self, solver: str) -> bool:
        """Whether the solver is currently sidelined."""
        with self._lock:
            return solver in self._open_skips

    def allow(self, solver: str) -> bool:
        """Gate one prospective attempt.

        Returns ``True`` when the attempt may proceed (closed breaker,
        or a half-open probe).  While open, each call counts toward the
        cooldown and returns ``False`` until the probe is due; exactly
        one caller wins the half-open probe even under contention.
        """
        with self._lock:
            if solver not in self._open_skips:
                return True
            self._open_skips[solver] += 1
            if self._open_skips[solver] > COOLDOWN:
                # Half-open: let exactly one probe through, then make
                # the next prospective caller wait out a fresh cooldown
                # unless the probe's result re-closes the breaker first.
                self._open_skips[solver] = 0
                instrument.incr(f"resilience.breaker.{solver}.half_open")
                return True
            instrument.incr(f"resilience.breaker.{solver}.short_circuits")
            return False

    def record_success(self, solver: str) -> None:
        """A healthy solve: reset the failure streak and close the breaker."""
        with self._lock:
            self._consecutive[solver] = 0
            self._open_skips.pop(solver, None)

    def record_failure(self, solver: str) -> None:
        """A failed solve: bump the streak; open the breaker at threshold."""
        with self._lock:
            self._consecutive[solver] = (
                self._consecutive.get(solver, 0) + 1
            )
            if (
                self._consecutive[solver] >= FAILURE_THRESHOLD
                and solver not in self._open_skips
            ):
                self._open_skips[solver] = 0
                instrument.incr(f"resilience.breaker.{solver}.opened")

    def open_solvers(self) -> tuple[str, ...]:
        """The solvers currently sidelined (open breakers), sorted.

        Health telemetry for adaptive controllers: a non-empty tuple
        means part of the fallback chain is out of service right now.
        """
        with self._lock:
            return tuple(sorted(self._open_skips))

    def reset(self) -> None:
        """Forget all failure history (all breakers closed)."""
        with self._lock:
            self._consecutive.clear()
            self._open_skips.clear()


@dataclass
class ResiliencePolicy:
    """Everything the resilient runtime needs to supervise a decode.

    Parameters
    ----------
    fallback_chain:
        Solver names tried in order within each retry round.
    retry:
        Cross-chain retry bound (fresh sampling draw per round).
    budget:
        Default per-attempt :class:`SolverBudget`; ``budgets`` can
        override per solver (e.g. a tight cap for the expensive LP).
    breaker:
        Shared :class:`CircuitBreaker`; ``None`` disables breaking.
    value_range, residual_factor:
        Forwarded to the health checks (see
        :func:`repro.resilience.health.validate_reconstruction`).
    accept_nonconverged:
        Treat a non-converged but otherwise *healthy* solve as a
        degraded success rather than a failure (the paper's decodes are
        approximations anyway; a near-miss frame beats no frame).
    """

    fallback_chain: tuple[str, ...] = DEFAULT_FALLBACK_CHAIN
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    budget: SolverBudget = field(default_factory=SolverBudget)
    budgets: dict[str, SolverBudget] = field(default_factory=dict)
    breaker: CircuitBreaker | None = field(default_factory=CircuitBreaker)
    value_range: tuple[float, float] = (-0.5, 1.5)
    residual_factor: float = 2.0
    accept_nonconverged: bool = True

    def __post_init__(self) -> None:
        if not self.fallback_chain:
            raise ValueError("fallback_chain must name at least one solver")

    def budget_for(self, solver: str) -> SolverBudget:
        """The effective budget for one solver (override or default)."""
        return self.budgets.get(solver, self.budget)

    def snapshot(self) -> dict:
        """JSON-safe snapshot of the tunable policy knobs.

        What an adaptive controller changes between frames -- chain,
        retry bound, budgets, breaker state -- captured so a
        :class:`~repro.resilience.runtime.DecodeOutcome` can record the
        exact policy that produced it.
        """

        def _budget(budget: SolverBudget) -> dict:
            return {
                "max_iterations": budget.max_iterations,
                "time_limit_s": budget.time_limit_s,
            }

        return instrument.json_safe(
            {
                "fallback_chain": list(self.fallback_chain),
                "max_rounds": self.retry.max_rounds,
                "budget": _budget(self.budget),
                "budgets": {
                    name: _budget(budget)
                    for name, budget in sorted(self.budgets.items())
                },
                "breaker_open": []
                if self.breaker is None
                else list(self.breaker.open_solvers()),
                "accept_nonconverged": self.accept_nonconverged,
            }
        )
