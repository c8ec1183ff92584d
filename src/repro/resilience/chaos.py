"""Fault-injection framework for chaos-testing the decode stack.

The paper argues robustness to *pixel*-level faults; this module turns
the same adversarial mindset on the *decoder* itself.  Each injector
simulates one member of the fault taxonomy the resilience runtime must
contain:

==============================  ======================================
injector                        simulates
==============================  ======================================
:class:`SolverExceptionInjector`  a crashing solver (raises mid-solve)
:class:`SolverDivergenceInjector` a diverging solve (NaN/huge iterates)
:class:`MeasurementDropoutInjector` dead measurement channels (zeros)
:class:`NanPoisonInjector`        NaN/Inf-poisoned measurements
:class:`BudgetExhaustionInjector` iteration/latency budget exhaustion
==============================  ======================================

Two sibling injector families live alongside this one:
:mod:`repro.resilience.array_chaos` attacks the *physical* array layer
(stuck row-select lines, dropped scan cycles, ADC bit flips, saturation
bursts, gain drift, stuck pixel rows) and
:mod:`repro.resilience.worker_chaos` attacks the *execution* layer
(worker crash, hang, slow start).  Each injector declares its seam
through a ``layer`` attribute (``"solver"`` here, ``"array"`` /
``"executor"`` there) and the :func:`chaos` context manager dispatches
it to the right hook registry
(:func:`repro.core.solvers.register_solve_hook`,
:func:`repro.array.hooks.register_array_hook` or
:func:`repro.core.executor.register_worker_hook`), so mixed-layer fault
campaigns compose in one ``with`` block and *any* experiment, benchmark
or test can run under injected faults without modifying the code under
test::

    from repro.resilience import chaos, SolverExceptionInjector

    with chaos(SolverExceptionInjector(rate=0.2, seed=1)) as injectors:
        outcome = decoder.decode(frame, plan, rng)
    print(injectors[0].trips, "faults injected")

**Determinism guarantee.**  Every injector draws *exclusively* from its
own private ``numpy`` generator seeded with ``seed``; no injector reads
global randomness, wall-clock time or cross-injector state.  Two runs
with the same seeds, the same inputs and the same call sequence
therefore trip identically and produce bit-identical corruption, and
:meth:`FaultInjector.reset` restores the exact initial state (RNG
*and* any per-injector accumulation, e.g. pending budget trips or
accumulated stuck rows), so one injector instance can replay a
campaign.  Subclasses that add mutable state beyond the base RNG must
override ``reset`` to clear it -- this guarantee is enforced by
``tests/resilience/test_chaos.py``.  Every trip is counted both on the
injector (``.trips``) and in the instrument registry
(``chaos.<name>.trips``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .. import instrument
from ..core.solvers import (
    SolverResult,
    register_solve_hook,
    unregister_solve_hook,
)

__all__ = [
    "InjectedFault",
    "FaultInjector",
    "SolverExceptionInjector",
    "SolverDivergenceInjector",
    "MeasurementDropoutInjector",
    "NanPoisonInjector",
    "BudgetExhaustionInjector",
    "chaos",
    "default_taxonomy",
]


class InjectedFault(RuntimeError):
    """Raised by chaos injectors to simulate a crashing solver.

    Deliberately a distinct type so tests can tell injected faults from
    organic failures; the resilience runtime treats both identically.
    """


@dataclass
class FaultInjector:
    """Base class: a seeded, rate-gated fault source.

    Parameters
    ----------
    rate:
        Per-solve probability of injecting the fault, in ``[0, 1]``.
    seed:
        Seed for the injector's private RNG (chaos runs reproduce
        exactly under a fixed seed).

    Attributes
    ----------
    trips:
        How many times this injector has fired.
    """

    rate: float = 0.1
    seed: int = 0
    trips: int = field(default=0, init=False)

    #: Dotted short name used in ``chaos.<name>.trips`` counters.
    name = "fault"

    #: Which hook seam :func:`chaos` attaches this injector to:
    #: ``"solver"`` (the solve dispatch), ``"array"`` (the physical
    #: acquisition path; see :mod:`repro.resilience.array_chaos`) or
    #: ``"executor"`` (the worker task seam; see
    #: :mod:`repro.resilience.worker_chaos`).
    layer = "solver"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        self._rng = np.random.default_rng(self.seed)

    def _fire(self) -> bool:
        """Roll the dice; count and report a trip when it comes up."""
        if self._rng.random() >= self.rate:
            return False
        self.trips += 1
        instrument.incr(f"chaos.{self.name}.trips")
        return True

    def reset(self) -> None:
        """Restore the initial RNG state and zero the trip counter."""
        self._rng = np.random.default_rng(self.seed)
        self.trips = 0


@dataclass
class SolverExceptionInjector(FaultInjector):
    """Raise :class:`InjectedFault` from inside the solve dispatch."""

    name = "solver_exception"

    def before_solve(
        self, solver: str, operator, b: np.ndarray
    ) -> np.ndarray:
        """Raise at the configured rate; otherwise pass ``b`` through."""
        if self._fire():
            raise InjectedFault(
                f"injected solver exception in {solver!r} "
                f"(trip #{self.trips} of {type(self).__name__})"
            )
        return b


@dataclass
class SolverDivergenceInjector(FaultInjector):
    """Replace a finished solve with a diverged result.

    The poisoned :class:`SolverResult` carries non-finite coefficients,
    an infinite residual and ``converged=False`` -- exactly what a
    blown-up iteration would produce -- so downstream health validation
    is exercised end to end.
    """

    name = "solver_divergence"

    def after_solve(self, solver: str, result: SolverResult) -> SolverResult:
        """Poison the result at the configured rate."""
        if not self._fire():
            return result
        coefficients = np.full_like(result.coefficients, np.nan)
        info = dict(result.info)
        info["diverged"] = True
        info["injected"] = True
        return SolverResult(
            coefficients=coefficients,
            iterations=result.iterations,
            converged=False,
            residual=float("inf"),
            solver=result.solver,
            info=info,
        )


@dataclass
class MeasurementDropoutInjector(FaultInjector):
    """Zero a random fraction of the measurement vector.

    Parameters
    ----------
    dropout_fraction:
        Fraction of measurements zeroed when the injector fires (a
        burst of dead channels, e.g. a flaky column bus).
    """

    dropout_fraction: float = 0.25
    name = "measurement_dropout"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.dropout_fraction <= 1.0:
            raise ValueError(
                f"dropout_fraction must be in (0, 1], got "
                f"{self.dropout_fraction}"
            )

    def before_solve(
        self, solver: str, operator, b: np.ndarray
    ) -> np.ndarray:
        """Drop measurements at the configured rate."""
        if not self._fire():
            return b
        b = np.array(b, dtype=float, copy=True)
        count = max(1, int(round(self.dropout_fraction * b.size)))
        b[self._rng.choice(b.size, size=min(count, b.size), replace=False)] = 0.0
        return b


@dataclass
class NanPoisonInjector(FaultInjector):
    """Poison a few measurements with NaN (or Inf).

    Parameters
    ----------
    poison_fraction:
        Fraction of measurements poisoned when the injector fires.
    use_inf:
        Poison with ``+Inf`` instead of ``NaN``.
    """

    poison_fraction: float = 0.05
    use_inf: bool = False
    name = "nan_poison"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.poison_fraction <= 1.0:
            raise ValueError(
                f"poison_fraction must be in (0, 1], got "
                f"{self.poison_fraction}"
            )

    def before_solve(
        self, solver: str, operator, b: np.ndarray
    ) -> np.ndarray:
        """Poison measurements at the configured rate."""
        if not self._fire():
            return b
        b = np.array(b, dtype=float, copy=True)
        count = max(1, int(round(self.poison_fraction * b.size)))
        hits = self._rng.choice(b.size, size=min(count, b.size), replace=False)
        b[hits] = np.inf if self.use_inf else np.nan
        return b


@dataclass
class BudgetExhaustionInjector(FaultInjector):
    """Simulate an iteration/latency budget blown by a slow solve.

    When it fires, the finished result is re-labelled non-converged
    (the iteration budget ran out before the stopping criterion), and
    an optional real ``latency_s`` sleep is added *before* the solve so
    wall-clock deadlines (:class:`repro.core.solvers.SolveDeadline` /
    the runtime's per-attempt budgets) are genuinely exercised.

    Parameters
    ----------
    latency_s:
        Seconds of synthetic latency injected per trip (0 disables).
    """

    latency_s: float = 0.0
    name = "budget_exhaustion"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")
        self._pending = False

    def reset(self) -> None:
        """Restore the initial state, including any undelivered trip."""
        super().reset()
        self._pending = False

    def before_solve(
        self, solver: str, operator, b: np.ndarray
    ) -> np.ndarray:
        """Decide the trip up front and inject the latency half."""
        self._pending = self._fire()
        if self._pending and self.latency_s > 0:
            time.sleep(self.latency_s)
        return b

    def after_solve(self, solver: str, result: SolverResult) -> SolverResult:
        """Mark the result budget-exhausted when the trip is pending."""
        if not self._pending:
            return result
        self._pending = False
        info = dict(result.info)
        info["deadline"] = True
        info["injected"] = True
        return SolverResult(
            coefficients=result.coefficients,
            iterations=result.iterations,
            converged=False,
            residual=result.residual,
            solver=result.solver,
            info=info,
        )


@contextmanager
def chaos(*injectors: FaultInjector):
    """Attach fault injectors to their hook seams for a ``with`` block.

    Each injector is dispatched by its ``layer`` attribute: solver
    injectors attach to the solve dispatch seam, array injectors
    (:mod:`repro.resilience.array_chaos`) to the array hook seam, and
    executor injectors (:mod:`repro.resilience.worker_chaos`) to the
    worker task seam -- a single ``with chaos(...)`` block can
    therefore run a mixed-layer fault campaign.  Yields the injector
    tuple (handy for asserting on ``.trips``); hooks are removed on
    exit even when the block raises, so a chaos run can never leak
    faults into subsequent code.
    """
    # Function-level import: the array package imports the resilience
    # policies for its imager, so the hook registry is resolved at
    # attach time rather than at module import.
    from ..array.hooks import register_array_hook, unregister_array_hook
    from ..core.executor import register_worker_hook, unregister_worker_hook

    for injector in injectors:
        layer = getattr(injector, "layer", "solver")
        if layer == "array":
            register_array_hook(injector)
        elif layer == "executor":
            register_worker_hook(injector)
        else:
            register_solve_hook(injector)
    try:
        yield injectors
    finally:
        for injector in injectors:
            layer = getattr(injector, "layer", "solver")
            if layer == "array":
                unregister_array_hook(injector)
            elif layer == "executor":
                unregister_worker_hook(injector)
            else:
                unregister_solve_hook(injector)


def default_taxonomy(
    fault_rate: float,
    seed: int = 0,
    latency_s: float = 0.0,
    layer: str = "solver",
) -> tuple[FaultInjector, ...]:
    """The full fault taxonomy at a combined ``fault_rate``.

    Splits the requested rate evenly across the layer's injector
    families (each call can still suffer several fault kinds at once),
    seeding each injector from ``seed`` so the mix is reproducible.
    This is what the resilience sweep experiment and the chaos CI job
    run.

    Parameters
    ----------
    fault_rate:
        Combined injection rate in ``[0, 1]``.
    seed:
        Base seed; each family gets a distinct derived seed.
    latency_s:
        Synthetic latency per budget-exhaustion trip (solver layer).
    layer:
        ``"solver"`` (the five decode-stack families), ``"array"`` (the
        six physical-layer families from
        :mod:`repro.resilience.array_chaos`), ``"executor"`` (the three
        worker-fault families from
        :mod:`repro.resilience.worker_chaos`) or ``"all"`` (every
        layer, each at ``fault_rate`` split across its own families).
    """
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
    if layer not in ("solver", "array", "executor", "all"):
        raise ValueError(
            f"layer must be 'solver', 'array', 'executor' or 'all', "
            f"got {layer!r}"
        )
    if layer == "array":
        from .array_chaos import default_array_taxonomy

        return default_array_taxonomy(fault_rate, seed=seed)
    if layer == "executor":
        from .worker_chaos import default_worker_taxonomy

        return default_worker_taxonomy(fault_rate, seed=seed)
    per_family = fault_rate / 5.0
    solver_families = (
        SolverExceptionInjector(rate=per_family, seed=seed),
        SolverDivergenceInjector(rate=per_family, seed=seed + 1),
        MeasurementDropoutInjector(rate=per_family, seed=seed + 2),
        NanPoisonInjector(rate=per_family, seed=seed + 3),
        BudgetExhaustionInjector(
            rate=per_family, seed=seed + 4, latency_s=latency_s
        ),
    )
    if layer == "solver":
        return solver_families
    from .array_chaos import default_array_taxonomy
    from .worker_chaos import default_worker_taxonomy

    return (
        solver_families
        + default_array_taxonomy(fault_rate, seed=seed + 5)
        + default_worker_taxonomy(fault_rate, seed=seed + 11)
    )
