"""Executor-layer chaos: crash, hang and slow-start worker injectors.

The third injector family of the chaos taxonomy.  The solver family
(:mod:`repro.resilience.chaos`) attacks the *math*, the array family
(:mod:`repro.resilience.array_chaos`) attacks the *physics*; this one
attacks the *infrastructure* -- the workers that
:class:`repro.core.executor.SupervisedExecutor` supervises:

==============================  ======================================
injector                        simulates
==============================  ======================================
:class:`WorkerCrashInjector`    a worker process dying mid-task
                                (raises :class:`~repro.core.executor.
                                WorkerCrash`)
:class:`WorkerHangInjector`     a wedged worker (the task body stalls
                                for ``hang_s`` before proceeding)
:class:`WorkerSlowStartInjector` cold-start latency: the first task on
                                each new worker pays ``delay_s``
==============================  ======================================

Each injector declares ``layer = "executor"`` so the shared
:func:`~repro.resilience.chaos.chaos` context manager attaches it to
the executor task seam
(:func:`repro.core.executor.register_worker_hook`), and
``default_taxonomy(layer="executor")`` / ``layer="all"`` mix the family
into full-stack fault campaigns.

Scope caveat: hooks run in the *submitting* process, so they reach the
serial backend (and the supervised wrapper around it); every
process-pool worker starts with empty hook registries, so no injector
fires there -- kill real processes to chaos-test that path.
Determinism: with a serial (or supervised-serial) backend the task
order is the submission order, so seeded runs trip bit-identically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..core.executor import WorkerCrash
from .chaos import FaultInjector

__all__ = [
    "WorkerCrashInjector",
    "WorkerHangInjector",
    "WorkerSlowStartInjector",
    "default_worker_taxonomy",
]


@dataclass
class WorkerCrashInjector(FaultInjector):
    """Kill the current worker task with a :class:`WorkerCrash`.

    An unsupervised executor surfaces the crash as a failed task
    result; a :class:`~repro.core.executor.SupervisedExecutor` counts
    it as ``executor.worker_lost`` and retries the task on a surviving
    worker.
    """

    name = "worker_crash"
    layer = "executor"

    def before_task(self, label: str, index: int) -> None:
        """Raise at the configured rate before the task body runs."""
        if self._fire():
            raise WorkerCrash(
                f"injected worker crash in {label!r} task {index} "
                f"(trip #{self.trips} of {type(self).__name__})"
            )


@dataclass
class WorkerHangInjector(FaultInjector):
    """Wedge the current worker for ``hang_s`` before the task runs.

    The hook runs in the submitting process, so under a supervised
    serial executor with ``timeout_s < hang_s`` the overrun is counted
    as ``executor.worker_slow`` and the task keeps its result.

    Parameters
    ----------
    hang_s:
        Seconds the worker stalls per trip (keep small in tests; the
        sleep is real).
    """

    hang_s: float = 0.05
    name = "worker_hang"
    layer = "executor"

    def __post_init__(self) -> None:
        """Validate ``hang_s`` on top of the base rate/seed checks."""
        super().__post_init__()
        if self.hang_s < 0:
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s}")

    def before_task(self, label: str, index: int) -> None:
        """Stall at the configured rate before the task body runs."""
        if self._fire() and self.hang_s > 0:
            time.sleep(self.hang_s)


@dataclass
class WorkerSlowStartInjector(FaultInjector):
    """Charge cold-start latency to the first task of each new worker.

    Real pools pay an import/fork storm on the first task a fresh
    worker runs; this injector reproduces it so supervision and bench
    warm-up logic are exercised.  Worker identity is the executing
    thread (one for the serial backend): the first task observed on
    each new thread rolls the rate once, and a trip sleeps
    ``delay_s``.

    Parameters
    ----------
    delay_s:
        Cold-start seconds charged per tripped worker.
    """

    delay_s: float = 0.02
    name = "worker_slow_start"
    layer = "executor"
    _seen: set = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        """Validate ``delay_s`` on top of the base rate/seed checks."""
        super().__post_init__()
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    def reset(self) -> None:
        """Restore initial state, forgetting every seen worker."""
        super().reset()
        self._seen = set()

    def before_task(self, label: str, index: int) -> None:
        """On each new worker thread, roll once and maybe stall."""
        ident = threading.get_ident()
        if ident in self._seen:
            return
        self._seen.add(ident)
        if self._fire() and self.delay_s > 0:
            time.sleep(self.delay_s)


def default_worker_taxonomy(
    fault_rate: float,
    seed: int = 0,
    hang_s: float = 0.05,
    delay_s: float = 0.02,
) -> tuple[FaultInjector, ...]:
    """The full executor-layer taxonomy at a combined ``fault_rate``.

    Splits the rate evenly across the three worker-fault families with
    distinct derived seeds, mirroring
    :func:`repro.resilience.chaos.default_taxonomy` (which dispatches
    here for ``layer="executor"``).
    """
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
    per_family = fault_rate / 3.0
    return (
        WorkerCrashInjector(rate=per_family, seed=seed),
        WorkerHangInjector(rate=per_family, seed=seed + 1, hang_s=hang_s),
        WorkerSlowStartInjector(
            rate=per_family, seed=seed + 2, delay_s=delay_s
        ),
    )
