"""Pluggable execution backends for every fan-out in the repo.

The fan-outs all have one shape of work: *many independent decode
tasks* -- the frames of a coalesced
:class:`~repro.serve.service.DecodeService` batch or of the bench's
``process`` route (both through
:meth:`~repro.core.engine.DecodeEngine.decode_batch`), and the grid
points of :class:`~repro.core.pipeline.RobustnessSweep` and the
tolerance / RES experiments.

This module is the one sanctioned seam for parallelism
(``tools/check_engine_seam.py`` forbids raw ``concurrent.futures`` /
``multiprocessing`` pool construction anywhere else):

* :class:`Executor` -- the protocol: ``map_tasks(fn, items)`` returns a
  :class:`TaskResult` per item **in submission order**, with per-task
  error capture (a failing task yields an error string instead of
  poisoning its siblings) and ``executor.*`` metrics via
  :mod:`repro.instrument`;
* :class:`SerialExecutor` -- in-process loop, the reference backend
  the pooled backend must match bit-for-bit;
* :class:`ProcessExecutor` -- ``ProcessPoolExecutor`` backend for
  CPU-bound fan-out; tasks and results must be picklable (the frozen
  :class:`~repro.core.engine.DecodeContext` is, by design);
* :func:`resolve_executor` -- the shared ``executor=`` argument
  convention (``None`` | ``"serial"`` | ``"process"`` | worker count |
  instance) every call site accepts.

Determinism contract: ``map_tasks`` never reorders results, and the
call sites built on it draw all RNG-consuming work (``Phi_M`` draws,
measurement noise) *before* fanning out, or derive each task's
generator from the task itself (a sweep point's ``(seed, fraction,
rate)``) -- so the serial and process backends produce bit-identical
output under a fixed seed.  Regression tests assert this.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .. import instrument

__all__ = [
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "SupervisedExecutor",
    "TaskError",
    "TaskResult",
    "WorkerCrash",
    "WorkerLossEvent",
    "collect_values",
    "default_workers",
    "register_worker_hook",
    "resolve_executor",
    "unregister_worker_hook",
]


class WorkerCrash(RuntimeError):
    """A worker died (or simulated dying) while running a task.

    Raised by the ``worker_crash`` chaos injector
    (:mod:`repro.resilience.worker_chaos`) to simulate process death on
    the executor seam; :class:`SupervisedExecutor` treats it -- along
    with real pool breakage (``BrokenProcessPool``) and heartbeat
    timeouts -- as a *worker loss*: the task is retried on a surviving
    worker instead of failing the whole map.
    """


#: Error-string prefixes :class:`SupervisedExecutor` treats as worker
#: loss (retryable infrastructure death) rather than task failure.
_LOSS_PREFIXES = (
    "WorkerCrash",
    "WorkerTimeout",
    "BrokenProcessPool",
)

_WORKER_HOOKS: list = []
"""Registered worker-chaos hooks, consulted by :func:`_run_task`.

The executor-layer analogue of the solver/array hook seams: each hook's
``before_task(label, index)`` runs at the top of every task body, where
it may sleep (hang / slow-start injection) or raise
:class:`WorkerCrash` (crash injection).  Hooks live in the *submitting*
process's registry, so they reach the serial backend; every process
pool worker starts with empty registries (:func:`_init_worker`) -- kill
real processes to chaos-test that path.
"""


def _init_worker() -> None:
    """Pool initializer: empty the chaos hook registries a worker inherits.

    A forked worker starts with the registries as they were when the
    pool forked.  An injector attached then would keep firing in it
    after its ``chaos()`` block exits, and its trips would never reach
    the parent's count.  For the same reason the worker turns
    :mod:`repro.instrument` collection off: a pool forked inside a
    profiled block would otherwise keep collecting what no report
    reads.
    """
    from .solvers import _SOLVE_HOOKS

    instrument.disable()
    _WORKER_HOOKS.clear()
    _SOLVE_HOOKS.clear()
    # An array package the parent never imported holds no hooks, and
    # importing it here would cost every worker the import.
    array_hooks = sys.modules.get("repro.array.hooks")
    if array_hooks is not None:
        array_hooks._ARRAY_HOOKS.clear()


def register_worker_hook(hook) -> None:
    """Attach a worker-chaos hook to the executor task seam."""
    _WORKER_HOOKS.append(hook)


def unregister_worker_hook(hook) -> None:
    """Detach a previously registered worker-chaos hook (idempotent)."""
    try:
        _WORKER_HOOKS.remove(hook)
    except ValueError:
        pass


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task submitted through :meth:`Executor.map_tasks`.

    Attributes
    ----------
    index:
        Position of the task's item in the submitted sequence; results
        come back sorted by it, so ``results[i]`` always corresponds to
        ``items[i]``.
    value:
        The task function's return value (``None`` when it failed).
    error:
        ``None`` on success; otherwise ``"ExcType: message"`` captured
        from the task (the exception object itself may not survive a
        process boundary, the string always does).
    duration_s:
        Wall-clock seconds the task body ran.
    """

    index: int
    value: Any = None
    error: str | None = None
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the task completed without raising."""
        return self.error is None


class TaskError(RuntimeError):
    """Raised by :func:`collect_values` when any task in a map failed."""


def collect_values(results: Sequence[TaskResult]) -> list:
    """Unwrap ``map_tasks`` results into plain values, or raise.

    Raises :class:`TaskError` naming every failed task when any task
    errored; call sites that want partial results inspect the
    :class:`TaskResult` list directly instead.
    """
    failed = [r for r in results if not r.ok]
    if failed:
        details = "; ".join(f"task {r.index}: {r.error}" for r in failed)
        raise TaskError(
            f"{len(failed)} of {len(results)} task(s) failed: {details}"
        )
    return [r.value for r in results]


def default_workers() -> int:
    """Default worker count: the machine's CPU count (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _failed(index: int, exc: BaseException, duration_s: float = 0.0):
    """The failed :class:`TaskResult` of a task that raised ``exc``."""
    return TaskResult(
        index=index,
        error=f"{type(exc).__name__}: {exc}",
        duration_s=duration_s,
    )


def _run_task(fn: Callable, index: int, item, label: str = "map") -> TaskResult:
    """Run one task body, capturing errors and timing (picklable)."""
    start = time.perf_counter()
    try:
        for hook in tuple(_WORKER_HOOKS):
            before = getattr(hook, "before_task", None)
            if before is not None:
                before(label, index)
        value = fn(item)
    except Exception as exc:  # noqa: BLE001 - per-task containment
        return _failed(index, exc, time.perf_counter() - start)
    return TaskResult(
        index=index, value=value, duration_s=time.perf_counter() - start
    )


class Executor:
    """Base class / protocol for the pluggable execution backends.

    Subclasses implement :meth:`_run`; :meth:`map_tasks` wraps it with
    the shared contract -- deterministic submission-order results,
    per-task error capture, and ``executor.*`` instrumentation
    (``map_calls`` / ``tasks`` / ``task_errors`` counters plus an
    ``executor.<label>`` span per map).
    """

    name = "executor"

    @property
    def workers(self) -> int:
        """Worker slots this backend runs tasks on (1 for serial)."""
        return 1

    def map_tasks(
        self, fn: Callable, items: Iterable, label: str = "map"
    ) -> list[TaskResult]:
        """Apply ``fn`` to every item; results in submission order.

        ``fn`` must accept one positional argument (the item).  A task
        that raises is captured as a failed :class:`TaskResult` -- the
        map always returns ``len(items)`` results.
        """
        items = list(items)
        with instrument.span(
            f"executor.{label}",
            backend=self.name,
            tasks=len(items),
            workers=self.workers,
        ):
            instrument.incr("executor.map_calls")
            instrument.incr("executor.tasks", len(items))
            instrument.set_gauge("executor.workers", self.workers)
            results = self._run(fn, items, label)
            errors = sum(1 for r in results if not r.ok)
            if errors:
                instrument.incr("executor.task_errors", errors)
        return results

    def _run(
        self, fn: Callable, items: list, label: str = "map"
    ) -> list[TaskResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled workers (no-op for pool-less backends)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process, in-order execution -- the reference backend.

    Parallel backends are validated against it bit-for-bit; it is also
    the fallback :func:`resolve_executor` picks for a worker count of 1.
    """

    name = "serial"

    def _run(
        self, fn: Callable, items: list, label: str = "map"
    ) -> list[TaskResult]:
        return [
            _run_task(fn, index, item, label)
            for index, item in enumerate(items)
        ]


class ProcessExecutor(Executor):
    """Process-pool backend (lazy ``ProcessPoolExecutor``).

    Task functions, items and return values must be picklable.  Each
    worker owns its own default :class:`~repro.core.engine.DecodeEngine`
    (and operator cache), so same-shape tasks amortise template
    construction inside every worker just like the parent does.  Every
    worker starts with empty chaos hook registries, so no injector
    attached in the parent fires in a worker.
    """

    name = "process"

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers) if workers is not None else None
        self._pool: futures.ProcessPoolExecutor | None = None

    @property
    def workers(self) -> int:
        """Configured worker count (defaults to :func:`default_workers`)."""
        return self._workers or default_workers()

    def submit(
        self, fn: Callable, items: Sequence, indices: Iterable[int], label: str
    ) -> list:
        """Submit the tasks at ``indices`` to the (lazily built) pool.

        Returns one entry per index: the task's future, or a failed
        :class:`TaskResult` where the pool refused the task (a broken
        pool raises at submission).
        """
        if self._pool is None:
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker
            )
        pending = []
        for index in indices:
            task = (_run_task, fn, index, items[index], label)
            try:
                pending.append(self._pool.submit(*task))
            except Exception as exc:  # noqa: BLE001 - broken pool
                pending.append(_failed(index, exc))
        return pending

    def _run(
        self, fn: Callable, items: list, label: str = "map"
    ) -> list[TaskResult]:
        pending = self.submit(fn, items, range(len(items)), label)
        results = []
        for index, entry in enumerate(pending):
            try:
                results.append(
                    entry if isinstance(entry, TaskResult) else entry.result()
                )
            except Exception as exc:  # noqa: BLE001 - submission failures
                # e.g. an unpicklable task: the worker never saw it, so
                # capture the error here.
                results.append(_failed(index, exc))
        return results

    def close(self) -> None:
        """Shut the pool down (it is lazily rebuilt on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


@dataclass(frozen=True)
class WorkerLossEvent:
    """One worker loss a :class:`SupervisedExecutor` detected.

    Attributes
    ----------
    label:
        The ``map_tasks`` label the loss occurred under.
    index:
        Submission index of the lost task.
    kind:
        ``"crash"`` (the task raised :class:`WorkerCrash` / the pool
        broke) or ``"timeout"`` (no result within ``timeout_s`` despite
        heartbeat polling).
    error:
        The captured error string.
    retry_round:
        0 for a loss on the first attempt, ``n`` for a loss during the
        ``n``-th retry.
    """

    label: str
    index: int
    kind: str
    error: str
    retry_round: int


class SupervisedExecutor(Executor):
    """Worker supervision wrapped around any inner backend.

    The unsupervised backends equate a dead or hung worker with a
    failed *task*: a :class:`WorkerCrash` surfaces as an error result,
    and a hang blocks ``map_tasks`` forever.  This wrapper treats both
    as *infrastructure* faults and contains them:

    * **heartbeat/timeout detection** -- on a process-pool inner backend
      each task's future is polled every ``heartbeat_s``; a task with
      no result after ``timeout_s`` is declared lost (``"timeout"``)
      and its future abandoned, so one hung worker can never stall the
      dispatch loop (a serial inner backend cannot be preempted:
      overlong serial tasks are counted under ``executor.worker_slow``
      but keep their results);
    * **retry on surviving workers** -- lost tasks are resubmitted at
      once (up to ``max_retries`` rounds); a broken process pool is
      torn down first so the lazy rebuild provisions fresh workers;
    * **accounting** -- every loss increments ``executor.worker_lost``
      (and ``executor.worker_lost.<kind>``), every resubmission
      ``executor.worker_retries``, and a drainable
      :class:`WorkerLossEvent` trail (:meth:`pop_losses`) lets the
      decode service raise per-stream alerts.

    Tasks must be idempotent to retry -- true for every decode fan-out
    in this repo, whose RNG-consuming acquisition happens *before* the
    fan-out (the execution-layer determinism contract).
    """

    name = "supervised"

    def __init__(
        self,
        inner: "Executor | str | int | None" = None,
        timeout_s: float | None = None,
        heartbeat_s: float = 0.05,
        max_retries: int = 2,
    ):
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        resolved = resolve_executor(inner) if inner is not None else None
        self.inner = resolved if resolved is not None else SerialExecutor()
        if isinstance(self.inner, SupervisedExecutor):
            raise ValueError("cannot nest SupervisedExecutor in itself")
        self.timeout_s = timeout_s
        self.heartbeat_s = float(heartbeat_s)
        self.max_retries = int(max_retries)
        self._losses: list[WorkerLossEvent] = []

    @property
    def workers(self) -> int:
        """Worker slots of the wrapped backend."""
        return self.inner.workers

    def pop_losses(self) -> tuple[WorkerLossEvent, ...]:
        """Drain the worker-loss events recorded since the last call."""
        losses = tuple(self._losses)
        self._losses.clear()
        return losses

    def close(self) -> None:
        """Release the wrapped backend's pooled workers."""
        self.inner.close()

    # -- supervision internals ----------------------------------------------
    @staticmethod
    def _loss_kind(result: TaskResult) -> str | None:
        """Classify a task result as a worker loss (or ``None``)."""
        if result.ok or result.error is None:
            return None
        if result.error.startswith("WorkerTimeout"):
            return "timeout"
        if result.error.startswith(_LOSS_PREFIXES):
            return "crash"
        return None

    def _run(
        self, fn: Callable, items: list, label: str = "map"
    ) -> list[TaskResult]:
        results: dict[int, TaskResult] = {}
        todo = list(range(len(items)))
        for attempt in range(self.max_retries + 1):
            if not todo:
                break
            batch = self._attempt(fn, items, todo, label)
            retry: list[int] = []
            for index, result in zip(todo, batch):
                kind = self._loss_kind(result)
                if kind is None:
                    results[index] = result
                    continue
                self._losses.append(
                    WorkerLossEvent(
                        label=label,
                        index=index,
                        kind=kind,
                        error=result.error or "",
                        retry_round=attempt,
                    )
                )
                instrument.incr("executor.worker_lost")
                instrument.incr(f"executor.worker_lost.{kind}")
                if kind == "crash" and not result.error.startswith(
                    "WorkerCrash"
                ):
                    # Real pool breakage: tear it down so the lazy
                    # rebuild provisions fresh workers for the retry.
                    self.inner.close()
                if attempt < self.max_retries:
                    instrument.incr("executor.worker_retries")
                    retry.append(index)
                else:
                    results[index] = result
            todo = retry
        return [results[index] for index in range(len(items))]

    def _attempt(
        self, fn: Callable, items: list, indices: list, label: str
    ) -> list[TaskResult]:
        """Run the tasks at ``indices`` once through the inner backend."""
        if isinstance(self.inner, ProcessExecutor):
            pending = self.inner.submit(fn, items, indices, label)
            return [
                self._await(entry, index)
                for index, entry in zip(indices, pending)
            ]
        results = []
        for index in indices:
            result = _run_task(fn, index, items[index], label)
            if (
                self.timeout_s is not None
                and result.ok
                and result.duration_s > self.timeout_s
            ):
                # A serial task cannot be preempted; flag the overrun
                # but keep its (already computed) result.
                instrument.incr("executor.worker_slow")
            results.append(result)
        return results

    def _await(self, future, index: int) -> TaskResult:
        """Heartbeat-poll one future; declare it lost on timeout.

        A failed :class:`TaskResult` in place of the future (the pool
        refused the task) passes straight through.
        """
        if isinstance(future, TaskResult):
            return future
        waited = 0.0
        while True:
            step = self.heartbeat_s
            if self.timeout_s is not None:
                step = min(step, max(1e-6, self.timeout_s - waited))
            try:
                return future.result(timeout=step)
            except futures.TimeoutError:
                waited += step
                instrument.incr("executor.heartbeats")
                if self.timeout_s is not None and waited >= self.timeout_s:
                    future.cancel()
                    return TaskResult(
                        index=index,
                        error=(
                            f"WorkerTimeout: no result within "
                            f"{self.timeout_s}s (heartbeat "
                            f"{self.heartbeat_s}s)"
                        ),
                        duration_s=waited,
                    )
            except Exception as exc:  # noqa: BLE001 - pool breakage
                return _failed(index, exc)


def resolve_executor(spec, workers: int | None = None) -> Executor | None:
    """Normalise the shared ``executor=`` argument convention.

    =============================  =======================================
    ``spec``                       resolves to
    =============================  =======================================
    ``None``                       ``None`` (the call site runs
                                   in-process, in order)
    an :class:`Executor` instance  itself (any object with ``map_tasks``
                                   qualifies)
    ``"serial"``                   :class:`SerialExecutor`
    ``"process"``                  :class:`ProcessExecutor`
    ``int n``                      ``n <= 1`` -> serial, else a process
                                   pool with ``n`` workers
    =============================  =======================================

    ``workers`` overrides the pool size of the ``"process"`` form.

    Invalid specs fail *here*, with a message naming the accepted
    forms, rather than surfacing later as a cryptic pool-construction
    error deep inside ``concurrent.futures``: a zero/negative worker
    count (as ``spec`` or as ``workers``) and an unknown spec string
    are both rejected with :class:`ValueError` up front.
    """
    if workers is not None and workers < 1:
        raise ValueError(
            f"workers must be >= 1, got {workers} (pass None to use the "
            "backend default)"
        )
    if spec is None:
        return None
    if hasattr(spec, "map_tasks"):
        return spec
    if isinstance(spec, int) and not isinstance(spec, bool):
        if spec < 1:
            raise ValueError(
                f"worker count must be >= 1, got {spec}; pass 1 for the "
                "serial backend or n >= 2 for an n-worker process pool"
            )
        return SerialExecutor() if spec == 1 else ProcessExecutor(spec)
    if isinstance(spec, str):
        kind = spec.strip().lower()
        if kind == "serial":
            return SerialExecutor()
        if kind == "process":
            return ProcessExecutor(workers)
        raise ValueError(
            f"unknown executor spec {spec!r}; accepted strings are "
            "'serial' and 'process'"
        )
    raise ValueError(
        f"cannot resolve executor spec {spec!r}; expected None, an "
        "Executor instance, 'serial' | 'process', or a worker count >= 1"
    )
