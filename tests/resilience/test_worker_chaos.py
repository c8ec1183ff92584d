"""Tests for the executor-layer chaos family (repro.resilience.worker_chaos)."""

import time

import numpy as np
import pytest

from repro import instrument
from repro.core.engine import DecodeContext, get_engine
from repro.core.executor import (
    ProcessExecutor,
    SerialExecutor,
    SupervisedExecutor,
    WorkerCrash,
    collect_values,
)
from repro.resilience import (
    SolverExceptionInjector,
    WorkerCrashInjector,
    WorkerHangInjector,
    WorkerSlowStartInjector,
    chaos,
    default_taxonomy,
    default_worker_taxonomy,
)


def _double(x):
    return x * 2


def _hook_counts(_):
    """Sizes of the worker, solve and array hook registries here."""
    from repro.array import hooks
    from repro.core import executor, solvers

    return (
        len(executor._WORKER_HOOKS),
        len(solvers._SOLVE_HOOKS),
        len(hooks._ARRAY_HOOKS),
    )


class TestInjectors:
    def test_crash_injector_surfaces_as_worker_crash_error(self):
        injector = WorkerCrashInjector(rate=1.0, seed=0)
        with chaos(injector):
            results = SerialExecutor().map_tasks(_double, [1])
        assert not results[0].ok
        assert results[0].error.startswith("WorkerCrash")
        assert "injected worker crash" in results[0].error
        assert injector.trips == 1

    def test_crash_injector_raises_outside_executor(self):
        injector = WorkerCrashInjector(rate=1.0, seed=0)
        with pytest.raises(WorkerCrash, match="injected worker crash"):
            injector.before_task("manual", 0)

    def test_crash_injector_rate_zero_never_fires(self):
        injector = WorkerCrashInjector(rate=0.0, seed=0)
        with chaos(injector):
            values = collect_values(
                SerialExecutor().map_tasks(_double, list(range(20)))
            )
        assert values == [x * 2 for x in range(20)]
        assert injector.trips == 0

    def test_hang_injector_stalls_the_task(self):
        injector = WorkerHangInjector(rate=1.0, seed=0, hang_s=0.05)
        start = time.monotonic()
        with chaos(injector):
            values = collect_values(SerialExecutor().map_tasks(_double, [3]))
        assert values == [6]
        assert time.monotonic() - start >= 0.04
        assert injector.trips == 1

    def test_slow_start_fires_once_per_worker(self):
        injector = WorkerSlowStartInjector(rate=1.0, seed=0, delay_s=0.0)
        with chaos(injector):
            SerialExecutor().map_tasks(_double, list(range(10)))
        # Serial backend = one thread = one cold start.
        assert injector.trips == 1
        injector.reset()
        assert injector.trips == 0
        with chaos(injector):
            SerialExecutor().map_tasks(_double, [1])
        assert injector.trips == 1

    def test_seeded_runs_trip_identically(self):
        trips = []
        for _ in range(2):
            injector = WorkerCrashInjector(rate=0.5, seed=42)
            with chaos(injector):
                results = SerialExecutor().map_tasks(
                    _double, list(range(12))
                )
            trips.append(tuple(r.ok for r in results))
        assert trips[0] == trips[1]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="hang_s"):
            WorkerHangInjector(hang_s=-1)
        with pytest.raises(ValueError, match="delay_s"):
            WorkerSlowStartInjector(delay_s=-1)
        with pytest.raises(ValueError, match="rate"):
            WorkerCrashInjector(rate=1.5)

    def test_hooks_detach_on_exit(self):
        injector = WorkerCrashInjector(rate=1.0, seed=0)
        with chaos(injector):
            pass
        results = SerialExecutor().map_tasks(_double, [1])
        assert results[0].ok


class TestSupervisedUnderChaos:
    def test_supervision_absorbs_injected_crashes(self):
        executor = SupervisedExecutor(SerialExecutor(), max_retries=4)
        injector = WorkerCrashInjector(rate=0.4, seed=1)
        with chaos(injector):
            values = collect_values(
                executor.map_tasks(_double, list(range(10)))
            )
        assert values == [x * 2 for x in range(10)]
        assert injector.trips > 0
        assert len(executor.pop_losses()) == injector.trips

    def test_supervision_times_out_injected_hangs(self):
        """Hooks run in the submitting process, so the hang lands on a
        serial inner backend; its timeout cannot preempt the task, so
        the overrun is counted as ``executor.worker_slow`` and the
        result kept."""
        executor = SupervisedExecutor(
            SerialExecutor(), timeout_s=0.05, heartbeat_s=0.01, max_retries=0
        )
        injector = WorkerHangInjector(rate=1.0, seed=0, hang_s=0.1)
        with instrument.profiled() as session, chaos(injector):
            values = collect_values(executor.map_tasks(_double, [1]))
        assert values == [2]
        assert injector.trips == 1
        assert executor.pop_losses() == ()
        counters = session.report()["metrics"]["counters"]
        assert counters["executor.worker_slow"] == 1


class TestProcessWorkersStartClean:
    """A pool forked inside a ``chaos()`` block must not inherit it."""

    def test_worker_hooks_do_not_cross_into_workers(self):
        executor = ProcessExecutor(2)
        injector = WorkerCrashInjector(rate=1.0, seed=0)
        with chaos(injector):
            # The pool forks here, while the injector is attached.
            inside = collect_values(executor.map_tasks(_double, range(4)))
        after = collect_values(executor.map_tasks(_double, range(4)))
        executor.close()
        assert inside == after == [0, 2, 4, 6]
        assert injector.trips == 0

    def test_every_hook_registry_starts_empty_in_a_worker(self):
        from repro.resilience.array_chaos import StuckPixelRowInjector

        injectors = (
            WorkerCrashInjector(rate=0.0),
            SolverExceptionInjector(rate=0.0),
            StuckPixelRowInjector(rate=0.0),
        )
        with ProcessExecutor(2) as executor, chaos(*injectors):
            assert _hook_counts(None) == (1, 1, 1)
            counts = collect_values(executor.map_tasks(_hook_counts, [0, 1]))
        assert counts == [(0, 0, 0), (0, 0, 0)]

    def test_solve_hooks_do_not_cross_into_workers(self):
        frames = list(np.random.default_rng(1).random((3, 8, 8)))
        plan = DecodeContext(shape=(8, 8), sampling_fraction=0.5)
        reference = get_engine().decode_batch(
            frames, plan, np.random.default_rng(0)
        )
        executor = ProcessExecutor(2)
        injector = SolverExceptionInjector(rate=1.0, seed=0)
        with chaos(injector):
            inside = get_engine().decode_batch(
                frames, plan, np.random.default_rng(0), executor=executor
            )
        executor.close()
        assert injector.trips == 0
        for got, ref in zip(inside, reference):
            np.testing.assert_array_equal(got, ref)


class TestTaxonomy:
    def test_worker_taxonomy_families_and_seeds(self):
        taxonomy = default_worker_taxonomy(0.3, seed=10)
        assert [type(i).__name__ for i in taxonomy] == [
            "WorkerCrashInjector",
            "WorkerHangInjector",
            "WorkerSlowStartInjector",
        ]
        assert [i.seed for i in taxonomy] == [10, 11, 12]
        assert all(i.rate == pytest.approx(0.1) for i in taxonomy)
        assert all(i.layer == "executor" for i in taxonomy)

    def test_default_taxonomy_layer_executor(self):
        taxonomy = default_taxonomy(0.3, seed=5, layer="executor")
        assert len(taxonomy) == 3
        assert all(i.layer == "executor" for i in taxonomy)

    def test_default_taxonomy_layer_all_includes_workers(self):
        taxonomy = default_taxonomy(0.3, seed=0, layer="all")
        layers = {i.layer for i in taxonomy}
        assert layers == {"solver", "array", "executor"}
        worker_seeds = [i.seed for i in taxonomy if i.layer == "executor"]
        assert worker_seeds == [11, 12, 13]

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="fault_rate"):
            default_worker_taxonomy(1.5)
