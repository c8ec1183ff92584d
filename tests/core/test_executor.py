"""Tests for the pluggable execution backends (repro.core.executor)."""

import os
import pickle
import time

import numpy as np
import pytest

from repro import instrument
from repro.core.executor import (
    ProcessExecutor,
    SerialExecutor,
    TaskError,
    TaskResult,
    collect_values,
    default_workers,
    resolve_executor,
)


def _square(x):
    return x * x


def _flaky(x):
    if x == 2:
        raise ValueError("boom on two")
    return x + 10


BACKENDS = [SerialExecutor, lambda: ProcessExecutor(2)]


class TestMapTasks:
    @pytest.mark.parametrize("make", BACKENDS)
    def test_results_in_submission_order(self, make):
        with make() as executor:
            results = executor.map_tasks(_square, range(8))
        assert [r.index for r in results] == list(range(8))
        assert [r.value for r in results] == [i * i for i in range(8)]
        assert all(r.ok for r in results)

    @pytest.mark.parametrize("make", BACKENDS)
    def test_error_capture_isolates_failures(self, make):
        with make() as executor:
            results = executor.map_tasks(_flaky, range(4))
        assert [r.ok for r in results] == [True, True, False, True]
        assert "ValueError: boom on two" in results[2].error
        assert results[2].value is None
        # Healthy siblings are unaffected.
        assert results[3].value == 13

    @pytest.mark.parametrize("make", BACKENDS)
    def test_empty_map(self, make):
        with make() as executor:
            assert executor.map_tasks(_square, []) == []

    def test_durations_recorded(self):
        results = SerialExecutor().map_tasks(_square, range(3))
        assert all(r.duration_s >= 0.0 for r in results)

    def test_unpicklable_task_fails_cleanly_on_process_pool(self):
        with ProcessExecutor(2) as executor:
            results = executor.map_tasks(lambda x: x, [1])
        assert not results[0].ok

    def test_metrics_emitted(self):
        with instrument.profiled() as session:
            SerialExecutor().map_tasks(_flaky, range(4), label="unit")
        report = session.report()
        counters = report["metrics"]["counters"]
        assert counters["executor.map_calls"] == 1
        assert counters["executor.tasks"] == 4
        assert counters["executor.task_errors"] == 1
        assert "executor.unit" in report["span_summary"]


class TestCollectValues:
    def test_unwraps_values(self):
        results = [TaskResult(index=0, value="a"), TaskResult(index=1, value="b")]
        assert collect_values(results) == ["a", "b"]

    def test_raises_naming_failed_tasks(self):
        results = [
            TaskResult(index=0, value="a"),
            TaskResult(index=1, error="ValueError: nope"),
        ]
        with pytest.raises(TaskError, match="task 1: ValueError: nope"):
            collect_values(results)


class TestResolveExecutor:
    def test_none_keeps_legacy_path(self):
        assert resolve_executor(None) is None

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_strings(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)
        assert isinstance(resolve_executor(" Process "), ProcessExecutor)

    @pytest.mark.parametrize("gone", ["thread", "threads", "processes"])
    def test_removed_specs_name_the_accepted_forms(self, gone):
        with pytest.raises(ValueError, match="'serial' and 'process'"):
            resolve_executor(gone)

    def test_worker_counts(self):
        assert isinstance(resolve_executor(1), SerialExecutor)
        pool = resolve_executor(3)
        assert isinstance(pool, ProcessExecutor)
        assert pool.workers == 3

    def test_workers_override_for_strings(self):
        assert resolve_executor("process", workers=5).workers == 5

    @pytest.mark.parametrize("bad", [True, False, "warp-drive", 2.5])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            resolve_executor(bad)

    @pytest.mark.parametrize("count", [0, -1, -8])
    def test_rejects_nonpositive_worker_counts(self, count):
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            resolve_executor(count)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_nonpositive_workers_override(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_executor("process", workers=workers)

    def test_unknown_string_names_accepted_forms(self):
        with pytest.raises(ValueError, match="'serial'"):
            resolve_executor("warp-drive")

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestPoolLifecycle:
    def test_close_then_reuse_rebuilds_pool(self):
        executor = ProcessExecutor(2)
        assert collect_values(executor.map_tasks(_square, [3])) == [9]
        executor.close()
        assert collect_values(executor.map_tasks(_square, [4])) == [16]
        executor.close()

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_numpy_payloads_cross_process_boundary(self):
        frames = [np.full((4, 4), float(i)) for i in range(3)]
        with ProcessExecutor(2) as executor:
            results = collect_values(executor.map_tasks(np.sum, frames))
        assert results == [0.0, 16.0, 32.0]

    def test_broken_pool_answers_every_task_until_closed(self, tmp_path):
        executor = ProcessExecutor(2)
        (first,) = executor.map_tasks(
            _exit_once_on_two, [(2, str(tmp_path / "died"))]
        )
        assert first.error.startswith("BrokenProcessPool")
        # The broken pool refuses new work: a failed result per task,
        # not an exception out of map_tasks.
        refused = executor.map_tasks(_square, [1, 2])
        assert all(r.error.startswith("BrokenProcessPool") for r in refused)
        executor.close()
        assert collect_values(executor.map_tasks(_square, [3])) == [9]
        executor.close()

    def test_task_results_picklable(self):
        result = TaskResult(index=1, value=2.0, duration_s=0.1)
        assert pickle.loads(pickle.dumps(result)) == result


def _sleep_on_one(x):
    if x == 1:
        time.sleep(1.0)
    return x


def _exit_once_on_two(item):
    """Kill the worker process the first time item 2 runs."""
    x, marker = item
    if x == 2 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return x * 10


def _crash_on_two(x):
    from repro.core.executor import WorkerCrash

    if x == 2:
        raise WorkerCrash("injected loss on two")
    return x * 10


class TestSupervisedExecutor:
    def test_wraps_any_backend_and_passes_clean_work_through(self):
        from repro.core.executor import SupervisedExecutor

        for inner in (SerialExecutor(), ProcessExecutor(2)):
            executor = SupervisedExecutor(inner)
            assert collect_values(
                executor.map_tasks(_square, [1, 2, 3])
            ) == [1, 4, 9]
            assert executor.pop_losses() == ()
            executor.close()

    def test_worker_crash_is_retried_not_surfaced(self):
        from repro.core.executor import SupervisedExecutor, WorkerCrash

        calls = []

        def flaky_once(x):
            calls.append(x)
            if x == 2 and calls.count(2) == 1:
                raise WorkerCrash("first attempt dies")
            return x * 10

        executor = SupervisedExecutor(SerialExecutor(), max_retries=2)
        values = collect_values(executor.map_tasks(flaky_once, [1, 2, 3]))
        assert values == [10, 20, 30]
        losses = executor.pop_losses()
        assert len(losses) == 1
        assert losses[0].kind == "crash"
        assert losses[0].index == 1
        # pop_losses drains.
        assert executor.pop_losses() == ()

    def test_exhausted_retries_surface_the_failure(self):
        from repro.core.executor import SupervisedExecutor

        executor = SupervisedExecutor(SerialExecutor(), max_retries=1)
        results = executor.map_tasks(_crash_on_two, [1, 2, 3])
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].error.startswith("WorkerCrash")
        # One loss per attempt: initial + 1 retry.
        assert len(executor.pop_losses()) == 2

    def test_hung_worker_times_out_and_unblocks_the_caller(self):
        from repro.core.executor import SupervisedExecutor

        executor = SupervisedExecutor(
            ProcessExecutor(2),
            timeout_s=0.2,
            heartbeat_s=0.01,
            max_retries=0,
        )
        # Warm the pool so worker start-up is not charged to the hang.
        assert collect_values(executor.map_tasks(_square, [1, 2])) == [1, 4]
        start = time.monotonic()
        results = executor.map_tasks(_sleep_on_one, [0, 1])
        elapsed = time.monotonic() - start
        assert elapsed < 0.9, "timeout must beat the hang"
        assert results[0].ok and results[0].value == 0
        assert not results[1].ok
        assert results[1].error.startswith("WorkerTimeout")
        assert [loss.kind for loss in executor.pop_losses()] == ["timeout"]
        executor.close()

    def test_dead_worker_process_is_retried_on_a_rebuilt_pool(
        self, tmp_path
    ):
        from repro.core.executor import SupervisedExecutor

        executor = SupervisedExecutor(ProcessExecutor(2), max_retries=2)
        assert collect_values(executor.map_tasks(_square, [3])) == [9]
        first_pool = executor.inner._pool
        items = [(x, str(tmp_path / "died")) for x in range(4)]
        values = collect_values(executor.map_tasks(_exit_once_on_two, items))
        assert values == [0, 10, 20, 30]
        assert (tmp_path / "died").exists()
        losses = executor.pop_losses()
        assert losses and {loss.kind for loss in losses} == {"crash"}
        assert all(
            loss.error.startswith("BrokenProcessPool") for loss in losses
        )
        assert all(loss.retry_round == 0 for loss in losses)
        # The broken pool was torn down and a fresh one ran the retry.
        assert executor.inner._pool not in (None, first_pool)
        executor.close()

    def test_serial_inner_flags_overruns_but_keeps_results(self):
        import time as _time

        from repro import instrument as _instrument
        from repro.core.executor import SupervisedExecutor

        def slow(x):
            _time.sleep(0.03)
            return x

        executor = SupervisedExecutor(SerialExecutor(), timeout_s=0.001)
        _instrument.enable()
        try:
            _instrument.reset()
            values = collect_values(executor.map_tasks(slow, [7]))
        finally:
            report = _instrument.report()
            _instrument.disable()
            _instrument.reset()
        assert values == [7]
        assert _instrument.counter_value(report, "executor.worker_slow") == 1

    def test_loss_counter_increments(self):
        from repro import instrument as _instrument
        from repro.core.executor import SupervisedExecutor

        executor = SupervisedExecutor(SerialExecutor(), max_retries=0)
        _instrument.enable()
        try:
            _instrument.reset()
            executor.map_tasks(_crash_on_two, [2])
        finally:
            report = _instrument.report()
            _instrument.disable()
            _instrument.reset()
        assert _instrument.counter_value(report, "executor.worker_lost") == 1
        assert (
            _instrument.counter_value(report, "executor.worker_lost.crash")
            == 1
        )

    def test_nesting_rejected(self):
        from repro.core.executor import SupervisedExecutor

        with pytest.raises(ValueError, match="nest"):
            SupervisedExecutor(SupervisedExecutor())

    def test_parameter_validation(self):
        from repro.core.executor import SupervisedExecutor

        with pytest.raises(ValueError, match="timeout_s"):
            SupervisedExecutor(timeout_s=0)
        with pytest.raises(ValueError, match="heartbeat_s"):
            SupervisedExecutor(heartbeat_s=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisedExecutor(max_retries=-1)

    def test_loss_events_are_ordered_and_labelled(self):
        from repro.core.executor import SupervisedExecutor

        executor = SupervisedExecutor(SerialExecutor(), max_retries=0)
        executor.map_tasks(_crash_on_two, [2, 2], label="decode_batch")
        losses = executor.pop_losses()
        assert [loss.label for loss in losses] == ["decode_batch"] * 2
        assert [loss.index for loss in losses] == [0, 1]
        assert [loss.retry_round for loss in losses] == [0, 0]
