"""Unit tests for budgets, retry policy and the circuit breaker."""

import pytest

from repro.resilience import (
    DEFAULT_FALLBACK_CHAIN,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
    SolverBudget,
)
from repro.resilience.policies import COOLDOWN, FAILURE_THRESHOLD


class TestSolverBudget:
    def test_filters_unsupported_kwargs(self):
        budget = SolverBudget(max_iterations=50, time_limit_s=1.0)
        assert budget.solver_options("fista") == {
            "max_iterations": 50,
            "time_limit_s": 1.0,
        }
        assert budget.solver_options("omp") == {"time_limit_s": 1.0}
        assert budget.solver_options("bp") == {}

    def test_none_leaves_defaults(self):
        assert SolverBudget().solver_options("fista") == {}

    def test_unknown_solver_gets_both(self):
        budget = SolverBudget(max_iterations=10, time_limit_s=2.0)
        assert budget.solver_options("future_solver") == {
            "max_iterations": 10,
            "time_limit_s": 2.0,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverBudget(max_iterations=0)
        with pytest.raises(ValueError):
            SolverBudget(time_limit_s=0.0)


class TestRetryPolicy:
    def test_default_bounded(self):
        assert RetryPolicy().max_rounds == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_rounds=0)


def _open(breaker, solver="fista"):
    """Record the failure streak that opens ``solver``'s breaker."""
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure(solver)
    assert breaker.is_open(solver)


class TestCircuitBreaker:
    def test_closed_by_default(self):
        breaker = CircuitBreaker()
        assert breaker.allow("fista")
        assert not breaker.is_open("fista")

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure("fista")
        assert breaker.is_open("fista")
        assert not breaker.allow("fista")

    def test_success_resets_streak(self):
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure("fista")
        breaker.record_success("fista")
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure("fista")
        assert not breaker.is_open("fista")

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker()
        _open(breaker)
        denials = [breaker.allow("fista") for _ in range(COOLDOWN)]
        assert denials == [False] * COOLDOWN
        assert breaker.allow("fista")  # the half-open probe

    def test_probe_success_closes(self):
        breaker = CircuitBreaker()
        _open(breaker)
        for _ in range(COOLDOWN):
            assert not breaker.allow("fista")
        assert breaker.allow("fista")  # probe
        breaker.record_success("fista")
        assert not breaker.is_open("fista")
        assert breaker.allow("fista")

    def test_per_solver_isolation(self):
        breaker = CircuitBreaker()
        _open(breaker)
        assert breaker.is_open("fista")
        assert breaker.allow("omp")

    def test_reset(self):
        breaker = CircuitBreaker()
        _open(breaker)
        breaker.reset()
        assert not breaker.is_open("fista")
        assert breaker.allow("fista")

    def test_failed_probe_restarts_a_full_cooldown(self):
        breaker = CircuitBreaker()
        _open(breaker)
        cycle = [False] * COOLDOWN + [True]  # cooldown, then probe
        assert [
            breaker.allow("fista") for _ in range(COOLDOWN + 1)
        ] == cycle
        breaker.record_failure("fista")  # probe failed: re-open
        assert [
            breaker.allow("fista") for _ in range(COOLDOWN + 1)
        ] == cycle  # a fresh, full cooldown


class TestCircuitBreakerConcurrency:
    """The breaker is shared by concurrent decode-service callers.

    These regressions pin the thread-safety contract: state transitions
    are serialised, exactly one caller wins each half-open probe, and
    racing success/failure records never corrupt the counters.
    """

    def _hammer(self, fn, threads=8, rounds=50):
        import threading

        barrier = threading.Barrier(threads)
        results = [None] * threads

        def body(slot):
            barrier.wait()
            results[slot] = [fn() for _ in range(rounds)]

        workers = [
            threading.Thread(target=body, args=(slot,))
            for slot in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return results

    def test_exactly_one_probe_per_cooldown_under_contention(self):
        breaker = CircuitBreaker()
        _open(breaker)
        results = self._hammer(
            lambda: breaker.allow("fista"), threads=8, rounds=50
        )
        admitted = sum(r.count(True) for r in results)
        # 400 calls while open: one probe per elapsed cooldown window,
        # never more (the failed-probe counter resets atomically).
        assert admitted == 400 // (COOLDOWN + 1)

    def test_racing_transitions_leave_a_consistent_machine(self):
        breaker = CircuitBreaker()

        def churn():
            breaker.record_failure("fista")
            breaker.allow("fista")
            breaker.record_success("fista")
            return breaker.is_open("fista")

        self._hammer(churn, threads=8, rounds=25)
        # Whatever interleaving happened, the machine must still work:
        # a clean failure streak opens it, a success closes it.
        breaker.reset()
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure("fista")
        assert breaker.is_open("fista")
        breaker.record_success("fista")
        assert not breaker.is_open("fista")
        assert breaker.allow("fista")

    def test_probe_grant_then_concurrent_success_close(self):
        breaker = CircuitBreaker()
        _open(breaker)
        for _ in range(COOLDOWN):
            assert not breaker.allow("fista")
        assert breaker.allow("fista")  # the probe slot
        # Concurrent successes (probe result + healthy sibling solves)
        # must close the breaker exactly once, without deadlock.
        self._hammer(
            lambda: breaker.record_success("fista"), threads=4, rounds=10
        )
        assert not breaker.is_open("fista")
        assert breaker.allow("fista")


class TestResiliencePolicy:
    def test_default_chain(self):
        policy = ResiliencePolicy()
        assert policy.fallback_chain == DEFAULT_FALLBACK_CHAIN
        assert policy.fallback_chain[0] == "fista"

    def test_budget_override_per_solver(self):
        tight = SolverBudget(max_iterations=5)
        policy = ResiliencePolicy(
            budget=SolverBudget(max_iterations=100),
            budgets={"bp_dr": tight},
        )
        assert policy.budget_for("bp_dr") is tight
        assert policy.budget_for("fista").max_iterations == 100

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(fallback_chain=())
