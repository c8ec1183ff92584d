"""Supervised decode runtime: fallback chains, retries, degradation.

The plain decode path (:func:`repro.core.sample_and_reconstruct`)
surfaces a diverging solver, a poisoned measurement vector or a
pathological sampling draw as an exception or silent garbage.  This
module wraps it in policy-driven supervision so the answer to "what do
we show for this frame?" is *always* a frame plus a structured
:class:`DecodeOutcome`:

1. try each solver of the fallback chain under its iteration/time
   budget, skipping solvers the circuit breaker has sidelined;
2. health-validate every reconstruction (NaN/Inf/shape/range/residual);
3. on a failed round, retry the whole chain (bounded by the retry
   policy) -- with a *fresh sampling draw* where the caller can draw
   one;
4. when everything fails, serve the last good frame (zero-order hold)
   or a fill frame -- never raise, never return garbage silently.

:func:`supervise` is that loop, and the only copy of it: the
:class:`ResilientDecoder` (engine decodes of a
:class:`~repro.core.engine.DecodeContext` plan, taking the arguments of
:meth:`~repro.core.engine.DecodeEngine.decode`), the
:class:`ResilientStrategy` (any strategy's ``reconstruct``) and the
policy-supervised :class:`~repro.array.imager.StreamingImager` (its
scan, re-solved) each pass it their own per-attempt callable.

Every retry, fallback, breaker trip and health failure is visible in
the :mod:`repro.instrument` report under ``resilience.*``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .. import instrument
from ..core.engine import DecodeContext, get_engine
from ..core.measurement import get_measurement
from .health import FrameGuard, HealthReport, validate_reconstruction
from .policies import ResiliencePolicy, _attempt_options

__all__ = [
    "AttemptRecord",
    "DecodeOutcome",
    "OUTCOME_SCHEMA",
    "ResilientDecoder",
    "ResilientStrategy",
    "supervise",
]

#: Schema tag stamped on every ``DecodeOutcome.to_dict()`` payload
#: (versioned like ``repro.bench/v1``; bump on incompatible changes).
OUTCOME_SCHEMA = "repro.outcome/v1"

ONE_POLICY_OWNER = (
    "policy=P beside adaptive= would be replaced on the first frame; "
    "pass AdaptivePolicy(base=P) instead"
)


@dataclass(frozen=True)
class AttemptRecord:
    """One supervised solve attempt inside a decode.

    Attributes
    ----------
    round:
        Retry round (1-based; each round is a fresh sampling draw).
    solver:
        Solver name tried (or skipped).
    status:
        ``"ok"`` | ``"error"`` | ``"unhealthy"`` | ``"nonconverged"``
        | ``"breaker_open"``.
    error:
        Exception text or failed-check names, ``None`` on success.
    iterations:
        Solver iterations spent (0 when the attempt never ran).
    duration_s:
        Wall-clock cost of the attempt.
    """

    round: int
    solver: str
    status: str
    error: str | None = None
    iterations: int = 0
    duration_s: float = 0.0


@dataclass
class DecodeOutcome:
    """Structured result of one resilient decode.

    Attributes
    ----------
    frame:
        The delivered frame -- a healthy reconstruction, or the
        graceful-degradation fallback.  Never ``None``.
    status:
        ``"ok"`` (first-choice solver, clean convergence, first try),
        ``"degraded"`` (delivered after retries/fallbacks or from a
        non-converged but healthy solve), or ``"fallback"`` (all
        attempts failed; frame comes from the last-good-frame hold).
    solver:
        Solver that produced ``frame`` (``None`` for fallback frames).
    attempts:
        Per-attempt audit trail, in execution order.
    faults_seen:
        Sorted fault labels observed across the attempts (exception
        type names plus ``"diverged"`` / ``"deadline"`` solver flags).
    health:
        Health report of the delivered reconstruction (``None`` for
        fallback frames, which bypass reconstruction entirely).
    policy_snapshot:
        JSON-safe snapshot of the policy that supervised this decode
        (see :meth:`~repro.resilience.policies.ResiliencePolicy.snapshot`);
        with an adaptive controller attached this records the *tuned*
        policy, making adaptation auditable per frame.
    adaptation_events:
        :class:`~repro.resilience.adaptive.AdaptationEvent` records the
        adaptive controller produced around this decode (empty without
        a controller).
    """

    frame: np.ndarray
    status: str
    solver: str | None
    attempts: list[AttemptRecord] = field(default_factory=list)
    faults_seen: tuple[str, ...] = ()
    health: HealthReport | None = None
    policy_snapshot: dict | None = None
    adaptation_events: tuple = ()

    @property
    def delivered(self) -> bool:
        """Always ``True``: the runtime's contract is a frame per call."""
        return self.frame is not None

    def to_dict(self) -> dict:
        """JSON-safe form (the documented ``DecodeOutcome`` schema).

        Every leaf is coerced through
        :func:`repro.instrument.json_safe`, so ``json.dumps`` works
        even when solver info leaked numpy scalars into e.g.
        ``iterations`` or the policy snapshot.  The payload is tagged
        with ``"schema": "repro.outcome/v1"`` (mirroring
        ``repro.bench/v1``) so downstream consumers -- the serve-layer
        response stream, archived logs -- can detect schema drift; the
        JSON round-trip regression test pins the exact key set.
        """
        return instrument.json_safe(
            {
                "schema": OUTCOME_SCHEMA,
                "status": self.status,
                "solver": self.solver,
                "faults_seen": list(self.faults_seen),
                "attempts": [
                    {
                        "round": a.round,
                        "solver": a.solver,
                        "status": a.status,
                        "error": a.error,
                        "iterations": a.iterations,
                        "duration_s": a.duration_s,
                    }
                    for a in self.attempts
                ],
                "health": None
                if self.health is None
                else {
                    "ok": self.health.ok,
                    "failed": list(self.health.failed),
                },
                "policy_snapshot": self.policy_snapshot,
                "adaptation_events": [
                    event.to_dict() for event in self.adaptation_events
                ],
            }
        )


def _solver_fault_labels(info: dict) -> list[str]:
    """Fault labels carried by a solver result's ``info`` flags."""
    labels = []
    if info.get("diverged"):
        labels.append("diverged")
    if info.get("deadline"):
        labels.append("deadline")
    return labels


def supervise(
    policy: ResiliencePolicy,
    guard: FrameGuard,
    shape: tuple,
    attempt: Callable[[str, dict], tuple],
) -> DecodeOutcome:
    """The retry-round x fallback-chain loop of every supervised decode.

    Walks ``policy.fallback_chain`` for up to ``policy.retry.max_rounds``
    rounds, skipping solvers the breaker has sidelined, and calls
    ``attempt(solver, budget)`` -- ``budget`` being the solver's
    :class:`~repro.resilience.policies.SolverBudget` as keyword options
    -- which returns ``(reconstruction, solver_result, measurements)``.
    An opaque attempt (a wrapped strategy) returns ``None`` for the last
    two: the residual check is skipped and the attempt counts as
    converged.  The first healthy (and, unless
    ``policy.accept_nonconverged``, converged) reconstruction is stored
    in ``guard`` and delivered; when every attempt fails the guard's
    hold frame of ``shape`` is.  What a round re-does is the caller's
    business: the decoder draws a fresh ``Phi_M`` per attempt, the
    imager re-solves its one scan.
    """
    breaker = policy.breaker
    attempts: list[AttemptRecord] = []
    faults: list[str] = []
    instrument.incr("resilience.decodes")
    for round_index in range(1, policy.retry.max_rounds + 1):
        if round_index > 1:
            instrument.incr("resilience.retry_rounds")
        for solver in policy.fallback_chain:
            if breaker is not None and not breaker.allow(solver):
                attempts.append(
                    AttemptRecord(round_index, solver, "breaker_open")
                )
                continue
            record, delivered = _attempt(
                policy, shape, attempt, round_index, solver, faults
            )
            attempts.append(record)
            if delivered is None:
                if breaker is not None:
                    breaker.record_failure(solver)
                continue
            if breaker is not None:
                breaker.record_success(solver)
            reconstruction, health, converged = delivered
            guard.update(reconstruction)
            status = "ok" if converged and len(attempts) == 1 else "degraded"
            instrument.incr(f"resilience.decodes_{status}")
            instrument.observe("resilience.attempts_per_decode", len(attempts))
            return DecodeOutcome(
                frame=reconstruction,
                status=status,
                solver=solver,
                attempts=attempts,
                faults_seen=tuple(sorted(set(faults))),
                health=health,
            )
    # Every attempt failed: graceful degradation.
    instrument.incr("resilience.decodes_fallback")
    instrument.observe("resilience.attempts_per_decode", len(attempts))
    return DecodeOutcome(
        frame=guard.fallback(shape),
        status="fallback",
        solver=None,
        attempts=attempts,
        faults_seen=tuple(sorted(set(faults))),
        health=None,
    )


def _attempt(
    policy: ResiliencePolicy,
    shape: tuple,
    attempt: Callable[[str, dict], tuple],
    round_index: int,
    solver: str,
    faults: list[str],
):
    """Run and judge one attempt; returns ``(record, delivered_or_None)``.

    ``delivered`` is ``(reconstruction, health, converged)`` when the
    attempt produced a deliverable frame.  Fault labels are appended to
    ``faults`` as a side effect.
    """
    instrument.incr("resilience.attempts")
    start = time.perf_counter()
    try:
        with instrument.span(
            "resilience.attempt", solver=solver, round=round_index
        ):
            reconstruction, result, measurements = attempt(
                solver, policy.budget_for(solver).solver_options(solver)
            )
    except Exception as exc:
        faults.append(type(exc).__name__)
        instrument.incr("resilience.attempt_errors")
        error = f"{type(exc).__name__}: {exc}"
        duration = time.perf_counter() - start
        return AttemptRecord(
            round_index, solver, "error", error=error, duration_s=duration
        ), None
    duration = time.perf_counter() - start
    iterations, converged = 0, True
    if result is not None:
        faults.extend(_solver_fault_labels(result.info))
        iterations, converged = result.iterations, result.converged
    health = validate_reconstruction(
        reconstruction,
        expected_shape=shape,
        value_range=policy.value_range,
        solver_result=result,
        measurements=measurements,
        residual_factor=policy.residual_factor,
    )
    status, error = "ok", None
    if not health.ok:
        status, error = "unhealthy", ",".join(health.failed)
    elif not converged and not policy.accept_nonconverged:
        status, error = "nonconverged", "stopping criterion not met"
    record = AttemptRecord(
        round_index,
        solver,
        status,
        error=error,
        iterations=iterations,
        duration_s=duration,
    )
    if status != "ok":
        return record, None
    return record, (reconstruction, health, converged)


@dataclass
class ResilientDecoder:
    """Policy-driven supervisor around the core decode.

    Parameters
    ----------
    policy:
        The :class:`~repro.resilience.policies.ResiliencePolicy` to
        enforce (``None``: a default one).  Its circuit breaker is
        owned by this decoder instance and accumulates failure history
        across frames (that is the point of a breaker); use a fresh
        decoder for independent runs.
    guard:
        Last-good-frame store for graceful degradation; defaults to a
        fresh dark-frame guard.
    adaptive:
        Optional :class:`~repro.resilience.adaptive.AdaptivePolicy`
        feedback controller, which owns the policy: ``policy`` is its
        tuned live policy from construction on, and passing both raises
        ``ValueError``.  Each decode reads that policy, merges the
        controller's stuck-line exclusion mask into the plan's
        exclusions (or, on a family without exclusion support, skips it
        with an explicit ``"unsupported"`` adaptation event), and feeds
        the outcome back so the next frame's policy reflects this
        frame's health.
    """

    policy: ResiliencePolicy | None = None
    guard: FrameGuard = field(default_factory=FrameGuard)
    adaptive: object | None = None

    def __post_init__(self) -> None:
        if self.adaptive is not None:
            if self.policy is not None:
                raise ValueError(ONE_POLICY_OWNER)
            self.policy = self.adaptive.policy
        elif self.policy is None:
            self.policy = ResiliencePolicy()

    def decode(
        self,
        frame: np.ndarray,
        plan: DecodeContext,
        rng: np.random.Generator,
    ) -> DecodeOutcome:
        """Decode one frame under ``plan`` with full supervision.

        Same arguments as :meth:`~repro.core.engine.DecodeEngine.decode`,
        but returns a :class:`DecodeOutcome` and *never raises* past
        input validation: a frame the plan rejects (NaN, wrong shape,
        nothing left to sample once the adaptive mask is merged) raises
        ``ValueError`` before any RNG draw, while solver-side faults
        are contained, retried and degraded.  Each attempt decodes the
        plan with ``solver`` set to the fallback chain's solver and
        that solver's budget merged over ``plan.solver_options`` --
        whole for ``plan.solver``, and for any other solver only the
        budget keywords among them that it accepts; every other plan
        field -- fraction, basis, noise, exclusions, weights, family --
        applies as given, and every attempt draws a fresh ``Phi_M``
        from ``rng``.  With an :attr:`adaptive`
        controller the outcome additionally carries the adaptation
        events and the tuned policy snapshot.
        """
        if self.adaptive is not None:
            self.policy = self.adaptive.policy
            adaptive_mask = self.adaptive.exclusion_mask(plan.shape)
            if adaptive_mask is not None:
                if not get_measurement(plan.measurement).supports_exclusions:
                    # Degrade explicitly, not silently: the stuck-line
                    # mask cannot steer this family's sampling.
                    self.adaptive.note_unsupported(
                        f"measurement family {plan.measurement!r} lacks "
                        f"exclusion support; ignoring "
                        f"{int(adaptive_mask.sum())} stuck-line pixels"
                    )
                else:
                    plan = plan.with_exclusions(adaptive_mask)
        frame = plan.check_frame(frame)

        def attempt(solver: str, budget: dict):
            options = _attempt_options(
                solver, plan.solver, plan.solver_options, budget
            )
            attempt_plan = replace(plan, solver=solver, solver_options=options)
            return get_engine().decode(
                frame, attempt_plan, rng, full_output=True
            )

        with instrument.span(
            "resilience.decode",
            n=frame.size,
            sampling_fraction=plan.sampling_fraction,
        ) as sp:
            outcome = supervise(self.policy, self.guard, plan.shape, attempt)
            sp.set(
                status=outcome.status,
                solver=outcome.solver,
                attempts=len(outcome.attempts),
            )
        if self.adaptive is not None:
            self.adaptive.observe_outcome(outcome)
            outcome.adaptation_events = tuple(self.adaptive.pop_events())
        outcome.policy_snapshot = self.policy.snapshot()
        return outcome

    def decode_batch(
        self,
        frames,
        plan: DecodeContext,
        rng: np.random.Generator,
    ) -> list[DecodeOutcome]:
        """Supervise a batch: :meth:`decode` on each frame, in order.

        Every frame is checked against ``plan`` up front, so a bad frame
        raises ``ValueError`` before any RNG draw and the batch either
        raises without side effects or returns exactly the outcomes
        (frames, statuses, solvers, breaker and guard state, RNG
        position) of ``len(frames)`` serial :meth:`decode` calls.
        Every attempt draws a fresh ``Phi_M``, as on the paper's
        decoder.
        """
        frames = [plan.check_frame(frame) for frame in frames]
        instrument.incr("resilience.batch_decodes")
        return [self.decode(frame, plan, rng) for frame in frames]


@dataclass
class ResilientStrategy:
    """Route any decode strategy through the resilience runtime.

    Wraps a strategy object from :mod:`repro.core.strategies` (anything
    with mutable ``solver`` / ``solver_options`` attributes and a
    ``reconstruct(corrupted, rng, **kwargs)`` method) in
    :func:`supervise`, the loop the decoder runs: breaker, retry
    rounds, per-solver budgets, health check and frame hold.  Each
    attempt re-points the inner strategy at the next solver of the
    fallback chain (that solver's budget merged into the inner
    strategy's original options, of which a solver other than the
    original keeps only the budget keywords it accepts) and
    health-validates the returned frame; the strategy is opaque, so
    the residual check is skipped and every healthy frame counts as
    converged.  When every attempt fails
    the guard's fallback frame is returned instead, so the wrapped
    strategy keeps the plain ``reconstruct -> ndarray`` contract the
    pipeline expects.

    The full audit trail of the most recent call is kept on
    :attr:`last_outcome`, which the pipeline attaches to its
    :class:`~repro.core.pipeline.FrameOutcome`.

    :attr:`exclude_mask` (settable at any time, e.g. from an adaptive
    controller's stuck-line detections) is OR-merged into the
    ``error_mask`` keyword of every inner ``reconstruct`` call, so
    health-driven sampling exclusions reach strategies that accept a
    mask (the oracle/weighted strategies and, via its ``error_mask``
    parameter, the resampling strategy).
    """

    inner: object
    policy: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    guard: FrameGuard = field(default_factory=FrameGuard)
    last_outcome: DecodeOutcome | None = field(default=None, repr=False)
    exclude_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not hasattr(self.inner, "reconstruct"):
            raise TypeError(
                f"{type(self.inner).__name__} has no reconstruct(); "
                "wrap a strategy from repro.core.strategies"
            )

    def reconstruct(
        self, corrupted: np.ndarray, rng: np.random.Generator, **kwargs
    ) -> np.ndarray:
        """Supervised version of the inner strategy's ``reconstruct``.

        Each attempt re-points the inner strategy at the chain's solver
        with its original options plus that solver's budget, so one
        solver's budget never leaks into the next; a solver other than
        the original gets only the budget keywords among those options
        that it accepts.  The inner solver settings are restored
        afterwards.
        """
        corrupted = np.asarray(corrupted, dtype=float)
        if self.exclude_mask is not None:
            mask = np.asarray(self.exclude_mask, dtype=bool)
            existing = kwargs.get("error_mask")
            kwargs = dict(kwargs)
            kwargs["error_mask"] = (
                mask
                if existing is None
                else np.asarray(existing, dtype=bool) | mask
            )
        inner = self.inner
        solver = getattr(inner, "solver", None)
        options = dict(getattr(inner, "solver_options", {}) or {})

        def attempt(name: str, budget: dict):
            inner.solver = name
            inner.solver_options = _attempt_options(
                name, solver, options, budget
            )
            return inner.reconstruct(corrupted, rng, **kwargs), None, None

        try:
            with instrument.span(
                "resilience.strategy", strategy=type(inner).__name__
            ) as sp:
                outcome = supervise(
                    self.policy, self.guard, corrupted.shape, attempt
                )
                sp.set(
                    status=outcome.status,
                    solver=outcome.solver,
                    attempts=len(outcome.attempts),
                )
        finally:
            if solver is not None:
                inner.solver = solver
                inner.solver_options = options
        self.last_outcome = outcome
        return outcome.frame
