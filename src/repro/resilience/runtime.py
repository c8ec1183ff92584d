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
3. on a failed round, retry the whole chain with a *fresh sampling
   draw* (bounded by the retry policy);
4. when everything fails, serve the last good frame (zero-order hold)
   or a fill frame -- never raise, never return garbage silently.

Every retry, fallback, breaker trip and health failure is visible in
the :mod:`repro.instrument` report under ``resilience.*``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .. import instrument
from ..core.engine import DecodeContext, get_engine, validate_decode_inputs
from ..core.measurement import get_measurement
from .health import FrameGuard, HealthReport, validate_reconstruction
from .policies import ResiliencePolicy

__all__ = [
    "AttemptRecord",
    "DecodeOutcome",
    "OUTCOME_SCHEMA",
    "ResilientDecoder",
    "ResilientStrategy",
    "resilient_sample_and_reconstruct",
]

#: Schema tag stamped on every ``DecodeOutcome.to_dict()`` payload
#: (versioned like ``repro.bench/v1``; bump on incompatible changes).
OUTCOME_SCHEMA = "repro.outcome/v1"


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


@dataclass
class ResilientDecoder:
    """Policy-driven supervisor around the core decode.

    Parameters
    ----------
    policy:
        The :class:`~repro.resilience.policies.ResiliencePolicy` to
        enforce.  The policy's circuit breaker is owned by this decoder
        instance and accumulates failure history across frames (that is
        the point of a breaker); use a fresh decoder for independent
        runs.
    guard:
        Last-good-frame store for graceful degradation; defaults to a
        fresh dark-frame guard.
    adaptive:
        Optional :class:`~repro.resilience.adaptive.AdaptivePolicy`
        feedback controller.  When set, each decode reads the
        controller's tuned live policy (``self.policy`` tracks it),
        merges the controller's stuck-line exclusion mask into the
        sampling exclusions, and feeds the outcome back so the next
        frame's policy reflects this frame's health.
    measurement:
        Registered measurement-family name (see
        :mod:`repro.core.measurement`) every supervised decode samples
        with.  Families without exclusion support reject caller-supplied
        masks up front (``ValueError``) and skip adaptive stuck-line
        masks with an explicit ``"unsupported"`` adaptation event.
    """

    policy: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    guard: FrameGuard = field(default_factory=FrameGuard)
    adaptive: object | None = None
    measurement: str = "row_sampling"

    def decode(
        self,
        frame: np.ndarray,
        sampling_fraction: float,
        rng: np.random.Generator,
        exclude_mask: np.ndarray | None = None,
        noise_sigma: float = 0.0,
        solver_options: dict | None = None,
    ) -> DecodeOutcome:
        """Decode one frame under full supervision.

        Same signature as :func:`repro.core.sample_and_reconstruct`
        (minus ``solver``, which the fallback chain owns), but returns
        a :class:`DecodeOutcome` and *never raises* past input
        validation: caller bugs (NaN frame, bad fraction, starving
        exclusion mask) still surface as ``ValueError`` immediately,
        while solver-side faults are contained, retried and degraded.
        With an :attr:`adaptive` controller the outcome additionally
        carries the adaptation events and the tuned policy snapshot.
        """
        if self.adaptive is not None:
            self.policy = self.adaptive.policy
            adaptive_mask = self.adaptive.exclusion_mask(
                np.shape(np.asarray(frame))
            )
            if adaptive_mask is not None:
                if not get_measurement(self.measurement).supports_exclusions:
                    # Degrade explicitly, not silently: the stuck-line
                    # mask cannot steer this family's sampling.
                    self.adaptive.note_unsupported(
                        f"measurement family {self.measurement!r} lacks "
                        f"exclusion support; ignoring "
                        f"{int(adaptive_mask.sum())} stuck-line pixels"
                    )
                else:
                    exclude_mask = (
                        adaptive_mask
                        if exclude_mask is None
                        else np.asarray(exclude_mask, dtype=bool)
                        | adaptive_mask
                    )
        outcome = self._decode_supervised(
            frame,
            sampling_fraction,
            rng,
            exclude_mask,
            noise_sigma,
            solver_options,
        )
        if self.adaptive is not None:
            self.adaptive.observe_outcome(outcome)
            outcome.adaptation_events = tuple(self.adaptive.pop_events())
        outcome.policy_snapshot = self.policy.snapshot()
        return outcome

    def decode_batch(
        self,
        frames,
        sampling_fraction: float,
        rng: np.random.Generator,
        exclude_mask: np.ndarray | None = None,
        noise_sigma: float = 0.0,
        solver_options: dict | None = None,
    ) -> list[DecodeOutcome]:
        """Supervise a batch: :meth:`decode` on each frame, in order.

        Every input is validated up front -- bad frames and starving or
        unsupported masks raise ``ValueError`` before any RNG draw -- so
        the batch either raises without side effects or returns exactly
        the outcomes (frames, statuses, solvers, breaker and guard
        state, RNG position) of ``len(frames)`` serial :meth:`decode`
        calls.  Every attempt draws a fresh ``Phi_M``, as on the paper's
        decoder.
        """
        frames = [
            validate_decode_inputs(frame, sampling_fraction, noise_sigma)
            for frame in frames
        ]
        if exclude_mask is not None:
            for frame in frames:
                self._check_exclusions(exclude_mask, frame)
        instrument.incr("resilience.batch_decodes")
        return [
            self.decode(
                frame,
                sampling_fraction,
                rng,
                exclude_mask=exclude_mask,
                noise_sigma=noise_sigma,
                solver_options=solver_options,
            )
            for frame in frames
        ]

    def _check_exclusions(
        self, exclude_mask: np.ndarray, frame: np.ndarray
    ) -> np.ndarray:
        """The caller's mask as booleans; ``ValueError`` if it is unusable.

        The mask must match the frame, leave a pixel to sample, and be
        empty for a family without exclusion support (a caller-supplied
        mask against a mask-blind family is a bug).
        """
        exclude_mask = np.asarray(exclude_mask, dtype=bool)
        if exclude_mask.shape != frame.shape:
            raise ValueError("exclude_mask shape must match frame shape")
        if int(exclude_mask.sum()) >= frame.size:
            raise ValueError(
                "exclusion mask leaves no pixels to sample "
                f"({int(exclude_mask.sum())} of {frame.size} excluded)"
            )
        if exclude_mask.any() and not get_measurement(
            self.measurement
        ).supports_exclusions:
            raise ValueError(
                f"measurement family {self.measurement!r} does not support "
                "exclusion masks; clear the mask or switch families"
            )
        return exclude_mask

    def _decode_supervised(
        self,
        frame: np.ndarray,
        sampling_fraction: float,
        rng: np.random.Generator,
        exclude_mask: np.ndarray | None,
        noise_sigma: float,
        solver_options: dict | None,
    ) -> DecodeOutcome:
        """The supervision loop proper (policy already pinned)."""
        frame = validate_decode_inputs(frame, sampling_fraction, noise_sigma)
        if exclude_mask is not None:
            exclude_mask = self._check_exclusions(exclude_mask, frame)
        # One plan for the whole supervised decode: every retry round and
        # fallback solver reuses the same cached operator template, so an
        # attempt costs a solve, not a rebuild.
        base_plan = DecodeContext(
            shape=frame.shape,
            sampling_fraction=sampling_fraction,
            noise_sigma=noise_sigma,
            exclude_mask=exclude_mask,
            measurement=self.measurement,
        )
        policy = self.policy
        breaker = policy.breaker
        attempts: list[AttemptRecord] = []
        faults: list[str] = []
        with instrument.span(
            "resilience.decode",
            n=frame.size,
            sampling_fraction=sampling_fraction,
        ) as sp:
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
                    record = self._attempt(
                        round_index,
                        solver,
                        frame,
                        base_plan,
                        rng,
                        solver_options,
                        faults,
                    )
                    attempts.append(record[0])
                    if record[1] is None:
                        continue
                    reconstruction, health, converged = record[1]
                    self.guard.update(reconstruction)
                    clean_first_try = (
                        converged
                        and len(attempts) == 1
                        and attempts[0].status == "ok"
                    )
                    status = "ok" if clean_first_try else "degraded"
                    instrument.incr(f"resilience.decodes_{status}")
                    instrument.observe(
                        "resilience.attempts_per_decode", len(attempts)
                    )
                    sp.set(status=status, solver=solver, attempts=len(attempts))
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
            sp.set(status="fallback", attempts=len(attempts))
            return DecodeOutcome(
                frame=self.guard.fallback(frame.shape),
                status="fallback",
                solver=None,
                attempts=attempts,
                faults_seen=tuple(sorted(set(faults))),
                health=None,
            )

    def _attempt(
        self,
        round_index: int,
        solver: str,
        frame: np.ndarray,
        base_plan: DecodeContext,
        rng: np.random.Generator,
        solver_options: dict | None,
        faults: list[str],
    ):
        """Run one solve attempt; returns ``(record, success_or_None)``.

        ``success`` is ``(reconstruction, health, converged)`` when the
        attempt delivered a healthy frame.  Failures update the breaker
        and the fault list as a side effect.
        """
        policy = self.policy
        breaker = policy.breaker
        options = dict(solver_options or {})
        options.update(policy.budget_for(solver).solver_options(solver))
        plan = replace(base_plan, solver=solver, solver_options=options)
        start = time.perf_counter()
        instrument.incr("resilience.attempts")
        try:
            with instrument.span(
                "resilience.attempt", solver=solver, round=round_index
            ):
                decode = get_engine().decode(
                    frame, plan, rng, full_output=True
                )
        except Exception as exc:
            duration = time.perf_counter() - start
            faults.append(type(exc).__name__)
            if breaker is not None:
                breaker.record_failure(solver)
            instrument.incr("resilience.attempt_errors")
            return (
                AttemptRecord(
                    round_index,
                    solver,
                    "error",
                    error=f"{type(exc).__name__}: {exc}",
                    duration_s=duration,
                ),
                None,
            )
        duration = time.perf_counter() - start
        result = decode.solver_result
        faults.extend(_solver_fault_labels(result.info))
        health = validate_reconstruction(
            decode.reconstruction,
            expected_shape=frame.shape,
            value_range=policy.value_range,
            solver_result=result,
            measurements=decode.measurements,
            residual_factor=policy.residual_factor,
        )
        if not health.ok:
            if breaker is not None:
                breaker.record_failure(solver)
            return (
                AttemptRecord(
                    round_index,
                    solver,
                    "unhealthy",
                    error=",".join(health.failed),
                    iterations=result.iterations,
                    duration_s=duration,
                ),
                None,
            )
        if not result.converged and not policy.accept_nonconverged:
            if breaker is not None:
                breaker.record_failure(solver)
            return (
                AttemptRecord(
                    round_index,
                    solver,
                    "nonconverged",
                    error="stopping criterion not met",
                    iterations=result.iterations,
                    duration_s=duration,
                ),
                None,
            )
        if breaker is not None:
            breaker.record_success(solver)
        return (
            AttemptRecord(
                round_index,
                solver,
                "ok",
                iterations=result.iterations,
                duration_s=duration,
            ),
            (decode.reconstruction, health, result.converged),
        )


def resilient_sample_and_reconstruct(
    frame: np.ndarray,
    sampling_fraction: float,
    rng: np.random.Generator,
    policy: ResiliencePolicy | None = None,
    exclude_mask: np.ndarray | None = None,
    noise_sigma: float = 0.0,
    solver_options: dict | None = None,
    guard: FrameGuard | None = None,
    measurement: str = "row_sampling",
) -> DecodeOutcome:
    """One-shot resilient decode (drop-in hardened ``sample_and_reconstruct``).

    Builds a throwaway :class:`ResilientDecoder`; for streams of frames
    prefer holding a decoder instance so the circuit breaker and the
    last-good-frame guard accumulate useful state.
    """
    decoder = ResilientDecoder(
        policy=policy if policy is not None else ResiliencePolicy(),
        guard=guard if guard is not None else FrameGuard(),
        measurement=measurement,
    )
    return decoder.decode(
        frame,
        sampling_fraction,
        rng,
        exclude_mask=exclude_mask,
        noise_sigma=noise_sigma,
        solver_options=solver_options,
    )


@dataclass
class ResilientStrategy:
    """Route any decode strategy through the resilience runtime.

    Wraps a strategy object from :mod:`repro.core.strategies` (anything
    with mutable ``solver`` / ``solver_options`` attributes and a
    ``reconstruct(corrupted, rng, **kwargs)`` method).  Each attempt
    re-points the inner strategy at the next solver of the fallback
    chain (budget merged into its options) and health-validates the
    returned frame; when every attempt fails the guard's fallback frame
    is returned instead, so the wrapped strategy keeps the plain
    ``reconstruct -> ndarray`` contract the pipeline expects.

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
        """Supervised version of the inner strategy's ``reconstruct``."""
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
        policy = self.policy
        breaker = policy.breaker
        attempts: list[AttemptRecord] = []
        faults: list[str] = []
        original = (
            getattr(self.inner, "solver", None),
            dict(getattr(self.inner, "solver_options", {}) or {}),
        )
        try:
            with instrument.span(
                "resilience.strategy",
                strategy=type(self.inner).__name__,
            ) as sp:
                instrument.incr("resilience.decodes")
                outcome = self._supervised(
                    corrupted, rng, kwargs, attempts, faults, breaker, sp
                )
        finally:
            if original[0] is not None:
                self.inner.solver = original[0]
                self.inner.solver_options = original[1]
        self.last_outcome = outcome
        return outcome.frame

    def _supervised(
        self, corrupted, rng, kwargs, attempts, faults, breaker, sp
    ) -> DecodeOutcome:
        policy = self.policy
        for round_index in range(1, policy.retry.max_rounds + 1):
            if round_index > 1:
                instrument.incr("resilience.retry_rounds")
            for solver in policy.fallback_chain:
                if breaker is not None and not breaker.allow(solver):
                    attempts.append(
                        AttemptRecord(round_index, solver, "breaker_open")
                    )
                    continue
                instrument.incr("resilience.attempts")
                self.inner.solver = solver
                merged = dict(
                    getattr(self.inner, "solver_options", {}) or {}
                )
                merged.update(policy.budget_for(solver).solver_options(solver))
                self.inner.solver_options = merged
                start = time.perf_counter()
                try:
                    reconstruction = self.inner.reconstruct(
                        corrupted, rng, **kwargs
                    )
                except Exception as exc:
                    faults.append(type(exc).__name__)
                    if breaker is not None:
                        breaker.record_failure(solver)
                    instrument.incr("resilience.attempt_errors")
                    attempts.append(
                        AttemptRecord(
                            round_index,
                            solver,
                            "error",
                            error=f"{type(exc).__name__}: {exc}",
                            duration_s=time.perf_counter() - start,
                        )
                    )
                    continue
                duration = time.perf_counter() - start
                health = validate_reconstruction(
                    reconstruction,
                    expected_shape=corrupted.shape,
                    value_range=policy.value_range,
                )
                if not health.ok:
                    if breaker is not None:
                        breaker.record_failure(solver)
                    attempts.append(
                        AttemptRecord(
                            round_index,
                            solver,
                            "unhealthy",
                            error=",".join(health.failed),
                            duration_s=duration,
                        )
                    )
                    continue
                if breaker is not None:
                    breaker.record_success(solver)
                self.guard.update(reconstruction)
                attempts.append(
                    AttemptRecord(
                        round_index, solver, "ok", duration_s=duration
                    )
                )
                status = (
                    "ok"
                    if len(attempts) == 1
                    else "degraded"
                )
                instrument.incr(f"resilience.decodes_{status}")
                instrument.observe(
                    "resilience.attempts_per_decode", len(attempts)
                )
                sp.set(status=status, solver=solver, attempts=len(attempts))
                return DecodeOutcome(
                    frame=reconstruction,
                    status=status,
                    solver=solver,
                    attempts=attempts,
                    faults_seen=tuple(sorted(set(faults))),
                    health=health,
                )
        instrument.incr("resilience.decodes_fallback")
        instrument.observe("resilience.attempts_per_decode", len(attempts))
        sp.set(status="fallback", attempts=len(attempts))
        return DecodeOutcome(
            frame=self.guard.fallback(corrupted.shape),
            status="fallback",
            solver=None,
            attempts=attempts,
            faults_seen=tuple(sorted(set(faults))),
            health=None,
        )
