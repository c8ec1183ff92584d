"""The multi-tenant decode service core: admit, queue, shed, decode, answer.

:class:`DecodeService` is the deterministic heart of :mod:`repro.serve`
-- a single-threaded state machine that the asyncio front end
(:mod:`repro.serve.async_service`) drives in production and that tests
drive directly with a :class:`~repro.serve.clock.VirtualClock`.  Its
contract, enforced by the overload acceptance tests:

**every submitted frame gets exactly one terminal answer.**  Either the
submission is *rejected* on the spot (ticket status ``"rejected"`` with
a reason from :data:`~repro.serve.admission.REJECTION_REASONS`), or it
is admitted and later receives exactly one :class:`FrameVerdict` --
``decoded``, ``degraded``, ``fallback``, ``failed`` or ``shed`` (with a
reason).  Nothing is ever dropped silently, and an accepted frame is
never left unanswered.

One call to :meth:`DecodeService.run_cycle` performs one dispatch
cycle:

1. expire queued frames whose deadline has passed (terminal
   ``shed``/``deadline_expired`` verdicts -- expired work is cancelled,
   not decoded into a worthless result);
2. select up to ``cycle_budget`` frames by (priority desc, submission
   order) across all streams;
3. shed the lowest-priority, stalest backlog beyond ``backlog_limit``
   (terminal ``shed``/``overload_shed`` verdicts);
4. coalesce the selected frames into per-stream
   :meth:`~repro.core.engine.DecodeEngine.decode_batch` calls on the
   shared executor (supervised streams decode each batch through
   their :class:`~repro.resilience.runtime.ResilientDecoder`'s
   ``decode_batch``);
5. issue verdicts, feed each stream's
   :class:`~repro.serve.supervisor.StreamSupervisor`, and collect any
   alerts the supervisors raised.

Two optional robustness layers extend the in-process contract:

* **durability** -- attach a
  :class:`~repro.serve.durability.VerdictJournal` and every admission,
  rejection, dispatch and verdict is journalled (flushed once per
  cycle); after a crash, :meth:`DecodeService.recover` folds the
  journal (:func:`~repro.serve.durability.fold_journal`), rebuilds the
  accounting and re-enqueues every admitted-but-undecided frame with a
  ``recovered=True`` honesty flag (at-least-once), and
  :mod:`repro.serve.replay` audits the journal offline through the
  same fold;
* **worker supervision** -- pass ``executor=SupervisedExecutor(...)``
  (:class:`~repro.core.executor.SupervisedExecutor`), so a crashed or
  hung decode worker trips a retry on a surviving worker instead of
  stalling the pump, surfacing ``worker_lost``
  :class:`~repro.serve.supervisor.AlertEvent`\\ s and
  ``executor.worker_lost`` counters.

All of it is instrumented under ``serve.*`` so the profiling CLI and
the bench trend job can watch the service like any other subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import instrument
from ..core.engine import DecodeContext
from ..core.executor import Executor, SupervisedExecutor, resolve_executor
from ..resilience.runtime import DecodeOutcome, ResilientDecoder
from .admission import REJECTION_REASONS, AdmissionController, Quota
from .clock import Clock, MonotonicClock
from .coalescer import Coalescer, decode_pending
from .durability import (
    JournalError,
    TenantAccount,
    VerdictJournal,
    fold_journal,
    pending_from_record,
    pending_record,
)
from .queueing import (
    PendingFrame,
    StreamQueue,
    select_for_dispatch,
    shed_overload,
)
from .supervisor import AlertEvent, StreamSupervisor

__all__ = [
    "DecodeService",
    "DrainExhausted",
    "FrameVerdict",
    "StreamConfig",
    "SubmitTicket",
    "TenantConfig",
]

#: Schema tag stamped on every ticket, verdict and service report.
SERVE_SCHEMA = "repro.serve/v1"

#: Verdict statuses that mean "a real reconstruction was delivered".
SUCCESS_STATUSES = ("decoded", "degraded")

_OUTCOME_TO_VERDICT = {
    "ok": "decoded",
    "degraded": "degraded",
    "fallback": "fallback",
    "failed": "failed",
}


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's registration: identity, priority and rate quota.

    Parameters
    ----------
    name:
        Tenant identifier (accounting key).
    priority:
        Default priority of the tenant's streams; higher decodes first
        and sheds last.
    quota:
        Tenant-wide admission :class:`~repro.serve.admission.Quota`
        shared by all the tenant's streams (``None`` = unlimited).
    """

    name: str
    priority: int = 0
    quota: Quota | None = None


@dataclass(frozen=True)
class StreamConfig:
    """One stream's registration: its frozen plan plus service knobs.

    Parameters
    ----------
    name:
        Stream identifier (unique service-wide).
    tenant:
        Owning tenant (must be registered first).
    plan:
        The frozen :class:`~repro.core.engine.DecodeContext` every
        frame of this stream decodes under.
    policy:
        Optional :class:`~repro.resilience.policies.ResiliencePolicy`;
        when set the stream decodes through a dedicated
        :class:`~repro.resilience.runtime.ResilientDecoder` whose
        breaker/guard state persists across frames.  A supervised
        stream decodes under every field of ``plan`` except
        ``solver``, which the policy's fallback chain picks per
        attempt.
    adaptive:
        Optional :class:`~repro.resilience.adaptive.AdaptivePolicy`
        feedback controller plugged into the stream's decoder; it owns
        the policy, so a policy to adapt is its ``base``, not ``policy``.
    quota:
        Per-stream admission quota (``None`` = tenant quota only).
    priority:
        Override of the tenant's priority for this stream.
    queue_limit:
        Bounded-queue capacity (the hard backpressure limit).
    seed:
        Seed of the stream's private RNG (``Phi_M`` draws and noise);
        streams are RNG-isolated so one tenant's traffic can never
        perturb another's reconstructions.
    shared_phi:
        Reuse one sampling pattern per coalesced batch (the
        streaming-hardware regime: one code drawn and bound to an
        operator per batch).  Plain streams only -- a supervised stream
        draws a fresh pattern for every attempt, so ``register_stream``
        rejects ``shared_phi`` together with ``policy`` or ``adaptive``.
    deadline_s:
        Default per-frame deadline, as seconds after submission;
        ``None`` = no deadline unless ``submit`` passes one.
    """

    name: str
    tenant: str
    plan: DecodeContext
    policy: object | None = None
    adaptive: object | None = None
    quota: Quota | None = None
    priority: int | None = None
    queue_limit: int = 32
    seed: int = 0
    shared_phi: bool = False
    deadline_s: float | None = None


@dataclass(frozen=True)
class SubmitTicket:
    """The immediate, machine-readable answer to one ``submit`` call.

    ``status`` is the backpressure signal:

    * ``"accepted"`` -- queued with headroom;
    * ``"queued"``   -- queued, but the stream is past its high-water
      mark (polite clients should slow down);
    * ``"rejected"`` -- not queued; ``reason`` names why (one of
      :data:`~repro.serve.admission.REJECTION_REASONS`) and no verdict
      will follow.
    """

    seq: int
    stream: str
    tenant: str
    status: str
    reason: str | None = None
    queue_depth: int = 0
    submitted_at: float = 0.0

    @property
    def admitted(self) -> bool:
        """Whether the frame entered the queue (a verdict will follow)."""
        return self.status in ("accepted", "queued")

    def to_dict(self) -> dict:
        """JSON-safe ticket (schema-tagged)."""
        return instrument.json_safe(
            {
                "schema": SERVE_SCHEMA,
                "seq": self.seq,
                "stream": self.stream,
                "tenant": self.tenant,
                "status": self.status,
                "reason": self.reason,
                "queue_depth": self.queue_depth,
                "submitted_at": self.submitted_at,
            }
        )


@dataclass
class FrameVerdict:
    """The terminal answer for one admitted frame.

    Attributes
    ----------
    seq, stream, tenant, priority:
        Identity copied from the :class:`~repro.serve.queueing.PendingFrame`.
    status:
        ``"decoded"`` | ``"degraded"`` | ``"fallback"`` | ``"failed"``
        | ``"shed"``.
    reason:
        Shed reason (``"deadline_expired"`` / ``"overload_shed"``),
        ``None`` for decoded frames.
    outcome:
        The full :class:`~repro.resilience.runtime.DecodeOutcome` for
        decoded/degraded/fallback/failed frames (``None`` for sheds).
    queue_latency_s:
        Clock time the frame spent between admission and dispatch (or
        shedding).
    decode_s:
        Clock time the decode itself took (0 for sheds).
    deadline_missed:
        ``True`` when the frame had a deadline and its terminal answer
        landed after it (always ``False`` for ``decoded`` frames under
        the service contract: expired frames are cancelled, not
        decoded).
    cycle:
        Dispatch cycle index that produced the verdict.
    recovered:
        ``True`` when the frame was replayed by crash recovery rather
        than decoded on its first admission -- the at-least-once
        honesty flag (a caller may therefore see the same ``seq``
        answered in two different process lifetimes; the flagged one is
        the replay).
    """

    seq: int
    stream: str
    tenant: str
    priority: int
    status: str
    reason: str | None = None
    outcome: DecodeOutcome | None = None
    queue_latency_s: float = 0.0
    decode_s: float = 0.0
    deadline_missed: bool = False
    cycle: int = -1
    recovered: bool = False

    @property
    def delivered_frame(self) -> np.ndarray | None:
        """The reconstruction, when one exists (``None`` for sheds)."""
        return None if self.outcome is None else self.outcome.frame

    def to_dict(self) -> dict:
        """JSON-safe verdict: ``DecodeOutcome.to_dict()`` + service fields.

        This is the service's response/log schema: the existing outcome
        schema rides along unchanged under ``"outcome"``, with the
        serving-layer accounting (queue latency, shed reason, deadline
        verdict, tenant identity) beside it.
        """
        return instrument.json_safe(
            {
                "schema": SERVE_SCHEMA,
                "seq": self.seq,
                "stream": self.stream,
                "tenant": self.tenant,
                "priority": self.priority,
                "status": self.status,
                "reason": self.reason,
                "queue_latency_s": self.queue_latency_s,
                "decode_s": self.decode_s,
                "deadline_missed": self.deadline_missed,
                "cycle": self.cycle,
                "recovered": self.recovered,
                "outcome": None
                if self.outcome is None
                else self.outcome.to_dict(),
            }
        )


@dataclass
class _StreamState:
    """Internal per-stream runtime state (plan, queue, decoder, health)."""

    config: StreamConfig
    priority: int
    queue: StreamQueue
    rng: np.random.Generator
    supervisor: StreamSupervisor
    decoder: ResilientDecoder | None = None


class DrainExhausted(RuntimeError):
    """``drain`` ran out of cycles with backlog remaining.

    Carries the verdicts issued so far in ``.verdicts`` and the
    leftover backlog size in ``.backlog`` so a caller that catches the
    exhaustion still gets the partial answer instead of losing it.
    """

    def __init__(self, message: str, verdicts: list, backlog: int):
        super().__init__(message)
        self.verdicts = verdicts
        self.backlog = backlog


class DecodeService:
    """Multi-tenant frame-decode service (deterministic core).

    Parameters
    ----------
    executor:
        Shared decode executor for plain-stream batches -- anything
        :func:`~repro.core.executor.resolve_executor` accepts.
        ``None`` solves in-process (and is what the deterministic
        tests use).  Under a
        :class:`~repro.core.executor.SupervisedExecutor` each lost
        decode worker also raises a ``worker_lost`` alert.
    clock:
        Time source; defaults to wall time
        (:class:`~repro.serve.clock.MonotonicClock`).  Tests inject a
        :class:`~repro.serve.clock.VirtualClock`.
    cycle_budget:
        Maximum frames decoded per :meth:`run_cycle` -- the service's
        capacity model.
    max_batch:
        Largest single ``decode_batch`` call (see
        :class:`~repro.serve.coalescer.Coalescer`).
    backlog_limit:
        Post-dispatch backlog watermark for sustained-overload
        shedding; ``None`` disables global shedding (per-stream queue
        limits still bound memory).  Defaults to ``2 * cycle_budget``.
    on_verdict:
        Optional callback invoked with every :class:`FrameVerdict` as
        it is issued (the asyncio front end resolves futures with it).
    journal:
        Optional :class:`~repro.serve.durability.VerdictJournal` (or a
        path, opened as one) recording every admit/reject/dispatch/
        verdict; flushed durable once per cycle.  Enables
        :meth:`recover` and the :mod:`repro.serve.replay` audit CLI.
    """

    def __init__(
        self,
        executor: Executor | str | int | None = None,
        clock: Clock | None = None,
        cycle_budget: int = 8,
        max_batch: int = 8,
        backlog_limit: int | None = None,
        on_verdict: Callable[[FrameVerdict], None] | None = None,
        journal: VerdictJournal | str | None = None,
    ):
        if cycle_budget < 1:
            raise ValueError(f"cycle_budget must be >= 1, got {cycle_budget}")
        self.clock = clock if clock is not None else MonotonicClock()
        self.executor = resolve_executor(executor)
        if journal is not None and not isinstance(journal, VerdictJournal):
            journal = VerdictJournal(journal)
        self.journal = journal
        self.cycle_budget = int(cycle_budget)
        self.backlog_limit = (
            2 * self.cycle_budget if backlog_limit is None else backlog_limit
        )
        if self.backlog_limit < 0:
            raise ValueError(
                f"backlog_limit must be >= 0, got {self.backlog_limit}"
            )
        self.on_verdict = on_verdict
        self._admission = AdmissionController(self.clock)
        self._coalescer = Coalescer(max_batch=max_batch)
        self._tenants: dict[str, TenantConfig] = {}
        self._accounts: dict[str, TenantAccount] = {}
        self._streams: dict[str, _StreamState] = {}
        self._seq = 0
        self._cycle = 0
        self._stopped = False
        self._recovered = False
        self._alerts: list[AlertEvent] = []
        self._verdicts: list[FrameVerdict] = []

    # -- registration -------------------------------------------------------
    def register_tenant(self, config: TenantConfig) -> None:
        """Register a tenant (idempotent re-registration replaces quotas)."""
        self._tenants[config.name] = config
        self._accounts.setdefault(config.name, TenantAccount())
        self._admission.register_tenant(config.name, config.quota)

    def register_stream(self, config: StreamConfig) -> None:
        """Register a stream under an already-registered tenant.

        Builds the stream's runtime state: bounded queue, private RNG,
        health supervisor, and -- when a policy or adaptive controller
        is configured -- a dedicated supervised decoder, decoding under
        the stream's plan, whose breaker and last-good-frame guard
        persist across the stream's frames.  Raises ``ValueError``
        for ``shared_phi`` on a supervised stream, for ``policy``
        together with ``adaptive``, and for a plan whose
        exclusion mask leaves nothing to sample
        (:meth:`~repro.core.engine.DecodeContext.check_exclusions`),
        which would otherwise admit every frame only to fail it.
        """
        if config.tenant not in self._tenants:
            raise KeyError(
                f"unknown tenant {config.tenant!r}; register_tenant first"
            )
        if config.name in self._streams:
            raise ValueError(f"stream {config.name!r} already registered")
        config.plan.check_exclusions()
        supervised = config.policy is not None or config.adaptive is not None
        if supervised and config.shared_phi:
            raise ValueError(
                f"stream {config.name!r}: shared_phi applies to plain "
                "streams only; a supervised stream draws a fresh Phi for "
                "every attempt"
            )
        tenant = self._tenants[config.tenant]
        decoder = None
        if supervised:
            decoder = ResilientDecoder(
                policy=config.policy, adaptive=config.adaptive
            )
        self._streams[config.name] = _StreamState(
            config=config,
            priority=(
                tenant.priority if config.priority is None
                else config.priority
            ),
            queue=StreamQueue(limit=config.queue_limit),
            rng=np.random.default_rng(config.seed),
            supervisor=StreamSupervisor(
                stream=config.name, tenant=config.tenant
            ),
            decoder=decoder,
        )
        self._admission.register_stream(config.name, config.quota)
        instrument.set_gauge("serve.streams", len(self._streams))

    # -- submission (admission control) -------------------------------------
    def submit(
        self,
        stream: str,
        frame: np.ndarray,
        deadline_s: float | None = None,
    ) -> SubmitTicket:
        """Offer one frame; returns the admission ticket immediately.

        ``deadline_s`` is relative to now (falling back to the stream's
        configured default).  The ticket is the explicit backpressure
        signal: ``accepted`` / ``queued`` (verdict will follow) or
        ``rejected`` with a machine-readable reason (terminal -- no
        verdict follows).  Unknown streams raise ``KeyError``: that is
        a caller bug, not an operational condition.
        """
        state = self._streams.get(stream)
        if state is None:
            raise KeyError(f"unknown stream {stream!r}")
        now = self.clock.now()
        self._seq += 1
        seq = self._seq
        account = self._accounts[state.config.tenant]
        account.submitted += 1
        instrument.incr("serve.submitted")
        if self._stopped:
            return self._reject(state, account, seq, now, "service_stopped")
        try:
            frame = np.asarray(frame, dtype=float)
        except (TypeError, ValueError, OverflowError):
            # A ragged, non-numeric or out-of-float-range frame: its seq
            # is already counted, so it must end in a journalled
            # rejection like any other.
            return self._reject(state, account, seq, now, "invalid_frame")
        if frame.shape != state.config.plan.shape or not np.all(
            np.isfinite(frame)
        ):
            return self._reject(state, account, seq, now, "invalid_frame")
        if deadline_s is None:
            deadline_s = state.config.deadline_s
        deadline = None if deadline_s is None else now + float(deadline_s)
        if deadline is not None and deadline <= now:
            return self._reject(
                state, account, seq, now, "deadline_unsatisfiable"
            )
        if not state.supervisor.admit():
            self._collect_alerts(state)
            return self._reject(state, account, seq, now, "breaker_open")
        self._collect_alerts(state)
        reason = self._admission.admit(state.config.tenant, stream)
        if reason is not None:
            return self._reject(state, account, seq, now, reason)
        pending = PendingFrame(
            seq=seq,
            stream=stream,
            tenant=state.config.tenant,
            priority=state.priority,
            frame=frame,
            submitted_at=now,
            deadline=deadline,
        )
        if not state.queue.push(pending):
            return self._reject(state, account, seq, now, "queue_full")
        account.admitted += 1
        if self.journal is not None:
            # The admit record carries the frame payload so recovery
            # can re-decode it from the journal alone.
            self.journal.append("admit", pending_record(pending))
        instrument.incr("serve.admitted")
        instrument.set_gauge(f"serve.queue_depth.{stream}", state.queue.depth)
        status = "queued" if state.queue.congested else "accepted"
        return SubmitTicket(
            seq=seq,
            stream=stream,
            tenant=state.config.tenant,
            status=status,
            queue_depth=state.queue.depth,
            submitted_at=now,
        )

    def _reject(
        self,
        state: _StreamState,
        account: TenantAccount,
        seq: int,
        now: float,
        reason: str,
    ) -> SubmitTicket:
        assert reason in REJECTION_REASONS, reason
        account.record_rejection(reason)
        if self.journal is not None:
            self.journal.append(
                "reject",
                {
                    "seq": seq,
                    "stream": state.config.name,
                    "tenant": state.config.tenant,
                    "reason": reason,
                    "submitted_at": now,
                },
            )
        instrument.incr("serve.rejected")
        instrument.incr(f"serve.rejected.{reason}")
        return SubmitTicket(
            seq=seq,
            stream=state.config.name,
            tenant=state.config.tenant,
            status="rejected",
            reason=reason,
            queue_depth=state.queue.depth,
            submitted_at=now,
        )

    # -- the dispatch cycle -------------------------------------------------
    def run_cycle(self) -> list[FrameVerdict]:
        """Run one dispatch cycle; returns the verdicts it produced."""
        self._cycle += 1
        now = self.clock.now()
        verdicts: list[FrameVerdict] = []
        queues = {name: s.queue for name, s in self._streams.items()}
        with instrument.span("serve.cycle", cycle=self._cycle):
            instrument.incr("serve.cycles")
            # 1. Cancel queued frames whose deadline already passed.
            for state in self._streams.values():
                for pending in state.queue.expire(now):
                    verdicts.append(
                        self._shed_verdict(pending, now, "deadline_expired")
                    )
            # 2. Priority-ordered dispatch under the cycle budget.
            dispatched = select_for_dispatch(queues, self.cycle_budget)
            if self.journal is not None and dispatched:
                self.journal.append(
                    "dispatch",
                    {
                        "cycle": self._cycle,
                        "seqs": [p.seq for p in dispatched],
                    },
                )
            # 3. Sustained-overload shedding of the remaining backlog.
            for pending in shed_overload(queues, self.backlog_limit):
                verdicts.append(
                    self._shed_verdict(pending, now, "overload_shed")
                )
            # 4. Coalesced decode of the dispatched frames.
            for batch in self._coalescer.coalesce(dispatched):
                state = self._streams[batch.stream]
                start = self.clock.now()
                outcomes = decode_pending(
                    batch,
                    state.config.plan,
                    state.rng,
                    decoder=state.decoder,
                    executor=self.executor,
                    shared_phi=state.config.shared_phi,
                )
                decode_s = max(0.0, self.clock.now() - start)
                per_frame = decode_s / max(1, len(outcomes))
                for pending, outcome in zip(batch.pendings, outcomes):
                    verdicts.append(
                        self._decode_verdict(pending, outcome, now, per_frame)
                    )
                self._harvest_worker_losses(state)
            # 5. Feed supervisors, collect alerts, publish gauges.
            for verdict in verdicts:
                state = self._streams[verdict.stream]
                state.supervisor.observe(
                    verdict.status, verdict.deadline_missed
                )
                self._collect_alerts(state)
            for name, state in self._streams.items():
                instrument.set_gauge(
                    f"serve.queue_depth.{name}", state.queue.depth
                )
        for verdict in verdicts:
            self._accounts[verdict.tenant].record_verdict(
                verdict.status, recovered=verdict.recovered
            )
            instrument.incr(f"serve.verdicts.{verdict.status}")
            self._verdicts.append(verdict)
            if self.journal is not None:
                self.journal.append("verdict", self._journal_verdict(verdict))
            if self.on_verdict is not None:
                self.on_verdict(verdict)
        if self.journal is not None:
            # One durable flush per cycle: a crash loses at most the
            # current cycle's records, and at-least-once recovery
            # re-decodes exactly those frames.
            self.journal.flush()
        return verdicts

    @staticmethod
    def _journal_verdict(verdict: FrameVerdict) -> dict:
        """Compact journal form of a verdict (no frame payload)."""
        return {
            "seq": verdict.seq,
            "stream": verdict.stream,
            "tenant": verdict.tenant,
            "priority": verdict.priority,
            "status": verdict.status,
            "reason": verdict.reason,
            "cycle": verdict.cycle,
            "deadline_missed": verdict.deadline_missed,
            "recovered": verdict.recovered,
            "queue_latency_s": verdict.queue_latency_s,
            "decode_s": verdict.decode_s,
            "solver": None
            if verdict.outcome is None
            else verdict.outcome.solver,
        }

    def _harvest_worker_losses(self, state: _StreamState) -> None:
        """Turn supervised-executor losses into worker_lost alerts."""
        if not isinstance(self.executor, SupervisedExecutor):
            return
        for loss in self.executor.pop_losses():
            self._alerts.append(
                AlertEvent(
                    stream=state.config.name,
                    tenant=state.config.tenant,
                    kind="worker_lost",
                    detail=(
                        f"worker {loss.kind} on {loss.label!r} task "
                        f"{loss.index} (retry round {loss.retry_round}): "
                        f"{loss.error}"
                    ),
                    severity="critical",
                    observed_frames=state.supervisor.observed,
                )
            )
            instrument.incr("serve.alerts.worker_lost")

    def _shed_verdict(
        self, pending: PendingFrame, now: float, reason: str
    ) -> FrameVerdict:
        instrument.incr("serve.shed")
        return FrameVerdict(
            seq=pending.seq,
            stream=pending.stream,
            tenant=pending.tenant,
            priority=pending.priority,
            status="shed",
            reason=reason,
            queue_latency_s=max(0.0, now - pending.submitted_at),
            deadline_missed=reason == "deadline_expired",
            cycle=self._cycle,
            recovered=pending.recovered,
        )

    def _decode_verdict(
        self,
        pending: PendingFrame,
        outcome: DecodeOutcome,
        now: float,
        decode_s: float,
    ) -> FrameVerdict:
        status = _OUTCOME_TO_VERDICT.get(outcome.status, outcome.status)
        finished = self.clock.now()
        missed = pending.deadline is not None and finished > pending.deadline
        if missed and status == "decoded":
            # The work finished, but past its deadline: downgrade so the
            # caller knows the result arrived stale (wall-clock mode
            # only; the dispatch loop cancels already-expired frames).
            status = "degraded"
            instrument.incr("serve.deadline_miss_downgrades")
        return FrameVerdict(
            seq=pending.seq,
            stream=pending.stream,
            tenant=pending.tenant,
            priority=pending.priority,
            status=status,
            outcome=outcome,
            queue_latency_s=max(0.0, now - pending.submitted_at),
            decode_s=decode_s,
            deadline_missed=missed,
            cycle=self._cycle,
            recovered=pending.recovered,
        )

    # -- lifecycle / draining ----------------------------------------------
    @property
    def backlog(self) -> int:
        """Total frames currently queued across all streams."""
        return sum(s.queue.depth for s in self._streams.values())

    def drain(self, max_cycles: int = 1000) -> list[FrameVerdict]:
        """Run cycles until every queue is empty; returns all verdicts.

        Exhaustion -- backlog still non-empty after ``max_cycles`` --
        is never silent: it raises :class:`DrainExhausted`, which
        carries the partial verdict list.
        """
        verdicts: list[FrameVerdict] = []
        for _ in range(max_cycles):
            if self.backlog == 0:
                return verdicts
            verdicts.extend(self.run_cycle())
        if self.backlog:
            raise DrainExhausted(
                f"backlog of {self.backlog} frame(s) left after "
                f"{max_cycles} drain cycles",
                verdicts=verdicts,
                backlog=self.backlog,
            )
        return verdicts

    def stop(self) -> list[FrameVerdict]:
        """Stop admitting and drain the backlog; returns final verdicts.

        After ``stop`` every ``submit`` is rejected with
        ``"service_stopped"``; frames already admitted still receive
        their terminal verdicts (the zero-unanswered-frames contract
        survives shutdown).  An attached journal is flushed durable
        (but left open -- its owner closes it).
        """
        self._stopped = True
        verdicts = self.drain()
        if self.journal is not None:
            self.journal.flush()
        return verdicts

    # -- durability: checkpoint + crash recovery ----------------------------
    def checkpoint(self, compact: bool = False) -> dict:
        """Journal a checkpoint of the full recoverable state.

        The checkpoint carries the sequence counter, cycle counter,
        per-tenant accounting and every still-queued frame (payload
        included), so recovery can resume from it without replaying the
        records before it.  With ``compact=True`` the journal file is
        atomically rewritten as header + this checkpoint, reclaiming
        the space of the now-redundant prefix.  Requires a journal.
        """
        if self.journal is None:
            raise JournalError("checkpoint requires a journal")
        payload = {
            "seq": self._seq,
            "cycle": self._cycle,
            "accounts": {
                name: account.to_dict()
                for name, account in sorted(self._accounts.items())
            },
            "pending": [
                pending_record(pending)
                for state in self._streams.values()
                for pending in state.queue.peek_all()
            ],
        }
        if compact:
            self.journal.compact(payload)
        else:
            self.journal.append("checkpoint", payload)
            self.journal.flush()
        instrument.incr("serve.checkpoints")
        return payload

    def recover(self) -> list[int]:
        """Rebuild state from the attached journal after a crash.

        Folds the journal's durable records (the ones present when the
        journal was opened) with
        :func:`~repro.serve.durability.fold_journal`, the fold
        :func:`~repro.serve.replay.replay_report` reads too, and
        applies the result: per-tenant accounting (each journalled seq
        counted once, rejections included), the sequence and cycle
        counters, and -- the heart of it -- every frame that was
        **admitted but never received a terminal verdict** is
        re-enqueued with ``recovered=True``, so its eventual verdict
        carries the at-least-once honesty flag.  Requires the service
        to be configured identically to the crashed one (same tenants
        and streams registered; plans are not serialised).  Returns the
        re-enqueued seqs, in order.  Recovery runs
        once per service: a second call returns ``[]`` and changes no
        queue or account.  A recovery that raises changes nothing, so
        it can be retried once the configuration is fixed.

        Raises :class:`~repro.serve.durability.JournalError` when the
        journal references a tenant or stream this service does not
        know -- recovering into a half-configured service would silently
        orphan frames, the exact failure mode the journal exists to
        prevent.
        """
        if self.journal is None:
            raise JournalError("recover requires a journal")
        if self._recovered:
            return []
        fold = fold_journal(self.journal.recovered_records)
        seqs = fold.outstanding
        outstanding = [fold.admits[seq] for seq in seqs]
        unknown = [
            ("tenant", name)
            for name in fold.tenants
            if name not in self._accounts
        ] + [
            ("stream", record["stream"])
            for record in outstanding
            if record["stream"] not in self._streams
        ]
        if unknown:
            kind, name = unknown[0]
            raise JournalError(
                f"journal references unregistered {kind} {name!r}; "
                "recover into an identically configured service"
            )
        # Every check passed: apply the folded state, once.
        self._recovered = True
        self._accounts.update(fold.accounts)
        self._seq = max(self._seq, fold.max_seq)
        self._cycle = max(self._cycle, fold.max_cycle)
        for record in outstanding:
            state = self._streams[record["stream"]]
            # Force past the queue limit: recovery must never orphan an
            # admitted frame; the overload shedder answers any excess
            # honestly on the next cycle.
            state.queue.push(
                pending_from_record(record, state.priority), force=True
            )
        if seqs:
            instrument.incr("serve.recovered_frames", len(seqs))
        for name, state in self._streams.items():
            instrument.set_gauge(
                f"serve.queue_depth.{name}", state.queue.depth
            )
        return seqs

    def _collect_alerts(self, state: _StreamState) -> None:
        self._alerts.extend(state.supervisor.pop_alerts())

    def pop_alerts(self) -> tuple[AlertEvent, ...]:
        """Drain the alert events raised since the last call."""
        alerts = tuple(self._alerts)
        self._alerts.clear()
        return alerts

    def verdicts(self) -> tuple[FrameVerdict, ...]:
        """Every verdict issued so far (the service's audit log)."""
        return tuple(self._verdicts)

    # -- reporting ----------------------------------------------------------
    def report(self) -> dict:
        """JSON-safe service report: accounting, health, alerts.

        The machine-readable artifact the CI serve-smoke job uploads:
        per-tenant submission/rejection/verdict accounting, per-stream
        supervisor snapshots, and every alert raised so far (alerts are
        *not* drained -- ``pop_alerts`` owns consumption).
        """
        tenants = {
            name: account.to_dict()
            for name, account in sorted(self._accounts.items())
        }
        return instrument.json_safe(
            {
                "schema": SERVE_SCHEMA,
                "cycles": self._cycle,
                "backlog": self.backlog,
                "stopped": self._stopped,
                "journal": None
                if self.journal is None
                else str(self.journal.path),
                "tenants": tenants,
                "streams": {
                    name: state.supervisor.snapshot()
                    for name, state in sorted(self._streams.items())
                },
                "alerts": [a.to_dict() for a in self._alerts],
            }
        )
