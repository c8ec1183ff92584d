"""repro.serve -- the multi-tenant async decode service.

The serving layer the ROADMAP's million-user north star asks for: many
sensor streams decoded concurrently without one misbehaving tenant
starving the rest.  Every piece the service composes already exists in
the repo -- frozen :class:`~repro.core.engine.DecodeContext` plans, the
batched :meth:`~repro.core.engine.DecodeEngine.decode_batch` path, the
pluggable :mod:`~repro.core.executor` backends and the supervised
:class:`~repro.resilience.runtime.ResilientDecoder` -- this package
adds the robust front end that owns them under load:

* **admission control** (:mod:`.admission`): token-bucket quotas per
  tenant and per stream, with a machine-readable rejection taxonomy;
* **bounded queues + backpressure** (:mod:`.queueing`): explicit
  ``accepted`` / ``queued`` / ``rejected`` tickets, never unbounded
  memory;
* **deadlines** (:mod:`.clock`, the dispatch loop): expired frames are
  cancelled with a terminal verdict instead of rotting in the queue,
  and accepted frames never miss deadlines silently;
* **priority-aware load shedding**: under sustained overload the
  lowest-priority, stalest frames are shed first -- every shed frame
  gets an answer;
* **per-stream health supervision** (:mod:`.supervisor`): fault-ratio
  and deadline-loss tracking, a stream-level circuit breaker, and
  drainable :class:`~repro.serve.supervisor.AlertEvent` records;
* **batch coalescing** (:mod:`.coalescer`): same-plan frames collapse
  into ``decode_batch`` calls on a shared executor;
* an **asyncio front end** (:mod:`.async_service`) over the
  deterministic synchronous core (:mod:`.service`);
* **durability** (:mod:`.durability`, :mod:`.replay`): a CRC-guarded
  write-ahead verdict journal, checkpoint + crash recovery with
  ``recovered=True`` honesty flags, and an offline replay/audit CLI
  (``python -m repro.serve.replay``).

Quickstart::

    import numpy as np
    from repro.core.engine import DecodeContext
    from repro.serve import (
        DecodeService, Quota, StreamConfig, TenantConfig,
    )

    service = DecodeService(cycle_budget=8)
    service.register_tenant(TenantConfig("icu", priority=2))
    service.register_stream(StreamConfig(
        name="icu/skin-0", tenant="icu",
        plan=DecodeContext(shape=(16, 16), sampling_fraction=0.5),
        quota=Quota(rate=100.0, burst=16),
    ))
    ticket = service.submit("icu/skin-0", np.zeros((16, 16)))
    verdicts = service.drain()

See ``docs/SERVING.md`` for the full lifecycle, the rejection-reason
taxonomy and the overload semantics.
"""

from .admission import REJECTION_REASONS, AdmissionController, Quota, TokenBucket
from .async_service import AsyncDecodeService
from .clock import Clock, MonotonicClock, VirtualClock
from .coalescer import CoalescedBatch, Coalescer, decode_pending
from .durability import (
    JOURNAL_SCHEMA,
    JournalError,
    JournalVersionError,
    VerdictJournal,
    read_journal,
    scan_journal,
)
from .queueing import (
    PendingFrame,
    StreamQueue,
    select_for_dispatch,
    shed_overload,
)
# NOTE: .replay is deliberately NOT imported eagerly -- it doubles as
# the ``python -m repro.serve.replay`` CLI, and importing it here would
# put it in sys.modules before runpy executes it as __main__ (the
# "found in sys.modules" RuntimeWarning).  The two public names resolve
# lazily through __getattr__ below.
from .service import (
    DecodeService,
    DrainExhausted,
    FrameVerdict,
    StreamConfig,
    SubmitTicket,
    TenantConfig,
)
from .supervisor import AlertEvent, StreamSupervisor

__all__ = [
    "AdmissionController",
    "AlertEvent",
    "AsyncDecodeService",
    "Clock",
    "CoalescedBatch",
    "Coalescer",
    "DecodeService",
    "DrainExhausted",
    "FrameVerdict",
    "JOURNAL_SCHEMA",
    "JournalError",
    "JournalVersionError",
    "MonotonicClock",
    "PendingFrame",
    "Quota",
    "REJECTION_REASONS",
    "StreamConfig",
    "StreamQueue",
    "StreamSupervisor",
    "SubmitTicket",
    "TenantConfig",
    "TokenBucket",
    "VerdictJournal",
    "VirtualClock",
    "decode_pending",
    "read_journal",
    "render_report",
    "replay_report",
    "scan_journal",
    "select_for_dispatch",
    "shed_overload",
]


def __getattr__(name: str):
    """Resolve the replay re-exports lazily (see the NOTE above)."""
    if name in ("render_report", "replay_report"):
        from . import replay

        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
