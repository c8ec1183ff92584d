"""Admission control: token buckets, quotas and the rejection taxonomy.

The first robustness layer of the decode service: *before* a frame is
allowed to occupy queue memory, its tenant's and its stream's token
buckets must both cover it.  A misbehaving tenant flooding the service
therefore burns its own budget and sees explicit, machine-readable
rejections -- it cannot starve other tenants of queue space or decode
cycles (the serving-layer lesson of the context-aware-readout line of
work: idle or greedy streams must be cheap to refuse).

Everything here is deterministic: buckets refill as a pure function of
the injected :class:`~repro.serve.clock.Clock`, so identical traffic
against a :class:`~repro.serve.clock.VirtualClock` admits and rejects
identically on every run.

The module also owns the service-wide **rejection-reason taxonomy**
(:data:`REJECTION_REASONS`): every rejected submission and every shed
frame carries exactly one of these strings, and the acceptance tests
assert the service never invents an undocumented reason.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import instrument
from .clock import Clock, MonotonicClock

__all__ = [
    "AdmissionController",
    "Quota",
    "REJECTION_REASONS",
    "TokenBucket",
]


#: Machine-readable reasons a frame can be refused or shed.  Submission
#: rejections (returned on the ticket):
#:
#: * ``"invalid_frame"``       -- frame failed validation (not a float
#:   array, wrong shape, NaN/Inf);
#: * ``"tenant_rate_exceeded"``-- the tenant token bucket is empty;
#: * ``"stream_rate_exceeded"``-- the stream token bucket is empty;
#: * ``"queue_full"``          -- the stream's bounded queue is at capacity;
#: * ``"breaker_open"``        -- the stream's health breaker is open;
#: * ``"deadline_unsatisfiable"`` -- the deadline had already passed at
#:   submission;
#: * ``"service_stopped"``     -- the service is shutting down.
#:
#: Queue sheds (returned on the terminal verdict):
#:
#: * ``"deadline_expired"``    -- the deadline passed while queued;
#: * ``"overload_shed"``       -- dropped by priority-aware load shedding.
REJECTION_REASONS: frozenset[str] = frozenset(
    {
        "invalid_frame",
        "tenant_rate_exceeded",
        "stream_rate_exceeded",
        "queue_full",
        "breaker_open",
        "deadline_unsatisfiable",
        "service_stopped",
        "deadline_expired",
        "overload_shed",
    }
)


@dataclass(frozen=True)
class Quota:
    """A sustained-rate + burst admission budget.

    Parameters
    ----------
    rate:
        Sustained admissions per second (tokens refilled per second of
        clock time).  ``0`` means "no sustained budget" -- only the
        initial burst is ever admitted.
    burst:
        Bucket capacity: how many admissions may arrive back-to-back
        before the rate limit bites.
    """

    rate: float
    burst: int

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


class TokenBucket:
    """Deterministic token bucket refilled from an injected clock.

    Tokens accrue continuously at ``quota.rate`` per clock second up to
    ``quota.burst``; each admission spends one token.  Refill is a pure
    function of elapsed clock time, so under a
    :class:`~repro.serve.clock.VirtualClock` the admit/reject sequence
    for a given traffic trace is exactly reproducible.
    """

    def __init__(self, quota: Quota, clock: Clock | None = None):
        self.quota = quota
        self._clock = clock if clock is not None else MonotonicClock()
        self._tokens = float(quota.burst)
        self._last = self._clock.now()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(
            float(self.quota.burst), self._tokens + elapsed * self.quota.rate
        )

    def peek(self) -> float:
        """Tokens available right now (after refill), without spending."""
        self._refill(self._clock.now())
        return self._tokens

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Spend ``amount`` tokens if available; ``False`` otherwise."""
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        self._refill(self._clock.now())
        if self._tokens + 1e-9 >= amount:
            self._tokens -= amount
            return True
        return False


class AdmissionController:
    """Per-tenant and per-stream rate gates for one service instance.

    Owns one :class:`TokenBucket` per registered tenant and stream
    (``None`` quota = unlimited).  :meth:`admit` checks the tenant gate
    first, then the stream gate, and returns the first rejection reason
    -- or ``None`` when the frame may proceed to the queue layer.
    Results are counted under ``serve.admission.*``.
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        self._tenant_buckets: dict[str, TokenBucket] = {}
        self._stream_buckets: dict[str, TokenBucket] = {}

    def register_tenant(self, tenant: str, quota: Quota | None) -> None:
        """Install (or remove, with ``None``) a tenant's rate quota."""
        if quota is None:
            self._tenant_buckets.pop(tenant, None)
        else:
            self._tenant_buckets[tenant] = TokenBucket(quota, self._clock)

    def register_stream(self, stream: str, quota: Quota | None) -> None:
        """Install (or remove, with ``None``) a stream's rate quota."""
        if quota is None:
            self._stream_buckets.pop(stream, None)
        else:
            self._stream_buckets[stream] = TokenBucket(quota, self._clock)

    def admit(self, tenant: str, stream: str) -> str | None:
        """Gate one submission; returns a rejection reason or ``None``.

        Token spend is atomic across the two gates: when the tenant
        bucket admits but the stream bucket refuses, the tenant token
        is refunded so a stream-limited burst does not silently drain
        its tenant's budget.
        """
        tenant_bucket = self._tenant_buckets.get(tenant)
        if tenant_bucket is not None and not tenant_bucket.try_acquire():
            instrument.incr("serve.admission.tenant_rate_exceeded")
            return "tenant_rate_exceeded"
        stream_bucket = self._stream_buckets.get(stream)
        if stream_bucket is not None and not stream_bucket.try_acquire():
            if tenant_bucket is not None:
                tenant_bucket._tokens = min(
                    float(tenant_bucket.quota.burst),
                    tenant_bucket._tokens + 1.0,
                )
            instrument.incr("serve.admission.stream_rate_exceeded")
            return "stream_rate_exceeded"
        instrument.incr("serve.admission.admitted")
        return None
