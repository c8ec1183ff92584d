"""Per-stream health supervision: escalation alerts and stream breakers.

The resilience layer already supervises individual *solves*
(:class:`~repro.resilience.policies.CircuitBreaker` sidelines a
repeatedly failing solver).  The serving layer needs the same idea one
level up: a *stream* whose decodes keep failing, or whose frames keep
missing deadlines, should stop consuming admission and decode budget
until it recovers -- and operators should hear about it.

:class:`StreamSupervisor` watches the terminal verdicts of one stream
over a sliding window and

* emits an :class:`AlertEvent` when the window's fault ratio or
  deadline-miss/shed ratio crosses its threshold (mirroring the
  :class:`~repro.resilience.adaptive.AdaptationEvent` pattern: frozen,
  JSON-safe, drainable);
* trips a stream-level circuit breaker (closed -> open) on a critical
  fault ratio, rejecting further submissions with ``"breaker_open"``;
* after :data:`COOLDOWN` rejected submissions goes half-open, admits
  one probe frame, and closes again only when the probe decodes.

Like every breaker in this repo the state machine is **count-based**,
never wall-clock-based, so chaos tests replay bit-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .. import instrument

__all__ = ["AlertEvent", "StreamSupervisor"]

#: Verdict statuses that count as decode faults for the fault ratio.
_FAULT_STATUSES = ("fallback", "failed")

#: Verdict statuses that count as losses for the loss (shed) ratio.
_LOSS_STATUSES = ("shed",)

#: The stream breaker's fixed tuning (see :class:`StreamSupervisor`).
WINDOW = 16
FAULT_RATIO_THRESHOLD = 0.5
LOSS_RATIO_THRESHOLD = 0.5
MIN_OBSERVATIONS = 4
COOLDOWN = 8


@dataclass(frozen=True)
class AlertEvent:
    """One supervisor alert (the ``AdaptationEvent`` of the serve layer).

    Attributes
    ----------
    stream:
        Stream the alert concerns.
    tenant:
        Tenant owning the stream.
    kind:
        ``"loss_ratio_high"`` | ``"breaker_open"`` |
        ``"breaker_half_open"`` | ``"breaker_closed"``.
    detail:
        Human-readable specifics (ratios, window size, probe result).
    severity:
        ``"warning"`` (degradation) or ``"critical"`` (breaker trip).
    observed_frames:
        Stream-local count of terminal verdicts observed when the
        alert fired (a deterministic logical timestamp).
    """

    stream: str
    tenant: str
    kind: str
    detail: str
    severity: str
    observed_frames: int

    def to_dict(self) -> dict:
        """JSON-safe form for reports and response streams."""
        return instrument.json_safe(
            {
                "stream": self.stream,
                "tenant": self.tenant,
                "kind": self.kind,
                "detail": self.detail,
                "severity": self.severity,
                "observed_frames": self.observed_frames,
            }
        )


@dataclass
class StreamSupervisor:
    """Sliding-window health tracker + circuit breaker for one stream.

    ``stream`` and ``tenant`` are stamped onto every alert.  The ratios
    cover the last :data:`WINDOW` (16) terminal verdicts and are not
    judged before :data:`MIN_OBSERVATIONS` (4) have been seen (a lone
    early fault is not a 100% fault rate).  A faulted
    (``fallback``/``failed``) share of at least
    :data:`FAULT_RATIO_THRESHOLD` (0.5) trips the breaker with a
    critical alert.  A lost (shed or late) share of at least
    :data:`LOSS_RATIO_THRESHOLD` (0.5) raises a warning only: losses
    are a capacity signal, not a stream defect.  An open breaker rejects
    :data:`COOLDOWN` (8) submissions before it goes half-open.
    """

    stream: str
    tenant: str

    def __post_init__(self) -> None:
        self._statuses: deque[str] = deque(maxlen=WINDOW)
        self._observed = 0
        self._state = "closed"
        self._open_rejections = 0
        self._probe_in_flight = False
        self._alerts: list[AlertEvent] = []
        self._alerted: set[str] = set()

    # -- state the service reads -------------------------------------------
    @property
    def state(self) -> str:
        """Breaker state: ``"closed"`` | ``"open"`` | ``"half_open"``."""
        return self._state

    @property
    def observed(self) -> int:
        """Terminal verdicts observed so far (lifetime count)."""
        return self._observed

    def ratios(self) -> dict:
        """Current window ratios: ``{"fault": f, "loss": l, "frames": n}``."""
        n = len(self._statuses)
        if n == 0:
            return {"fault": 0.0, "loss": 0.0, "frames": 0}
        fault = sum(1 for s in self._statuses if s in _FAULT_STATUSES)
        loss = sum(1 for s in self._statuses if s in _LOSS_STATUSES)
        return {"fault": fault / n, "loss": loss / n, "frames": n}

    def pop_alerts(self) -> tuple[AlertEvent, ...]:
        """Drain the alerts raised since the last call."""
        alerts = tuple(self._alerts)
        self._alerts.clear()
        return alerts

    # -- the submission gate ------------------------------------------------
    def admit(self) -> bool:
        """Gate one submission against the stream breaker.

        Closed: always admit.  Open: reject (counting toward the
        cooldown) until the cooldown elapses, then flip to half-open
        and admit exactly one probe frame.  Half-open with a probe
        already in flight: reject until the probe's verdict lands.
        """
        if self._state == "closed":
            return True
        if self._state == "open":
            self._open_rejections += 1
            if self._open_rejections > COOLDOWN:
                self._state = "half_open"
                self._probe_in_flight = True
                self._alert(
                    "breaker_half_open",
                    f"cooldown of {COOLDOWN} rejections elapsed; "
                    "admitting one probe frame",
                    "warning",
                )
                instrument.incr("serve.breaker.half_open")
                return True
            instrument.incr("serve.breaker.rejections")
            return False
        # half_open: one probe at a time.
        if self._probe_in_flight:
            instrument.incr("serve.breaker.rejections")
            return False
        self._probe_in_flight = True
        return True

    # -- the verdict feedback ----------------------------------------------
    def observe(self, status: str, deadline_missed: bool = False) -> None:
        """Feed one terminal verdict back into the health window.

        ``status`` is the verdict status (``decoded`` | ``degraded`` |
        ``fallback`` | ``failed`` | ``shed``); ``deadline_missed``
        marks a decoded frame that completed past its deadline (counted
        as a loss -- the work was done but arrived worthless).
        """
        effective = "shed" if deadline_missed and status not in (
            "fallback",
            "failed",
        ) else status
        self._statuses.append(effective)
        self._observed += 1
        if self._state == "half_open":
            self._probe_in_flight = False
            if status in ("decoded", "degraded") and not deadline_missed:
                self._state = "closed"
                self._open_rejections = 0
                # Fresh window: the faults that tripped the breaker are
                # history, not evidence against the recovered stream.
                self._statuses.clear()
                self._alert(
                    "breaker_closed",
                    "probe frame decoded; stream re-admitted",
                    "warning",
                )
                instrument.incr("serve.breaker.closed")
            else:
                self._state = "open"
                self._open_rejections = 0
                self._alert(
                    "breaker_open",
                    f"probe frame {status}; breaker re-opened",
                    "critical",
                )
                instrument.incr("serve.breaker.reopened")
            return
        ratios = self.ratios()
        if ratios["frames"] < MIN_OBSERVATIONS:
            return
        if (
            ratios["loss"] >= LOSS_RATIO_THRESHOLD
            and "loss_ratio_high" not in self._alerted
        ):
            self._alerted.add("loss_ratio_high")
            self._alert(
                "loss_ratio_high",
                f"shed/deadline-loss ratio {ratios['loss']:.0%} over the "
                f"last {ratios['frames']} frames "
                f"(threshold {LOSS_RATIO_THRESHOLD:.0%})",
                "warning",
            )
        elif ratios["loss"] < LOSS_RATIO_THRESHOLD:
            self._alerted.discard("loss_ratio_high")
        if (
            self._state == "closed"
            and ratios["fault"] >= FAULT_RATIO_THRESHOLD
        ):
            self._state = "open"
            self._open_rejections = 0
            self._alert(
                "breaker_open",
                f"fault ratio {ratios['fault']:.0%} over the last "
                f"{ratios['frames']} frames "
                f"(threshold {FAULT_RATIO_THRESHOLD:.0%}); "
                "rejecting submissions",
                "critical",
            )
            instrument.incr("serve.breaker.opened")

    def snapshot(self) -> dict:
        """JSON-safe health snapshot for the service report."""
        ratios = self.ratios()
        return instrument.json_safe(
            {
                "stream": self.stream,
                "tenant": self.tenant,
                "breaker": self._state,
                "observed_frames": self._observed,
                "window_fault_ratio": ratios["fault"],
                "window_loss_ratio": ratios["loss"],
            }
        )

    def _alert(self, kind: str, detail: str, severity: str) -> None:
        self._alerts.append(
            AlertEvent(
                stream=self.stream,
                tenant=self.tenant,
                kind=kind,
                detail=detail,
                severity=severity,
                observed_frames=self._observed,
            )
        )
        instrument.incr(f"serve.alerts.{kind}")
