"""Adaptive self-tuning resilience policies.

The static :class:`~repro.resilience.policies.ResiliencePolicy` is a
fixed contract: the same chain, budgets and retry bound whether the
array is healthy or falling apart.  This module closes the loop -- an
:class:`AdaptivePolicy` watches the health telemetry each decode
produces (frame status, breaker state, detected stuck lines) and
re-tunes the live policy *between* frames:

* under rising fault rates it escalates: widens the fallback chain with
  extra solver families and spends additional retry rounds (each a
  fresh resampling draw, the paper's Sec. 4.3 response to a bad draw);
* when the circuit breaker sidelines a solver, the sidelined solver's
  budget shrinks to a short iteration probe so half-open probes stay
  cheap;
* stuck row/column masks from
  :func:`~repro.array.readout.detect_stuck_lines` accumulate into a
  sticky sampling-exclusion mask (capped so a cascade of detections
  can never starve the sampler), steering measurements away from dead
  lines exactly like the paper's oracle-exclusion strategy -- except
  the "oracle" is the runtime's own health monitoring;
* after a calm streak it de-escalates one level at a time, so a single
  bad frame does not permanently inflate decode cost.

Every adjustment is recorded as an :class:`AdaptationEvent` and counted
under ``resilience.adaptive.*``; the runtime attaches the events and a
policy snapshot to each :class:`~repro.resilience.runtime.DecodeOutcome`
so adaptation is fully auditable.  The controller is deliberately
deterministic: level changes depend only on the observed status
sequence, adaptive budgets are iteration-based (never wall-clock), and
no randomness is consumed -- two identically-seeded runs adapt
identically, bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .. import instrument
from .policies import ResiliencePolicy, RetryPolicy, SolverBudget

__all__ = ["AdaptationEvent", "AdaptivePolicy"]

#: The controller's fixed tuning (see :class:`AdaptivePolicy`).
EXTRA_SOLVERS: tuple[str, ...] = ("iht", "cosamp")
WINDOW = 8
HIGH_FAULT_RATIO = 0.5
CALM_FRAMES = 4
PROBE_ITERATIONS = 40
MAX_EXCLUDED_FRACTION = 0.5


@dataclass(frozen=True)
class AdaptationEvent:
    """One recorded policy adjustment.

    Attributes
    ----------
    frame_index:
        Index of the observed frame that triggered the adjustment
        (0-based, counted by the controller).
    action:
        ``"escalate"`` | ``"de_escalate"`` | ``"exclude_lines"`` |
        ``"mask_capped"`` | ``"probe_budget"`` | ``"unsupported"``.
    detail:
        Human-readable specifics (new level, rows excluded, solver
        probed, ...).
    level:
        Escalation level *after* the adjustment.
    """

    frame_index: int
    action: str
    detail: str
    level: int

    def to_dict(self) -> dict:
        """JSON-safe form for ``DecodeOutcome.to_dict``."""
        return instrument.json_safe(
            {
                "frame_index": self.frame_index,
                "action": self.action,
                "detail": self.detail,
                "level": self.level,
            }
        )


@dataclass
class AdaptivePolicy:
    """Feedback controller that tunes a live :class:`ResiliencePolicy`.

    Plug an instance into :class:`~repro.resilience.runtime.ResilientDecoder`
    (``adaptive=``) or :class:`~repro.array.imager.StreamingImager`; the
    runtime reads :attr:`policy` before each frame and feeds outcomes
    back through :meth:`observe_outcome` / :meth:`observe_readout`.

    ``base`` is the level-0 policy.  It stays untouched: adaptation
    derives from it with :func:`dataclasses.replace`, sharing the
    breaker instance so failure history survives re-tuning.

    From level 1 on the chain gains :data:`EXTRA_SOLVERS` (``iht``,
    ``cosamp``) and one retry round per level.  A non-``"ok"`` share
    of :data:`HIGH_FAULT_RATIO` (0.5) of the last :data:`WINDOW` (8)
    frames escalates straight to level 2; :data:`CALM_FRAMES` (4)
    ``"ok"`` frames in a row step down one level.  A breaker-open
    solver's budget is capped at :data:`PROBE_ITERATIONS` (40), and the
    sticky exclusion mask covers at most :data:`MAX_EXCLUDED_FRACTION`
    (0.5) of the frame.
    """

    base: ResiliencePolicy = field(default_factory=ResiliencePolicy)

    def __post_init__(self) -> None:
        self._level = 0
        self._statuses: deque[str] = deque(maxlen=WINDOW)
        self._calm = 0
        self._frame_index = 0
        self._mask: np.ndarray | None = None
        self._events: list[AdaptationEvent] = []
        self._probed: tuple[str, ...] = ()
        self._current = self.base

    # -- what the runtime reads --------------------------------------------
    @property
    def policy(self) -> ResiliencePolicy:
        """The live policy for the next decode (level-adjusted)."""
        return self._current

    @property
    def level(self) -> int:
        """Current escalation level: 0 (calm), 1 or 2."""
        return self._level

    def exclusion_mask(self, shape: tuple) -> np.ndarray | None:
        """The sticky stuck-line exclusion mask for ``shape``.

        ``None`` when nothing has been excluded yet or the accumulated
        mask was detected on a different frame shape.
        """
        if self._mask is None or tuple(self._mask.shape) != tuple(shape):
            return None
        return self._mask.copy()

    def pop_events(self) -> tuple[AdaptationEvent, ...]:
        """Drain the adjustments recorded since the last call."""
        events = tuple(self._events)
        self._events.clear()
        return events

    # -- what the runtime feeds back ----------------------------------------
    def observe_outcome(self, outcome) -> None:
        """Feed one :class:`DecodeOutcome` back (delegates to status)."""
        self.observe_status(outcome.status)

    def observe_status(self, status: str) -> None:
        """Feed one frame's delivery status back and re-tune the policy.

        ``"ok"`` frames extend the calm streak (eventually
        de-escalating); ``"degraded"`` escalates to level 1,
        ``"fallback"`` -- or a window fault ratio at or above
        :data:`HIGH_FAULT_RATIO` -- to level 2.
        """
        self._statuses.append(status)
        self._frame_index += 1
        if status == "ok":
            self._calm += 1
            if self._level > 0 and self._calm >= CALM_FRAMES:
                self._level -= 1
                self._calm = 0
                self._record(
                    "de_escalate",
                    f"{CALM_FRAMES} calm frames; level -> {self._level}",
                )
                instrument.incr("resilience.adaptive.de_escalations")
        else:
            self._calm = 0
            # Ratio over the full window, so a lone fault right after
            # start-up is not mistaken for a 100% fault rate.
            faulty = sum(1 for s in self._statuses if s != "ok")
            ratio = faulty / WINDOW
            target = (
                2
                if status == "fallback" or ratio >= HIGH_FAULT_RATIO
                else 1
            )
            if target > self._level:
                self._level = target
                self._record(
                    "escalate",
                    f"status={status}, fault_ratio={ratio:.2f}; "
                    f"level -> {self._level}",
                )
                instrument.incr("resilience.adaptive.escalations")
        instrument.set_gauge("resilience.adaptive.level", self._level)
        self._rebuild()

    def observe_readout(self, stuck_mask: np.ndarray) -> None:
        """Accumulate a stuck-line detection into the exclusion mask.

        ``stuck_mask`` is the boolean output of
        :func:`~repro.array.readout.detect_stuck_lines`.  Exclusions
        are sticky (a broken gate line does not heal) but capped at
        :data:`MAX_EXCLUDED_FRACTION` of the frame; a detection that would
        exceed the cap is dropped and recorded as ``"mask_capped"``.
        """
        stuck_mask = np.asarray(stuck_mask, dtype=bool)
        if not stuck_mask.any():
            return
        if self._mask is not None and tuple(self._mask.shape) != tuple(
            stuck_mask.shape
        ):
            self._mask = None  # frame geometry changed; start over
        merged = (
            stuck_mask
            if self._mask is None
            else (self._mask | stuck_mask)
        )
        if merged.mean() > MAX_EXCLUDED_FRACTION:
            self._record(
                "mask_capped",
                f"detection would exclude {merged.mean():.0%} "
                f"(cap {MAX_EXCLUDED_FRACTION:.0%}); dropped",
            )
            instrument.incr("resilience.adaptive.mask_capped")
            return
        new_pixels = int(merged.sum()) - (
            0 if self._mask is None else int(self._mask.sum())
        )
        if new_pixels > 0:
            self._record(
                "exclude_lines",
                f"+{new_pixels} px excluded "
                f"({merged.mean():.0%} of frame)",
            )
            instrument.incr("resilience.adaptive.excluded_pixels", new_pixels)
        self._mask = merged
        instrument.set_gauge(
            "resilience.adaptive.mask_pixels", int(merged.sum())
        )

    def note_unsupported(self, detail: str) -> None:
        """Record that a capability degradation occurred (audit trail).

        Called by runtimes when the active measurement family cannot
        honour an adaptation -- e.g. stuck-line exclusions against a
        family without exclusion support.  The degradation is explicit:
        an ``"unsupported"`` :class:`AdaptationEvent` plus the
        ``resilience.adaptive.unsupported`` counter, never a silent
        skip.
        """
        self._record("unsupported", detail)
        instrument.incr("resilience.adaptive.unsupported")

    def reset(self) -> None:
        """Restore the initial controller state (level 0, no mask)."""
        self._level = 0
        self._statuses.clear()
        self._calm = 0
        self._frame_index = 0
        self._mask = None
        self._events.clear()
        self._probed = ()
        self._current = self.base

    # -- internals -----------------------------------------------------------
    def _record(self, action: str, detail: str) -> None:
        self._events.append(
            AdaptationEvent(
                frame_index=self._frame_index - 1,
                action=action,
                detail=detail,
                level=self._level,
            )
        )

    def _rebuild(self) -> None:
        """Derive the live policy from ``base`` at the current level."""
        policy = self.base
        if self._level >= 1:
            chain = tuple(policy.fallback_chain) + tuple(
                s
                for s in EXTRA_SOLVERS
                if s not in policy.fallback_chain
            )
            policy = replace(
                policy,
                fallback_chain=chain,
                retry=RetryPolicy(
                    max_rounds=policy.retry.max_rounds + self._level
                ),
            )
        open_solvers = (
            policy.breaker.open_solvers() if policy.breaker is not None else ()
        )
        if open_solvers:
            budgets = dict(policy.budgets)
            for solver in open_solvers:
                current = policy.budget_for(solver).max_iterations
                cap = (
                    PROBE_ITERATIONS
                    if current is None
                    else min(current, PROBE_ITERATIONS)
                )
                budgets[solver] = SolverBudget(max_iterations=cap)
            policy = replace(policy, budgets=budgets)
        if open_solvers != self._probed:
            for solver in open_solvers:
                if solver not in self._probed:
                    self._record(
                        "probe_budget",
                        f"{solver} breaker open; budget capped at "
                        f"{PROBE_ITERATIONS} iterations",
                    )
                    instrument.incr("resilience.adaptive.probe_budgets")
            self._probed = open_solvers
        self._current = policy
