"""Streaming imager: continuous CS acquisition with per-frame errors.

Wraps the :class:`~repro.array.flexible_encoder.FlexibleEncoder` into a
video-style loop: each frame draws a *fresh* random ``Phi_M`` (new
transient errors cannot hide behind a fixed pattern), scans, decodes,
and optionally feeds an RPCA outlier detector with the recent
reconstruction history -- the paper's Sec. 4.3 strategy in its natural
streaming habitat.

The decode side runs on the shared :mod:`repro.core.engine`: the imager
owns its measurement acquisition (the hardware scan), so it solves each
scan with :meth:`~repro.core.engine.DecodeEngine.solve_acquired`, which
binds the fresh ``Phi_M`` to the engine's cached operator template.
Pass a :class:`~repro.resilience.policies.ResiliencePolicy` to
supervise that solve with :func:`~repro.resilience.runtime.supervise`,
the loop the resilient decoder runs (fallback chain, breaker, budgets,
health validation, retry rounds and last-good-frame degradation) -- a
solver fault then costs one degraded frame, not the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.engine import DecodeContext, get_engine
from ..core.errors import SparseErrorModel
from ..core.measurement import get_measurement
from ..core.rpca import detect_outliers
from ..resilience.health import FrameGuard
from ..resilience.policies import ResiliencePolicy
from ..resilience.runtime import ONE_POLICY_OWNER, supervise
from .flexible_encoder import FlexibleEncoder
from .readout import detect_stuck_lines

__all__ = ["FrameRecord", "StreamingImager"]


@dataclass
class _Acquisition:
    """One acquired-but-not-yet-decoded frame (internal to the imager)."""

    index: int
    clean: np.ndarray
    corrupted: np.ndarray
    phi: object
    output: object
    excluded_pixels: int


@dataclass
class FrameRecord:
    """One acquired frame: truth, raw reading, reconstruction.

    ``status`` is ``"ok"`` for a clean first-choice solve, ``"degraded"``
    when a fallback solver delivered the frame, and ``"fallback"`` when
    every solver failed and the frame is the last-good-frame hold (only
    possible with a resilience policy; without one a solver fault
    propagates).  ``solver`` names the solver that produced the frame
    (``None`` for held frames).
    """

    index: int
    clean: np.ndarray
    corrupted: np.ndarray
    reconstructed: np.ndarray
    scan_time_s: float
    excluded_pixels: int
    status: str = "ok"
    solver: str | None = None


@dataclass
class StreamingImager:
    """Continuous acquisition loop over a flexible encoder.

    Parameters
    ----------
    encoder:
        The hardware-modelled FE side.
    sampling_fraction:
        Per-frame M/N.
    error_model:
        Transient/permanent error injector applied to each clean frame
        before it reaches the array (None = clean input).
    rpca_window:
        Number of recent *raw* frames kept for RPCA outlier detection;
        0 disables detection (only the permanent defect map, if the
        array has one, is excluded).
    outlier_threshold:
        RPCA sparse-component magnitude that flags a pixel.
    solver:
        Decoder name for the unsupervised solve.  With a policy (or an
        adaptive controller) the policy's fallback chain names the
        solvers instead, first choice first.
    policy:
        Optional :class:`~repro.resilience.policies.ResiliencePolicy`.
        When set, each frame's scan is solved under
        :func:`~repro.resilience.runtime.supervise`, exactly as the
        resilient decoder supervises a decode: the fallback chain with
        per-solver budgets, the circuit breaker, health validation,
        ``accept_nonconverged`` and up to ``retry.max_rounds`` rounds.
        A round re-solves the frame's one scan (the hardware already
        sampled it), so a frame that fails every solver costs
        ``max_rounds`` passes over the chain before it is served from
        the last-good-frame guard and marked ``"fallback"``.  ``None``
        keeps the raw single-solver behaviour.
    adaptive:
        Optional :class:`~repro.resilience.adaptive.AdaptivePolicy`,
        exclusive with ``policy`` (a policy to adapt is its ``base``).
        When set, it supplies the (self-tuning) policy each frame, the
        full readout codes are run through
        :func:`~repro.array.readout.detect_stuck_lines` after every
        scan (detections feed the controller's sticky exclusion mask,
        steering the *next* frame's sampling away from dead lines),
        and each frame's delivery status is fed back so the policy
        escalates/de-escalates with the stream's health.
    measurement:
        Registered measurement family drawing the per-frame code
        (``"row_sampling"`` default).  Families without exclusion
        support skip the defect/RPCA/stuck-line masks (with an
        adaptive ``unsupported`` event when a controller is attached).
    seed:
        RNG seed for the per-frame code draws.
    """

    encoder: FlexibleEncoder
    sampling_fraction: float = 0.5
    error_model: SparseErrorModel | None = None
    rpca_window: int = 0
    outlier_threshold: float = 0.15
    solver: str = "fista"
    policy: ResiliencePolicy | None = None
    adaptive: object | None = None
    measurement: str = "row_sampling"
    seed: int = 0
    _history: list[np.ndarray] = field(default_factory=list, repr=False)
    _count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError("sampling_fraction must be in (0, 1]")
        if self.rpca_window < 0:
            raise ValueError("rpca_window must be >= 0")
        if self.policy is not None and self.adaptive is not None:
            raise ValueError(ONE_POLICY_OWNER)
        self._rng = np.random.default_rng(self.seed)
        self._guard = FrameGuard()

    def _effective_policy(self) -> ResiliencePolicy | None:
        """The policy governing the next frame (adaptive takes over)."""
        if self.adaptive is not None:
            return self.adaptive.policy
        return self.policy

    def _exclusions(self, corrupted: np.ndarray) -> np.ndarray:
        mask = self.encoder.array.defect_mask
        if self.rpca_window > 1 and len(self._history) >= 2:
            stack = np.stack([*self._history, corrupted])
            detected = detect_outliers(
                stack, threshold=self.outlier_threshold
            )[-1]
            if detected.mean() <= 0.5:  # sanity guard, as in the strategy
                mask = mask | detected
        if self.adaptive is not None:
            stuck = self.adaptive.exclusion_mask(mask.shape)
            if stuck is not None:
                mask = mask | stuck
        return mask

    def _decode(
        self, acquisition: _Acquisition
    ) -> tuple[np.ndarray, str, str | None]:
        """Solve one scan; returns ``(frame, status, solver)``.

        Without a policy this is one :meth:`solve_acquired` with
        :attr:`solver`.  With one (static or the adaptive controller's
        current tuning) the same solve step runs under
        :func:`~repro.resilience.runtime.supervise`.
        """
        engine = get_engine()
        plan = self._plan()
        phi = acquisition.phi
        measurements = acquisition.output.measurements
        policy = self._effective_policy()
        if policy is None:
            frame = engine.solve_acquired(plan, phi, measurements)
            self._guard.update(frame)
            return frame, "ok", self.solver

        def attempt(solver: str, budget: dict):
            return engine.solve_acquired(
                replace(plan, solver=solver, solver_options=budget),
                phi,
                measurements,
                full_output=True,
            )

        outcome = supervise(policy, self._guard, plan.shape, attempt)
        return outcome.frame, outcome.status, outcome.solver

    def _plan(self) -> DecodeContext:
        """The solve plan for this imager's scans (no policy budget)."""
        return DecodeContext(
            shape=self.encoder.array.shape,
            sampling_fraction=self.sampling_fraction,
            solver=self.solver,
            measurement=self.measurement,
        )

    def _acquire(self, clean_frame: np.ndarray) -> _Acquisition:
        """The RNG/hardware half of one capture: corrupt, draw, scan.

        Consumes randomness (error model, ``Phi_M`` draw) and advances
        stream state (RPCA history, stuck-line detections, frame
        counter); :meth:`_decode` is the solve half.
        """
        clean_frame = np.asarray(clean_frame, dtype=float)
        shape = self.encoder.array.shape
        if clean_frame.shape != shape:
            raise ValueError(
                f"frame shape {clean_frame.shape} != array {shape}"
            )
        if self.error_model is not None:
            corrupted, _ = self.error_model.corrupt(clean_frame)
        else:
            corrupted = clean_frame.copy()
        exclusion = self._exclusions(corrupted)
        model = get_measurement(self.measurement)
        n = clean_frame.size
        m = int(round(self.sampling_fraction * n))
        excluded = np.flatnonzero(exclusion.ravel())
        if len(excluded) and not model.supports_exclusions:
            if self.adaptive is not None:
                self.adaptive.note_unsupported(
                    f"measurement family {self.measurement!r} lacks "
                    f"exclusion support; ignoring {len(excluded)} "
                    "excluded pixels"
                )
            excluded = np.array([], dtype=int)
        exclude = excluded if len(excluded) else None
        m = model.budget(n, m, exclude)
        phi = model.draw(shape, m, self._rng, exclude=exclude)
        output = self.encoder.scan_normalized(corrupted, phi)
        if self.adaptive is not None and output.codes is not None:
            stuck = detect_stuck_lines(output.codes)
            if stuck.any():
                self.adaptive.observe_readout(stuck)
        if self.rpca_window > 1:
            self._history.append(corrupted)
            if len(self._history) > self.rpca_window:
                self._history.pop(0)
        index = self._count
        self._count += 1
        return _Acquisition(
            index=index,
            clean=clean_frame,
            corrupted=corrupted,
            phi=phi,
            output=output,
            excluded_pixels=len(excluded),
        )

    def capture(self, clean_frame: np.ndarray) -> FrameRecord:
        """Acquire one frame; returns the full record."""
        acquisition = self._acquire(clean_frame)
        reconstructed, status, used_solver = self._decode(acquisition)
        if self.adaptive is not None:
            self.adaptive.observe_status(status)
        return FrameRecord(
            index=acquisition.index,
            clean=acquisition.clean,
            corrupted=acquisition.corrupted,
            reconstructed=reconstructed,
            scan_time_s=acquisition.output.scan_time_s,
            excluded_pixels=acquisition.excluded_pixels,
            status=status,
            solver=used_solver,
        )

    def stream(self, frames: np.ndarray) -> list[FrameRecord]:
        """Capture a whole ``(count, rows, cols)`` sequence, frame by frame."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 3:
            raise ValueError(f"expected (count, rows, cols), got {frames.shape}")
        return [self.capture(frame) for frame in frames]
