"""Reconstruction health validation and graceful-degradation fallback.

Every frame the resilient runtime returns has passed (or been replaced
after failing) the checks here:

* **finite** -- no NaN/Inf pixels;
* **shape** -- matches the requested frame shape;
* **range** -- pixels inside a tolerance band around the normalised
  ``[0, 1]`` scale (a decode that swings to +/-40 is numerically
  "finite" but physically garbage);
* **residual** -- the solver's final ``||A x - b||_2`` is finite and
  not large relative to ``||b||_2`` (a diverged or poisoned solve
  leaves a tell-tale residual even when the synthesised frame looks
  plausible).

:class:`FrameGuard` implements the graceful-degradation half: it
remembers the last healthy frame per stream and serves it (zero-order
hold) -- or a flat fill frame before any success -- when every decode
attempt fails, so the pipeline *always* delivers a frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import instrument
from ..core.solvers import SolverResult

__all__ = [
    "HealthReport",
    "validate_reconstruction",
    "residual_sane",
    "FrameGuard",
]

#: Default tolerance band around the normalised [0, 1] pixel scale.
DEFAULT_VALUE_RANGE: tuple[float, float] = (-0.5, 1.5)

#: Default cap on ``residual / max(||b||, 1e-12)`` before a solve is
#: declared unhealthy.  Healthy BPDN solves on [0, 1]-scale data sit far
#: below 1; diverged/poisoned solves overshoot by orders of magnitude.
DEFAULT_RESIDUAL_FACTOR: float = 2.0

#: Pixel value of :class:`FrameGuard`'s frame before any healthy one.
FILL_VALUE = 0.0


@dataclass(frozen=True)
class HealthReport:
    """Outcome of validating one reconstruction.

    Attributes
    ----------
    ok:
        ``True`` when every check passed.
    failed:
        Names of the failed checks (``"finite"``, ``"shape"``,
        ``"range"``, ``"residual"``), empty when healthy.
    detail:
        Per-check diagnostics (counts, observed extrema, ratios).
    """

    ok: bool
    failed: tuple[str, ...] = ()
    detail: dict = field(default_factory=dict)


def residual_sane(
    result: SolverResult,
    measurements: np.ndarray,
    factor: float = DEFAULT_RESIDUAL_FACTOR,
) -> bool:
    """Whether a solve's final residual is plausible for its data.

    Requires ``result.residual`` finite and at most ``factor *
    max(||b||, 1e-12)``.  The relative form makes the check scale-free;
    the tiny floor keeps an all-zero measurement vector (legitimately
    zero residual) from dividing by zero.
    """
    if not np.isfinite(result.residual):
        return False
    scale = max(float(np.linalg.norm(measurements)), 1e-12)
    return result.residual <= factor * scale


def validate_reconstruction(
    frame: np.ndarray,
    expected_shape: tuple[int, ...] | None = None,
    value_range: tuple[float, float] = DEFAULT_VALUE_RANGE,
    solver_result: SolverResult | None = None,
    measurements: np.ndarray | None = None,
    residual_factor: float = DEFAULT_RESIDUAL_FACTOR,
) -> HealthReport:
    """Run the full health-check battery on one reconstruction.

    Parameters
    ----------
    frame:
        The reconstructed frame.
    expected_shape:
        Shape the caller asked for; ``None`` skips the check.
    value_range:
        Inclusive ``(low, high)`` band every pixel must fall into.
    solver_result, measurements:
        When both are given, :func:`residual_sane` is added to the
        battery (diverged/poisoned solves fail here even when the
        synthesised frame happens to look plausible).
    residual_factor:
        Forwarded to :func:`residual_sane`.

    Returns
    -------
    HealthReport
        ``ok`` plus the failed-check names and diagnostics.  Also
        increments ``resilience.health.failed.<check>`` counters so
        chaos runs expose *which* checks catch which faults.
    """
    frame = np.asarray(frame)
    failed: list[str] = []
    detail: dict = {}

    if expected_shape is not None and frame.shape != tuple(expected_shape):
        failed.append("shape")
        detail["shape"] = {
            "expected": tuple(expected_shape),
            "got": frame.shape,
        }

    finite = np.isfinite(frame)
    if not finite.all():
        failed.append("finite")
        detail["finite"] = {"bad_pixels": int(np.count_nonzero(~finite))}
    elif frame.size:
        low, high = value_range
        observed_low = float(frame.min())
        observed_high = float(frame.max())
        if observed_low < low or observed_high > high:
            failed.append("range")
            detail["range"] = {
                "allowed": (low, high),
                "observed": (observed_low, observed_high),
            }

    if solver_result is not None and measurements is not None:
        if not residual_sane(solver_result, measurements, residual_factor):
            failed.append("residual")
            detail["residual"] = {
                "residual": float(solver_result.residual),
                "measurement_norm": float(np.linalg.norm(measurements)),
                "factor": residual_factor,
            }
        if solver_result.info.get("diverged"):
            if "residual" not in failed:
                failed.append("residual")
            detail.setdefault("residual", {})["diverged"] = True

    for check in failed:
        instrument.incr(f"resilience.health.failed.{check}")
    return HealthReport(ok=not failed, failed=tuple(failed), detail=detail)


@dataclass
class FrameGuard:
    """Last-good-frame store backing the graceful-degradation path.

    Before any healthy reconstruction exists it serves a flat, dark
    :data:`FILL_VALUE` (0.0) frame.  ``update`` must only be fed frames
    that already passed health validation; ``fallback`` never fails and
    never returns a reference the caller could mutate into the store.
    """

    _last_good: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def has_frame(self) -> bool:
        """Whether a healthy frame has been stored yet."""
        return self._last_good is not None

    def update(self, frame: np.ndarray) -> None:
        """Store a (validated) frame as the new zero-order-hold source."""
        self._last_good = np.array(frame, dtype=float, copy=True)

    def fallback(self, shape: tuple[int, ...]) -> np.ndarray:
        """A frame of ``shape`` from the hold store (or the fill value).

        Serves a copy of the last good frame when its shape matches,
        else a constant frame -- so the caller always gets *something*
        displayable, the contract the paper's always-on readout needs.
        """
        if self._last_good is not None and self._last_good.shape == tuple(shape):
            instrument.incr("resilience.fallback.held_frames")
            return self._last_good.copy()
        instrument.incr("resilience.fallback.fill_frames")
        return np.full(shape, FILL_VALUE)
