"""The Fig. 7 experiment pipeline.

The paper's evaluation flow (Fig. 7) is::

    dataset -> normalise to [0, 1] -> inject sparse errors (stuck 0/1)
            -> exclude detected defects -> random sampling
            -> L1 reconstruction -> RMSE / classifier evaluation

This module provides the pipeline as composable pieces:

* :func:`normalize_frame` -- min/max normalisation to [0, 1];
* :func:`evaluate_frame` -- run one frame through the full chain and
  report RMSE with CS and without CS (the "w/o CS" baseline is using
  the corrupted frame directly, as in Fig. 6);
* :class:`RobustnessSweep` -- the (sampling fraction x error rate) grid
  of Fig. 6a/6b, averaging over frames and random repetitions;
* :func:`process_frames` -- batch reconstruction used by the tactile
  classification case study (Fig. 6b), which needs the reconstructed
  frames themselves rather than their RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import instrument
from .errors import inject_sparse_errors
from .executor import collect_values, resolve_executor
from .metrics import rmse
from .strategies import OracleExclusionStrategy

__all__ = [
    "normalize_frame",
    "evaluate_frame",
    "FrameOutcome",
    "SweepPoint",
    "RobustnessSweep",
    "process_frames",
]


def normalize_frame(frame: np.ndarray) -> np.ndarray:
    """Min/max normalise a frame to ``[0, 1]`` (first step of Fig. 7).

    A constant frame maps to all zeros.
    """
    frame = np.asarray(frame, dtype=float)
    low = frame.min()
    span = frame.max() - low
    if span == 0.0:
        return np.zeros_like(frame)
    return (frame - low) / span


@dataclass
class FrameOutcome:
    """Everything the pipeline produced for one frame.

    ``decode_outcome`` is populated when the strategy exposes a
    ``last_outcome`` attribute (e.g. it is wrapped in
    :class:`repro.resilience.ResilientStrategy`); plain strategies
    leave it ``None``.
    """

    clean: np.ndarray
    corrupted: np.ndarray
    error_mask: np.ndarray
    reconstructed: np.ndarray
    rmse_with_cs: float
    rmse_without_cs: float
    decode_outcome: object | None = None


def evaluate_frame(
    frame: np.ndarray,
    error_rate: float,
    strategy,
    rng: np.random.Generator,
    already_normalized: bool = False,
) -> FrameOutcome:
    """Run one frame through the Fig. 7 pipeline.

    Parameters
    ----------
    frame:
        The clean sensor frame.
    error_rate:
        Fraction of pixels to corrupt with stuck-0/1 values.
    strategy:
        Any strategy object from :mod:`repro.core.strategies`; its
        ``reconstruct(corrupted, rng, error_mask=...)`` method is called.
    rng:
        Randomness for injection and sampling.
    already_normalized:
        Skip normalisation when the caller did it (e.g. on a shared
        dataset-wide scale).
    """
    with instrument.span(
        "pipeline.evaluate_frame", error_rate=error_rate
    ) as sp:
        clean = np.asarray(frame, dtype=float)
        if not already_normalized:
            clean = normalize_frame(clean)
        corrupted, mask = inject_sparse_errors(clean, error_rate, rng)
        reconstructed = strategy.reconstruct(corrupted, rng, error_mask=mask)
        decode_outcome = getattr(strategy, "last_outcome", None)
        outcome = FrameOutcome(
            clean=clean,
            corrupted=corrupted,
            error_mask=mask,
            reconstructed=reconstructed,
            rmse_with_cs=rmse(clean, reconstructed),
            rmse_without_cs=rmse(clean, corrupted),
            decode_outcome=decode_outcome,
        )
        sp.set(
            rmse_with_cs=outcome.rmse_with_cs,
            rmse_without_cs=outcome.rmse_without_cs,
        )
        if decode_outcome is not None:
            sp.set(decode_status=decode_outcome.status)
            instrument.incr(
                f"pipeline.frames_{decode_outcome.status}"
            )
        instrument.incr("pipeline.frames")
        return outcome


@dataclass
class SweepPoint:
    """Aggregated result at one (sampling fraction, error rate) grid point."""

    sampling_fraction: float
    error_rate: float
    rmse_with_cs: float
    rmse_without_cs: float
    rmse_with_cs_std: float
    num_frames: int


def _sweep_point_task(args):
    """Evaluate one independent grid point (picklable task body).

    Each point derives its own RNG from ``(seed, fraction, rate)``, so
    points are order-independent and distribute across workers without
    changing results.
    """
    strategy, frames, fraction, rate, seed = args
    rng = np.random.default_rng(
        [seed, int(fraction * 1000), int(rate * 1000)]
    )
    with_cs: list[float] = []
    without_cs: list[float] = []
    with instrument.span(
        "pipeline.sweep_point",
        sampling_fraction=fraction,
        error_rate=rate,
        frames=len(frames),
    ):
        for frame in frames:
            outcome = evaluate_frame(frame, rate, strategy, rng)
            with_cs.append(outcome.rmse_with_cs)
            without_cs.append(outcome.rmse_without_cs)
    return SweepPoint(
        sampling_fraction=fraction,
        error_rate=rate,
        rmse_with_cs=float(np.mean(with_cs)),
        rmse_without_cs=float(np.mean(without_cs)),
        rmse_with_cs_std=float(np.std(with_cs)),
        num_frames=len(frames),
    )


@dataclass
class RobustnessSweep:
    """The Fig. 6a grid: RMSE over sampling fractions x sparse-error rates.

    Parameters
    ----------
    sampling_fractions:
        The M/N values to sweep (the paper uses 0.45-0.60).
    error_rates:
        Sparse-error fractions (the paper uses 0-0.20).
    strategy_factory:
        Callable ``sampling_fraction -> strategy``; defaults to the
        paper's oracle-exclusion strategy with the FISTA decoder.
    seed:
        Base RNG seed (each grid point derives its own stream).
    """

    sampling_fractions: tuple[float, ...] = (0.45, 0.50, 0.55, 0.60)
    error_rates: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    strategy_factory: object = None
    seed: int = 0
    _results: list[SweepPoint] = field(default_factory=list, repr=False)

    def _make_strategy(self, sampling_fraction: float):
        if self.strategy_factory is None:
            return OracleExclusionStrategy(sampling_fraction=sampling_fraction)
        return self.strategy_factory(sampling_fraction)

    def run(
        self, frames: np.ndarray, executor=None
    ) -> list[SweepPoint]:
        """Evaluate every grid point over all ``frames``.

        ``frames`` has shape ``(num_frames, rows, cols)``.  Returns the
        grid as a flat list of :class:`SweepPoint`, also stored on the
        instance for :meth:`table`.

        ``executor`` (any :func:`~repro.core.executor.resolve_executor`
        spec) distributes grid points over workers; without one they
        run in grid order in-process.  Both routes evaluate the same
        task list with :func:`_sweep_point_task`, one fresh strategy
        per point, and every point derives its RNG from ``(seed,
        fraction, rate)``, so the distributed results equal the
        in-process ones exactly.
        """
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 3:
            raise ValueError(
                f"expected (frames, rows, cols), got shape {frames.shape}"
            )
        resolved = resolve_executor(executor)
        tasks = [
            (self._make_strategy(fraction), frames, fraction, rate, self.seed)
            for fraction in self.sampling_fractions
            for rate in self.error_rates
        ]
        if resolved is None:
            self._results = [_sweep_point_task(task) for task in tasks]
        else:
            self._results = collect_values(
                resolved.map_tasks(_sweep_point_task, tasks, label="sweep")
            )
        return self._results

    def table(self) -> str:
        """Render the last :meth:`run` as the Fig. 6a text table."""
        if not self._results:
            raise RuntimeError("call run() before table()")
        lines = [
            f"{'sampling':>9} {'err rate':>9} {'RMSE w/ CS':>11} {'RMSE w/o CS':>12}"
        ]
        for point in self._results:
            lines.append(
                f"{point.sampling_fraction:>9.2f} {point.error_rate:>9.2f} "
                f"{point.rmse_with_cs:>11.4f} {point.rmse_without_cs:>12.4f}"
            )
        return "\n".join(lines)


def process_frames(
    frames: np.ndarray,
    error_rate: float,
    strategy,
    seed: int = 0,
    already_normalized: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt + reconstruct a batch of frames (Fig. 6b front end).

    Returns ``(corrupted, reconstructed)`` stacks with the same shape as
    ``frames``; the classifier case study evaluates accuracy on both to
    obtain the "w/o CS" and "w/ CS" curves.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3:
        raise ValueError(
            f"expected (frames, rows, cols), got shape {frames.shape}"
        )
    rng = np.random.default_rng(seed)
    corrupted_stack = np.empty_like(frames)
    reconstructed_stack = np.empty_like(frames)
    with instrument.span(
        "pipeline.process_frames",
        frames=len(frames),
        error_rate=error_rate,
    ):
        for i, frame in enumerate(frames):
            clean = frame if already_normalized else normalize_frame(frame)
            corrupted, mask = inject_sparse_errors(clean, error_rate, rng)
            corrupted_stack[i] = corrupted
            reconstructed_stack[i] = strategy.reconstruct(
                corrupted, rng, error_mask=mask
            )
            instrument.incr("pipeline.frames")
    return corrupted_stack, reconstructed_stack
