"""Experiment RES: decode availability under injected decoder faults.

The paper's robustness results (Fig. 6) assume the *decoder* is
perfect and only the *pixels* fail.  This experiment inverts that:
pixels are clean, and the decode stack itself is chaos-tested with the
full fault taxonomy (crashing solvers, divergence, measurement dropout,
NaN poisoning, budget exhaustion) at increasing fault rates, with the
:class:`~repro.resilience.ResilientDecoder` supervising recovery.

For each fault rate the sweep reports frame delivery (must stay 100 %
by construction), the ok/degraded/fallback split, median RMSE against
the fault-free decode, and how often the retry/fallback machinery was
exercised -- i.e. a degradation curve for the decode *runtime* rather
than the sensor array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import instrument
from ..core.engine import DecodeContext
from ..core.executor import collect_values, resolve_executor
from ..core.metrics import rmse
from ..datasets import ThermalHandGenerator
from ..resilience import (
    ResiliencePolicy,
    ResilientDecoder,
    chaos,
    default_taxonomy,
)

__all__ = ["ResiliencePoint", "run_resilience_sweep", "format_table"]


@dataclass(frozen=True)
class ResiliencePoint:
    """Aggregate decode behaviour at one injected fault rate."""

    fault_rate: float
    frames: int
    delivered: int
    ok: int
    degraded: int
    fallback: int
    median_rmse: float
    total_attempts: int
    faults_injected: int

    def row(self) -> str:
        """One formatted table row."""
        return (
            f"{self.fault_rate:>10.2f} {self.delivered:>9d}/{self.frames:<4d}"
            f"{self.ok:>5d} {self.degraded:>9d} {self.fallback:>9d} "
            f"{self.median_rmse:>12.4f} {self.total_attempts:>9d} "
            f"{self.faults_injected:>8d}"
        )


def _resilience_point_task(args):
    """Chaos-test one fault-rate point (picklable task body).

    Installs its own injector set for the duration of the point, so it
    must not run concurrently in one process (the solve-hook registry
    is process-global); a process-pool worker starts with empty
    registries.  RNGs derive from ``(seed, fault_rate, frame)``, so a
    point's result is independent of where it runs.
    """
    fault_rate, frames, sampling_fraction, seed = args
    decoder = ResilientDecoder(policy=ResiliencePolicy())
    plan = DecodeContext.for_frame(frames[0], sampling_fraction)
    injectors = default_taxonomy(fault_rate, seed=seed)
    counts = {"ok": 0, "degraded": 0, "fallback": 0}
    errors: list[float] = []
    attempts = 0
    delivered = 0
    with instrument.span(
        "experiment.resilience_point", fault_rate=fault_rate
    ):
        with chaos(*injectors):
            for index, frame in enumerate(frames):
                rng = np.random.default_rng(
                    [seed, int(fault_rate * 1000), index]
                )
                outcome = decoder.decode(frame, plan, rng)
                counts[outcome.status] += 1
                attempts += len(outcome.attempts)
                if outcome.frame is not None:
                    delivered += 1
                    errors.append(rmse(frame, outcome.frame))
    return ResiliencePoint(
        fault_rate=fault_rate,
        frames=len(frames),
        delivered=delivered,
        ok=counts["ok"],
        degraded=counts["degraded"],
        fallback=counts["fallback"],
        median_rmse=float(np.median(errors)) if errors else float("nan"),
        total_attempts=attempts,
        faults_injected=sum(inj.trips for inj in injectors),
    )


def run_resilience_sweep(
    num_frames: int = 6,
    fault_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.4),
    sampling_fraction: float = 0.5,
    seed: int = 0,
    workers: int = 1,
) -> list[ResiliencePoint]:
    """Chaos-test the resilient decode runtime over a fault-rate sweep.

    Every grid point decodes the same ``num_frames`` thermal frames
    under ``default_taxonomy(fault_rate)``; RNGs are derived from
    ``seed`` throughout, so the whole sweep is reproducible.

    ``workers > 1`` distributes the points over a process pool (each
    worker installs its own chaos injectors) with identical results.
    """
    frames = ThermalHandGenerator(seed=seed).frames(num_frames)
    with instrument.span(
        "experiment.resilience_sweep",
        num_frames=num_frames,
        sampling_fraction=sampling_fraction,
        seed=seed,
    ):
        executor = resolve_executor(workers)
        tasks = [
            (fault_rate, frames, sampling_fraction, seed)
            for fault_rate in fault_rates
        ]
        return collect_values(
            executor.map_tasks(
                _resilience_point_task, tasks, label="resilience_sweep"
            )
        )


def format_table(points: list[ResiliencePoint]) -> str:
    """The sweep as a printable availability table."""
    lines = [
        "RES -- decode availability under injected faults",
        f"{'fault rate':>10} {'delivered':>14}{'ok':>5} {'degraded':>9} "
        f"{'fallback':>9} {'median RMSE':>12} {'attempts':>9} {'faults':>8}",
    ]
    lines.extend(point.row() for point in points)
    return "\n".join(lines)
