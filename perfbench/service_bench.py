"""The workloads and the closed-loop measurement behind ``run.py``.

Imports the program (``repro``) at module level, so ``run.py`` puts the
checkout's ``src/`` on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import engine as engine_module
from repro.core.engine import DecodeContext, DecodeEngine
from repro.core.measurement import get_measurement
from repro.datasets import TactileObjectGenerator, ThermalHandGenerator
from repro.resilience import ResiliencePolicy, chaos, default_taxonomy
from repro.serve import DecodeService, StreamConfig, TenantConfig, VerdictJournal

from layers import LAYER_NAMES, LayerTracer

#: A run is this many segments, each a burst of set-ups followed by an
#: equal share of the timed window.  Spacing the set-ups over the run
#: samples the same host conditions as the window.
SEGMENTS = 5

#: Timed set-ups per segment; ``setup_s`` is the median of all of them.
SETUPS_PER_SEGMENT = 20

#: Distinct scenes generated per run; clients cycle through them.
FRAME_POOL = 256

#: ``M/N`` of every workload: the paper's operating point, as in every
#: cell of the repository bench matrix the workloads come from.
SAMPLING = 0.5

#: Closed-loop clients: the ``DecodeService`` default ``cycle_budget``
#: and ``max_batch``, so each cycle dispatches one full default batch.
CLIENTS = 8

_GENERATORS = {
    "thermal": lambda shape, seed: ThermalHandGenerator(shape=shape, seed=seed),
    # Class 3 is a multi-patch grasp, a mid-density tactile scene (the
    # same class the repository bench matrix uses).
    "tactile": lambda shape, seed: TactileObjectGenerator(
        class_index=3, shape=shape, seed=seed
    ),
}


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what the stream decodes and how it is served.

    ``median_rmse`` bounds the median RMSE of the run's ``decoded``
    frames and ``frame_rmse`` every single one; ``min_decoded`` is the
    share of verdicts that must be ``decoded`` (the rest may be honest
    ``degraded`` / ``fallback`` answers to injected faults).
    """

    name: str
    dataset: str
    shape: tuple
    median_rmse: float
    frame_rmse: float
    measurement: str = "row_sampling"
    shared_phi: bool = False
    supervised: bool = False
    fault_rate: float = 0.0
    journal: bool = False
    min_decoded: float = 1.0


# Each workload is a cell of the repository bench matrix
# (``repro.bench.workloads``) served through ``DecodeService`` with its
# defaults; BENCHMARK.json records which cell and why.
WORKLOADS = {
    w.name: w
    for w in (
        # tactile-64x64-s50-f00, route batch_shared.
        Workload(
            name="shared_batch",
            dataset="tactile",
            shape=(64, 64),
            median_rmse=0.01,
            frame_rmse=0.05,
            shared_phi=True,
        ),
        # thermal-32x32-s50-f10, route resilient_journal.
        Workload(
            name="resilient_journal",
            dataset="thermal",
            shape=(32, 32),
            median_rmse=0.05,
            # Injected measurement dropouts pass every health check and
            # decode to RMSE ~0.2; the median bound still holds.
            frame_rmse=0.4,
            supervised=True,
            fault_rate=0.10,
            journal=True,
            min_decoded=0.75,
        ),
        # thermal-32x32-s50-f00-dense_codes, route serial.
        Workload(
            name="dense_codes",
            dataset="thermal",
            shape=(32, 32),
            median_rmse=0.05,
            frame_rmse=0.12,
            measurement="dense_codes",
        ),
    )
}


class Session:
    """One workload's service, inputs and verdict checks for one seed."""

    STREAM = "sensor"

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        # One independent scene per pool slot: a run then averages over
        # FRAME_POOL scenes, not the frames of one scene, which keeps the
        # work per run nearly the same from seed to seed.
        self.frames = [
            _GENERATORS[workload.dataset](workload.shape, seed * FRAME_POOL + k).frame()
            for k in range(FRAME_POOL)
        ]
        self.plan = DecodeContext(
            shape=workload.shape,
            sampling_fraction=SAMPLING,
            measurement=workload.measurement,
        )
        self.builds = 0
        self.service = None
        self.journal = None
        self.attempted = 0
        self.failed = 0
        self.statuses: dict[str, int] = {}
        self.rmses: list[float] = []
        self.inflight: dict[int, int] = {}

    def build(self) -> None:
        """Fresh engine, service, tenant, stream and (optional) journal.

        Ends with the stream's first operator bind: a code drawn for the
        plan bound to a cold engine cache, no solve.
        """
        w = self.workload
        self.close()
        engine = DecodeEngine()
        engine_module.set_engine(engine)
        if w.journal:
            self.journal = VerdictJournal(self.workdir / f"journal-{self.builds}.jsonl")
        self.builds += 1
        self.service = DecodeService(on_verdict=self._on_verdict, journal=self.journal)
        self.service.register_tenant(TenantConfig("bench"))
        self.service.register_stream(
            StreamConfig(
                name=self.STREAM,
                tenant="bench",
                plan=self.plan,
                policy=ResiliencePolicy() if w.supervised else None,
                seed=self.seed,
                shared_phi=w.shared_phi,
            )
        )
        plan = self.plan
        m = max(1, round(SAMPLING * self.frames[0].size))
        phi = get_measurement(plan.measurement).draw(
            plan.shape, m, np.random.default_rng(self.seed)
        )
        engine.operator(
            phi,
            plan.shape,
            plan.basis,
            mode=plan.operator_mode,
            measurement=plan.measurement,
        )

    def close(self) -> None:
        """Close the journal of the current service, if any."""
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    def cycle(self) -> None:
        """Every idle client submits its next frame; one dispatch cycle."""
        for _ in range(CLIENTS - len(self.inflight)):
            index = self.attempted % FRAME_POOL
            ticket = self.service.submit(self.STREAM, self.frames[index])
            self.attempted += 1
            if ticket.admitted:
                self.inflight[ticket.seq] = index
            else:
                self.failed += 1
        self.service.run_cycle()
        if self.inflight:
            # The default cycle budget covers every client, so none may
            # be left.
            self.failed += len(self.inflight)
            self.inflight.clear()

    def _on_verdict(self, verdict) -> None:
        index = self.inflight.pop(verdict.seq, None)
        if index is None:
            self.failed += 1  # a second verdict for one frame
            return
        self.statuses[verdict.status] = self.statuses.get(verdict.status, 0) + 1
        if not self._verdict_ok(verdict, self.frames[index]):
            self.failed += 1

    def _verdict_ok(self, verdict, clean: np.ndarray) -> bool:
        w = self.workload
        allowed = ("decoded", "degraded", "fallback") if w.supervised else (
            "decoded",
        )
        recon = verdict.delivered_frame
        if (
            verdict.status not in allowed
            or recon is None
            or recon.shape != clean.shape
            or not np.all(np.isfinite(recon))
        ):
            return False
        if verdict.status != "decoded":
            return True
        rmse = float(np.sqrt(np.mean((recon - clean) ** 2)))
        self.rmses.append(rmse)
        return rmse <= w.frame_rmse

    def run_ok(self) -> bool:
        """Whole-run checks: decoded share and median RMSE."""
        total = sum(self.statuses.values())
        if not total or not self.rmses:
            return False
        decoded = self.statuses.get("decoded", 0) / total
        return (
            decoded >= self.workload.min_decoded
            and statistics.median(self.rmses) <= self.workload.median_rmse
        )


def _traced_metrics(tracer, frames, elapsed, cache, journal_bytes) -> dict:
    per_frame = 1.0 / frames
    metrics = {
        f"{layer}_ms": (1000.0 * tracer.self_s.get(layer, 0.0) * per_frame, "ms")
        for layer in LAYER_NAMES
    }
    hits, misses = cache
    dispatches = tracer.calls.get("dispatch", 0)
    metrics.update(
        {
            "solver_iterations": (
                tracer.counts["solver_iterations"] * per_frame,
                "count",
            ),
            "solve_calls": (tracer.calls.get("solve", 0) * per_frame, "count"),
            "operator_applies": (
                tracer.counts["operator_applies"] * per_frame,
                "count",
            ),
            "power_iteration_applies": (
                tracer.counts["power_iteration_applies"] * per_frame,
                "count",
            ),
            "cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0,
                "ratio",
            ),
            "batch_size": (frames / dispatches if dispatches else 0.0, "count"),
            "journal_bytes": (journal_bytes * per_frame, "bytes"),
            "traced_ms_per_frame": (1000.0 * elapsed * per_frame, "ms"),
        }
    )
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: Path):
    """Run one workload for ``seconds``; returns ``(result, summary)``.

    ``result`` is the benchmark's JSON result object; ``summary`` a
    human-readable account of the run (sample counts, statuses,
    per-segment throughput, set-up times, RMSE).  Scratch files (the
    journals) live in a temporary directory under ``root`` that is
    removed before returning.
    """
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    session = Session(workload, seed, workdir)
    tracer = LayerTracer() if trace else None
    setups: list[float] = []
    segment_fps: list[float] = []
    frames = 0
    elapsed = 0.0
    hits = misses = journal_bytes = 0
    try:
        with ExitStack() as stack:
            if workload.fault_rate > 0.0:
                # The fault schedule is part of the workload, fixed across
                # seeds: the same share of solves fails on every run.
                stack.enter_context(
                    chaos(*default_taxonomy(workload.fault_rate, seed=0))
                )
            if tracer is not None:
                stack.enter_context(tracer)
            for segment in range(SEGMENTS):
                if tracer is not None:
                    tracer.active = False
                for _ in range(SETUPS_PER_SEGMENT):
                    start = perf_counter()
                    session.build()
                    setups.append(perf_counter() - start)
                if segment == 0:
                    # Untimed warm-up: the process's first decode loads
                    # code paths once; that is not throughput.
                    session.cycle()
                if tracer is not None:
                    tracer.active = True
                cache = engine_module.get_engine().cache
                hits_start, misses_start = cache.hits, cache.misses
                journal = session.journal
                journal_start = journal.path.stat().st_size if journal else 0
                attempted_start = session.attempted
                start = perf_counter()
                deadline = start + seconds / SEGMENTS
                while True:
                    session.cycle()
                    if perf_counter() >= deadline:
                        break
                segment_s = perf_counter() - start
                segment_frames = session.attempted - attempted_start
                elapsed += segment_s
                frames += segment_frames
                segment_fps.append(segment_frames / segment_s)
                hits += cache.hits - hits_start
                misses += cache.misses - misses_start
                if journal is not None:
                    # run_cycle flushes the journal at the end of every cycle.
                    journal_bytes += journal.path.stat().st_size - journal_start
    finally:
        session.close()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = session.failed == 0 and frames > 0 and session.run_ok()
    if frames == 0:
        metrics = {}
    elif trace:
        metrics = _traced_metrics(tracer, frames, elapsed, (hits, misses), journal_bytes)
    else:
        metrics = {
            "throughput_fps": (frames / elapsed, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
        }
    result = {
        "correct": bool(correct),
        "attempted": int(session.attempted),
        "failed": int(session.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    summary = {
        "workload": workload.name,
        "seed": seed,
        "frames": frames,
        "seconds": elapsed,
        "statuses": session.statuses,
        "segment_fps": segment_fps,
        "setup_ms": {
            f"p{q}": float(np.percentile(setups, q)) * 1000.0 for q in (10, 50, 90)
        },
        "median_rmse": statistics.median(session.rmses) if session.rmses else None,
        "max_rmse": max(session.rmses) if session.rmses else None,
    }
    return result, summary
