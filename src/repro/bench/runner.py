"""Run workload x route cells and record their metric blocks.

One cell run is: generate the workload's frame stack, warm up the
decode route (operator-cache fill, lazy imports, pool forks), then time
a full decode of the stack -- best of ``repeats`` passes -- against a
fresh :class:`~repro.core.engine.DecodeEngine` and score the result.
Each cell yields the record documented in ``docs/BENCHMARKS.md``:

* ``wall_s`` / ``ms_per_frame`` -- wall-clock of the timed decode;
* ``rmse`` -- mean per-frame RMSE of reconstruction vs clean frame;
* ``delivered`` / ``ok_fraction`` -- fraction of frames that arrived
  at all / arrived healthy (only the supervised routes can degrade);
* ``cache_hit_rate`` -- operator-cache hits over lookups for the
  cell's private engine (warm-up included, so steady-state streams
  read close to 1.0; ``None`` when the route never touches the
  in-process cache, e.g. solves fanned to a process pool);
* ``operator_cache_bytes`` -- bytes the cell's private engine cache
  holds when the cell finishes: ~kB for the implicit (matrix-free)
  operator mode vs ``O(N^2)`` for the ``serial_dense`` route, which is
  the operator-memory axis of the implicit-vs-dense comparison;
* ``speedup_vs_serial`` -- this cell's wall-clock against the
  ``serial`` route of the same workload within the same suite run
  (``None`` when the suite did not run the serial reference).

Determinism: every cell derives its RNG seed from the master seed and
its workload's name (:func:`~repro.bench.workloads.cell_seed` --
shared across routes so speedups compare identical work), so cells can
be re-run individually and reproduce their in-suite numbers; RMSE,
delivery and cache metrics are bit-stable across runs, only wall-clock
varies.

Wall-clock portability: the suite measures a fixed NumPy reference
workload (:func:`calibrate`) on the same host and stamps it into the
document as ``calibration_s``; the trend gate compares *normalised*
wall-clock (``wall_s / calibration_s``) so a history recorded on one
machine still gates another.
"""

from __future__ import annotations

import time

import numpy as np

from .. import instrument
from .routes import Route, close_pools, get_route
from .schema import build_bench
from .workloads import Workload, cell_seed, make_frames, suite_cells

__all__ = ["calibrate", "run_cell", "run_suite"]

_COUNTER_PREFIXES = (
    "decode.",
    "engine.cache.",
    "executor.",
    "chaos.",
    "resilience.",
    "solver.",
)
"""Counter families attached to cells in instrumented mode."""


def calibrate(repeats: int = 3, loops: int = 40) -> float:
    """Wall time of a fixed NumPy reference workload on this host.

    A deterministic mix of the primitives the decode path leans on
    (dense GEMM and an FFT) sized to take tens of milliseconds.  The
    best of ``repeats`` timings is returned -- the minimum estimates
    the machine's unloaded speed, which is the right denominator for
    cross-machine wall-clock normalisation.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(128, 128))
    b = rng.normal(size=(128, 128))
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        acc = a
        for _ in range(max(1, loops)):
            acc = a @ acc + b
            np.fft.rfft2(acc)
        best = min(best, time.perf_counter() - start)
    # Guard against pathological clocks; the gate divides by this.
    return max(best, 1e-6)


def _timed_decode(route, frames, workload, seed, repeats):
    """Decode ``frames`` ``repeats`` times; keep the fastest repeat.

    The repeat is chosen by wall time alone: pairing each repeat with
    its own calibration and minimising the ratio lets a disturbed
    calibration reading (a pooled decode leaves BLAS threads spinning)
    crown the slowest repeat.  Returns ``(result, wall_s)`` from the
    fastest repeat (every repeat decodes from the same seed, so the
    result is identical).
    """
    best = (None, float("inf"))
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = route.run(frames, workload, seed)
        wall_s = time.perf_counter() - start
        if wall_s < best[1]:
            best = (result, wall_s)
    return best


def _rmse(reconstructions, clean: np.ndarray) -> float:
    errors = [
        float(np.sqrt(np.mean((np.asarray(recon) - frame) ** 2)))
        for recon, frame in zip(reconstructions, clean)
    ]
    return float(np.mean(errors)) if errors else float("nan")


def run_cell(
    workload: Workload,
    route: Route | str,
    base_seed: int = 0,
    instrumented: bool = False,
    repeats: int = 3,
) -> dict:
    """Run one (workload, route) cell; returns its JSON-safe record.

    The cell decodes against a private engine scoped with
    :func:`~repro.core.engine.use_engine`, so cache accounting is exact
    and concurrent suites cannot cross-pollute.  The cell's
    ``calibration_s`` is measured once, before a one-frame warm-up run
    (same route, same seed, result discarded); the timed decode then
    runs ``repeats`` times and the fastest repeat supplies ``wall_s``
    (see :func:`_timed_decode`; every repeat decodes from the same
    seed, so the scored result is identical).  With ``instrumented``
    the timed region additionally runs under
    :func:`repro.instrument.profiled` and the record gains a
    ``counters`` block (``decode.*``, ``engine.cache.*``, ``chaos.*``,
    ...) plus each solver's iteration histogram as
    ``solver.<name>.iterations.count`` (solves) and ``.total``
    (iterations summed over them) -- expect a few percent of timing
    overhead in that mode.
    """
    from ..core import DecodeEngine, use_engine

    if isinstance(route, str):
        route = get_route(route)
    seed = cell_seed(base_seed, workload.name)
    frames = make_frames(workload, seed)
    calibration_s = calibrate(loops=20)
    with use_engine(DecodeEngine()) as engine:
        route.run(frames[:1], workload, seed)  # warm-up, discarded
        if instrumented:
            # One timed pass only, so the counters describe exactly one
            # decode of the stack (timing has tracer overhead anyway).
            with instrument.profiled() as session:
                result, wall_s = _timed_decode(
                    route, frames, workload, seed, repeats=1
                )
                # The operator-cache fill happens in the warm-up, before
                # this session starts, so republish the footprint here
                # or the gauge would be absent from steady-state cells.
                instrument.set_gauge(
                    "operator_cache.bytes", engine.cache.bytes
                )
            report = session.report({"cell": f"{workload.name}/{route.name}"})
            counters = instrument.select_counters(report, _COUNTER_PREFIXES)
            # The cache footprint is a gauge, not a counter; surface it
            # in the same block so --instrument runs carry the
            # operator-memory trajectory alongside the hit/miss counts.
            gauges = report.get("metrics", {}).get("gauges", {})
            if "operator_cache.bytes" in gauges:
                counters["operator_cache.bytes"] = gauges[
                    "operator_cache.bytes"
                ]
            # Iterations are histograms (one sample per solve); their
            # count and sum are the cell's deterministic solver work.
            histograms = report.get("metrics", {}).get("histograms", {})
            for name, summary in histograms.items():
                if name.startswith("solver.") and name.endswith(".iterations"):
                    counters[f"{name}.count"] = summary["count"]
                    counters[f"{name}.total"] = summary["total"]
        else:
            result, wall_s = _timed_decode(
                route, frames, workload, seed, repeats
            )
            counters = None
        stats = engine.cache.stats()
    lookups = stats["hits"] + stats["misses"]
    cell = {
        "workload": workload.name,
        "route": route.name,
        "dataset": workload.dataset,
        "shape": list(workload.shape),
        "sampling_fraction": workload.sampling_fraction,
        "fault_rate": workload.fault_rate,
        "frames": int(workload.frames),
        "solver": workload.solver,
        "measurement": workload.measurement,
        "tier": int(workload.tier),
        "seed": int(seed),
        "metrics": {
            "wall_s": float(wall_s),
            "calibration_s": float(calibration_s),
            "ms_per_frame": float(wall_s / len(frames) * 1e3),
            "rmse": _rmse(result.reconstructions, frames),
            "delivered": result.delivered / len(frames),
            "ok_fraction": result.ok / len(frames),
            "cache_hit_rate": (
                stats["hits"] / lookups if lookups else None
            ),
            "operator_cache_bytes": int(stats["bytes"]),
            "speedup_vs_serial": None,  # filled in by run_suite
        },
        "extras": dict(result.extras),
    }
    if counters is not None:
        cell["counters"] = counters
    return cell


def _fill_speedups(cells: list[dict]) -> None:
    """Compute ``speedup_vs_serial`` against each workload's serial cell."""
    serial_wall = {
        cell["workload"]: cell["metrics"]["wall_s"]
        for cell in cells
        if cell["route"] == "serial"
    }
    for cell in cells:
        reference = serial_wall.get(cell["workload"])
        if reference is None or cell["route"] == "serial":
            continue
        wall = cell["metrics"]["wall_s"]
        if wall > 0:
            cell["metrics"]["speedup_vs_serial"] = reference / wall


def run_suite(
    suite: str,
    bench_id: int,
    seed: int = 0,
    instrumented: bool = False,
    progress=None,
    repeats: int = 3,
) -> dict:
    """Run every cell of ``suite`` and assemble the benchmark document.

    ``progress`` (if given) is called with a one-line string before
    each cell -- the CLI passes ``print``.  ``repeats`` is forwarded to
    :func:`run_cell` (more repeats, quieter timings, linearly more
    runtime).  Returns a schema-valid document ready for
    :func:`repro.bench.schema.write_bench`.
    """
    cells_spec = suite_cells(suite)
    calibration_s = calibrate()
    records: list[dict] = []
    try:
        for index, (workload, route_name) in enumerate(cells_spec, start=1):
            if progress is not None:
                progress(
                    f"[{index}/{len(cells_spec)}] "
                    f"{workload.name} x {route_name}"
                )
            records.append(
                run_cell(
                    workload, route_name, base_seed=seed,
                    instrumented=instrumented, repeats=repeats,
                )
            )
    finally:
        close_pools()
    _fill_speedups(records)
    return build_bench(
        bench_id=bench_id,
        suite=suite,
        seed=seed,
        calibration_s=calibration_s,
        cells=records,
    )
