"""Run workload x route cells and record their metric blocks.

One cell run is: generate the workload's frame stack, decode it once
under :func:`repro.instrument.profiled` against a fresh
:class:`~repro.core.engine.DecodeEngine` (the *counted pass*), then
decode it :data:`_TIMED_PASSES` more times with collection off (the
*timed passes*).  The counted pass supplies everything deterministic;
the fastest timed pass supplies the wall-clock.  Each cell yields the
record documented in ``docs/BENCHMARKS.md``:

* ``wall_s`` / ``ms_per_frame`` -- wall-clock of the fastest timed
  pass;
* ``rmse`` -- mean per-frame RMSE of reconstruction vs clean frame;
* ``delivered`` / ``ok_fraction`` -- fraction of frames that arrived
  at all / arrived healthy (only the supervised routes can degrade);
* ``operator_cache_bytes`` -- bytes the cell's private engine cache
  holds when the cell finishes (the DCT factor matrices: a few kB at
  separable sizes, nothing on the FFT path);
* ``speedup_vs_serial`` -- this cell's wall-clock against the
  ``serial`` route of the same workload within the same suite run
  (``None`` when the suite did not run the serial reference);
* ``counters`` -- the counted pass's ``repro.instrument/v1`` counter
  block, plus ``.count`` and ``.total`` of each solver's iteration
  histogram (``solver.fista.iterations.total`` is the cell's FISTA
  iterations).

Determinism: every cell derives its RNG seed from the master seed and
its workload's name (:func:`~repro.bench.workloads.cell_seed` --
shared across routes so speedups compare identical work), and the
counted pass starts from a cold engine, so cells can be re-run
individually and reproduce their in-suite numbers.  Everything but
wall-clock is bit-stable across runs; the trend gate compares it
exactly (:mod:`repro.bench.trend`).
"""

from __future__ import annotations

import time

import numpy as np

from .. import instrument
from .routes import Route, close_pools, get_route
from .schema import build_bench
from .workloads import Workload, cell_seed, make_frames, suite_cells

__all__ = ["run_cell", "run_suite"]

_TIMED_PASSES = 3
"""Timed decodes of each cell's stack; the fastest supplies ``wall_s``."""


def _counted_decode(route, frames, workload, seed, label):
    """Decode ``frames`` once with collection on; returns the counters.

    The cell's counters are the report's counter block unchanged, plus
    the sample count and sum of each ``solver.<name>.iterations``
    histogram (one sample per solve, so ``.total`` is the cell's solver
    work).  The other histograms add no work figure: the attempts and
    residual counts repeat counters, and a residual sum is a float that
    a solve ending at round-off (``bp_dr``, ~1e-14) moves by tens of
    percent between BLAS kernels.
    """
    with instrument.profiled() as session:
        result = route.run(frames, workload, seed)
    metrics = session.report({"cell": label})["metrics"]
    counters = dict(metrics["counters"])
    for name, summary in metrics["histograms"].items():
        if name.startswith("solver.") and name.endswith(".iterations"):
            counters[f"{name}.count"] = summary["count"]
            counters[f"{name}.total"] = summary["total"]
    return result, counters


def _timed_decode(route, frames, workload, seed):
    """The fastest of :data:`_TIMED_PASSES` decodes: ``(result, wall_s)``.

    Collection is off while they run, even under ``REPRO_INSTRUMENT=1``,
    and restored afterwards.
    """
    collecting = instrument.enabled()
    instrument.disable()
    best = (None, float("inf"))
    try:
        for _ in range(_TIMED_PASSES):
            start = time.perf_counter()
            result = route.run(frames, workload, seed)
            wall_s = time.perf_counter() - start
            if wall_s < best[1]:
                best = (result, wall_s)
    finally:
        if collecting:
            instrument.enable()
    return best


def _rmse(reconstructions, clean: np.ndarray) -> float:
    errors = [
        float(np.sqrt(np.mean((np.asarray(recon) - frame) ** 2)))
        for recon, frame in zip(reconstructions, clean)
    ]
    return float(np.mean(errors)) if errors else float("nan")


def run_cell(
    workload: Workload, route: Route | str, base_seed: int = 0
) -> dict:
    """Run one (workload, route) cell; returns its JSON-safe record.

    The cell decodes against a private engine scoped with
    :func:`~repro.core.engine.use_engine`, so its counted pass starts
    from a cold operator cache and concurrent suites cannot
    cross-pollute.  The counted pass also warms the cache and any pool
    the timed passes use.  Every pass decodes from the same seed, so
    the timed passes reproduce the counted one; their ``extras`` (which
    hold route timings such as ``journal_wall_s``) come from the
    fastest timed pass, the one ``wall_s`` times.
    """
    from ..core import DecodeEngine, use_engine

    if isinstance(route, str):
        route = get_route(route)
    seed = cell_seed(base_seed, workload.name)
    frames = make_frames(workload, seed)
    with use_engine(DecodeEngine()) as engine:
        counted, counters = _counted_decode(
            route, frames, workload, seed, f"{workload.name}/{route.name}"
        )
        timed, wall_s = _timed_decode(route, frames, workload, seed)
        cache_bytes = engine.cache.stats()["bytes"]
    return {
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
            "ms_per_frame": float(wall_s / len(frames) * 1e3),
            "rmse": _rmse(counted.reconstructions, frames),
            "delivered": counted.delivered / len(frames),
            "ok_fraction": counted.ok / len(frames),
            "operator_cache_bytes": int(cache_bytes),
            "speedup_vs_serial": None,  # filled in by run_suite
        },
        "counters": counters,
        "extras": dict(timed.extras),
    }


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
    suite: str, bench_id: int, seed: int = 0, progress=None
) -> dict:
    """Run every cell of ``suite`` and assemble the benchmark document.

    ``progress`` (if given) is called with a one-line string before
    each cell -- the CLI passes ``print``.  Returns a schema-valid
    document ready for :func:`repro.bench.schema.write_bench`.
    """
    cells_spec = suite_cells(suite)
    records: list[dict] = []
    try:
        for index, (workload, route_name) in enumerate(cells_spec, start=1):
            if progress is not None:
                progress(
                    f"[{index}/{len(cells_spec)}] "
                    f"{workload.name} x {route_name}"
                )
            records.append(run_cell(workload, route_name, base_seed=seed))
    finally:
        close_pools()
    _fill_speedups(records)
    return build_bench(
        bench_id=bench_id, suite=suite, seed=seed, cells=records
    )
