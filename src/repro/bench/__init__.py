"""repro.bench -- the declarative evaluation framework.

The repo's performance story used to live in scattered CI smoke gates
(fixed speedup ratios, no history).  This package makes it a recorded
*trajectory*:

* :mod:`.workloads` -- the standard workload matrix (thermal / tactile
  / ultrasound datasets x frame shapes x sampling ratios x fault
  rates), registered by name so pytest benchmarks, the driver and CI
  share one set of definitions;
* :mod:`.routes` -- the decode routes (serial engine loop,
  thread/process executor fan-out, shared-|Phi|
  ``decode_batch``, resilient and adaptive supervision);
* :mod:`.runner` -- runs (workload, route) cells, recording
  wall-clock, RMSE, delivery, operator-cache hit rate and executor
  speedup, plus a host calibration constant for cross-machine
  wall-clock comparison;
* :mod:`.schema` -- the versioned ``BENCH_<n>.json`` document
  (``repro.bench/v1``): build, validate, load, write;
* :mod:`.trend` -- folds the committed ``BENCH_*.json`` history into
  per-metric deltas, a combined markdown report and the CI regression
  gate (>10 % normalised wall-clock slip on any tier-1 cell fails).

One driver runs it all::

    PYTHONPATH=src python -m repro.bench --suite smoke   # run + emit
    PYTHONPATH=src python -m repro.bench --trend         # the report
    PYTHONPATH=src python -m repro.bench --trend --gate  # CI gate

See ``docs/BENCHMARKS.md`` for the protocol: the matrix, the JSON
schema field-by-field, how to add a workload and how to read the
trend report.
"""

from .routes import Route, RouteResult, get_route, register_route, route_names
from .runner import calibrate, run_cell, run_suite
from .schema import (
    BENCH_PATTERN,
    SCHEMA,
    bench_filename,
    build_bench,
    list_bench_files,
    load_bench,
    next_bench_id,
    validate_bench,
    write_bench,
)
from .trend import (
    check_regressions,
    compute_deltas,
    load_history,
    render_markdown,
    trajectory_markdown,
)
from .workloads import (
    Workload,
    cell_seed,
    dataset_names,
    get_workload,
    make_frames,
    register_workload,
    suite_cells,
    suite_names,
    workload_names,
)

__all__ = [
    "BENCH_PATTERN",
    "Route",
    "RouteResult",
    "SCHEMA",
    "Workload",
    "bench_filename",
    "build_bench",
    "calibrate",
    "cell_seed",
    "check_regressions",
    "compute_deltas",
    "dataset_names",
    "get_route",
    "get_workload",
    "list_bench_files",
    "load_bench",
    "load_history",
    "make_frames",
    "next_bench_id",
    "register_route",
    "register_workload",
    "render_markdown",
    "route_names",
    "run_cell",
    "run_suite",
    "suite_cells",
    "suite_names",
    "trajectory_markdown",
    "validate_bench",
    "workload_names",
    "write_bench",
]
