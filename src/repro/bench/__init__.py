"""repro.bench -- the declarative evaluation framework.

This package is the repo's one measurement harness: it records
performance as a *trajectory* and gates it:

* :mod:`.workloads` -- the standard workload matrix (thermal / tactile
  / ultrasound datasets x frame shapes x sampling ratios x fault
  rates), registered by name so the driver and CI share one set of
  definitions, plus each suite's :class:`Expectation` table (per-cell
  bounds such as the operator cache's misses);
* :mod:`.routes` -- the decode routes (serial engine loop,
  process-pool fan-out, shared-|Phi| ``decode_batch``, resilient and
  adaptive supervision);
* :mod:`.runner` -- runs (workload, route) cells: one counted pass
  under :mod:`repro.instrument` (RMSE, delivery, statuses, counters),
  then three timed passes (wall-clock, executor speedup);
* :mod:`.schema` -- the versioned ``BENCH_<n>.json`` document
  (``repro.bench/v1``): build, validate, load, write;
* :mod:`.trend` -- folds the committed ``BENCH_*.json`` history into
  per-cell work diffs, a combined markdown report and the CI gate (a
  dropped tier-1 cell, any changed deterministic field of a common
  cell, or an unmet expectation on the newest entry, fails).

One driver runs it all::

    PYTHONPATH=src python -m repro.bench --suite smoke   # run + emit
    PYTHONPATH=src python -m repro.bench --trend         # the report
    PYTHONPATH=src python -m repro.bench --trend --gate  # CI gate

See ``docs/BENCHMARKS.md`` for the protocol: the matrix, the JSON
schema field-by-field, how to add a workload and how to read the
trend report.
"""

from .routes import Route, RouteResult, get_route, register_route, route_names
from .runner import run_cell, run_suite
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
    cell_metric,
    check_expectations,
    check_regressions,
    compute_deltas,
    expectation_results,
    load_history,
    render_markdown,
    trajectory_markdown,
    work_diff,
)
from .workloads import (
    Expectation,
    Workload,
    cell_seed,
    dataset_names,
    get_workload,
    make_frames,
    register_workload,
    suite_cells,
    suite_expectations,
    suite_names,
    workload_names,
)

__all__ = [
    "BENCH_PATTERN",
    "Expectation",
    "Route",
    "RouteResult",
    "SCHEMA",
    "Workload",
    "bench_filename",
    "build_bench",
    "cell_metric",
    "cell_seed",
    "check_expectations",
    "check_regressions",
    "compute_deltas",
    "dataset_names",
    "expectation_results",
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
    "suite_expectations",
    "suite_names",
    "trajectory_markdown",
    "validate_bench",
    "work_diff",
    "workload_names",
    "write_bench",
]
