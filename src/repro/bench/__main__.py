"""Benchmark driver CLI: run suites, render trends, gate regressions.

Examples::

    # Run the tier-1 smoke suite; writes BENCH_<next>.json at the root.
    PYTHONPATH=src python -m repro.bench --suite smoke

    # Same run, explicit trajectory id.
    PYTHONPATH=src python -m repro.bench --suite smoke --bench-id 6

    # Combined trend report over every committed BENCH_*.json.
    PYTHONPATH=src python -m repro.bench --trend

    # CI gate: exit 1 when the newest entry's work differs from the
    # previous one's, drops a tier-1 cell or misses one of its suite's
    # expectations.
    PYTHONPATH=src python -m repro.bench --trend --gate

    # Just the README trajectory table.
    PYTHONPATH=src python -m repro.bench --trajectory

    # Validate a document / list what is runnable.
    PYTHONPATH=src python -m repro.bench --validate BENCH_6.json
    PYTHONPATH=src python -m repro.bench --list

Exit codes: 0 success / work reproduced, 1 changed work, dropped
tier-1 cell, unmet expectation or invalid document, 2 usage errors.  See
``docs/BENCHMARKS.md`` for the protocol.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .routes import get_route, route_names
from .runner import run_suite
from .schema import (
    bench_filename,
    next_bench_id,
    validate_bench,
    write_bench,
)
from .trend import (
    check_expectations,
    check_regressions,
    load_history,
    render_markdown,
    trajectory_markdown,
)
from .workloads import get_workload, suite_cells, suite_names, workload_names

__all__ = ["main"]


def _render_cells(doc: dict) -> str:
    """Human-readable table of one run's cells."""
    lines = [
        f"{'cell':<48} {'ms/frame':>9} {'rmse':>8} {'applies':>9} "
        f"{'vs serial':>10} {'deliver':>8}"
    ]
    for cell in doc["cells"]:
        metrics = cell["metrics"]
        applies = cell["counters"].get("operator.applies")
        speedup = metrics.get("speedup_vs_serial")
        applies_text = (
            f"{applies:>9.0f}" if applies is not None else f"{'--':>9}"
        )
        speed_text = (
            f"{speedup:>9.2f}x" if speedup is not None else f"{'--':>10}"
        )
        lines.append(
            f"{cell['workload'] + ' x ' + cell['route']:<48} "
            f"{metrics['ms_per_frame']:>9.2f} {metrics['rmse']:>8.4f} "
            f"{applies_text} {speed_text} {metrics['delivered']:>8.0%}"
        )
    return "\n".join(lines)


def _cmd_list() -> int:
    print("suites:")
    for suite in suite_names():
        cells = suite_cells(suite)
        print(f"  {suite:<8} ({len(cells)} cells)")
        for workload, route_name in cells:
            print(f"    {workload.name} x {route_name}")
    print("workloads:")
    for name in workload_names():
        workload = get_workload(name)
        print(
            f"  {name:<28} tier {workload.tier}, "
            f"{workload.frames} frames, solver {workload.solver}"
        )
    print("routes:")
    for name in route_names():
        print(f"  {name:<14} {get_route(name).description}")
    return 0


def _cmd_validate(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{path}: unreadable: {exc}", file=sys.stderr)
        return 1
    problems = validate_bench(doc)
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        return 1
    print(f"{path}: valid ({len(doc['cells'])} cells, suite {doc['suite']!r})")
    return 0


def _load_history(root) -> list[dict] | None:
    """The trajectory under ``root``, or ``None`` (reported) if corrupt."""
    try:
        return load_history(root)
    except ValueError as exc:
        print(f"corrupt trajectory: {exc}", file=sys.stderr)
        return None


def _cmd_trend(args) -> int:
    history = _load_history(args.root)
    if history is None:
        return 1
    print(render_markdown(history))
    if not args.gate or not history:
        return 0
    failures = [
        f"EXPECTATION: {problem}"
        for problem in check_expectations(history[-1])
    ]
    if len(history) < 2:
        print(
            "gate: fewer than two trajectory entries, no trend to compare",
            file=sys.stderr,
        )
    else:
        failures += [
            f"CHANGED: {problem}"
            for problem in check_regressions(history[-2], history[-1])
        ]
    if failures:
        for failure in failures:
            print(f"gate: {failure}", file=sys.stderr)
        return 1
    print(
        "gate: work reproduced, every expectation met",
        file=sys.stderr,
    )
    return 0


def _cmd_suite(args) -> int:
    root = Path(args.root)
    bench_id = (
        args.bench_id if args.bench_id is not None else next_bench_id(root)
    )
    doc = run_suite(
        args.suite,
        bench_id=bench_id,
        seed=args.seed,
        progress=None if args.quiet else (
            lambda line: print(line, file=sys.stderr)
        ),
    )
    output = (
        Path(args.output) if args.output else root / bench_filename(bench_id)
    )
    write_bench(doc, output)
    if not args.quiet:
        print(_render_cells(doc))
        print(f"\n{len(doc['cells'])} cells")
    print(f"benchmark document written to {output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the standard evaluation suites and manage the "
        "BENCH_*.json performance trajectory (see docs/BENCHMARKS.md).",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--suite", choices=suite_names(), help="run a named suite"
    )
    group.add_argument(
        "--trend", action="store_true",
        help="render the combined trend report over BENCH_*.json",
    )
    group.add_argument(
        "--trajectory", action="store_true",
        help="print just the tier-1 trajectory table (README embed)",
    )
    group.add_argument(
        "--validate", metavar="PATH",
        help="validate a benchmark document against the schema and exit",
    )
    group.add_argument(
        "--list", action="store_true",
        help="list suites, workloads and routes",
    )
    parser.add_argument(
        "--root", default=".",
        help="directory holding the BENCH_*.json trajectory (default: .)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--bench-id", type=int, default=None,
        help="trajectory id to stamp/emit (default: next free id)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the document here instead of ROOT/BENCH_<id>.json",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="with --trend: exit 1 when the newest entry's work differs "
        "from the previous entry's, a tier-1 cell is dropped, or a suite "
        "expectation is unmet",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress and tables"
    )
    args = parser.parse_args(argv)

    if args.list:
        return _cmd_list()
    if args.validate:
        return _cmd_validate(args.validate)
    if args.trajectory:
        history = _load_history(args.root)
        if history is None:
            return 1
        print(trajectory_markdown(history))
        return 0
    if args.trend:
        return _cmd_trend(args)
    return _cmd_suite(args)


if __name__ == "__main__":
    sys.exit(main())
