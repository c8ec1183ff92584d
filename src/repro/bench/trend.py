"""Trajectory analysis: deltas, the combined report, the regression gate.

This module folds the committed ``BENCH_<n>.json`` sequence into:

* **per-metric deltas** between consecutive trajectory entries
  (:func:`compute_deltas`) -- wall-clock is compared *normalised* by
  each run's ``calibration_s`` so entries recorded on different
  machines are comparable;
* a **combined markdown report** (:func:`render_markdown`): run
  overview, latest-vs-previous delta table, and per-metric trajectory
  tables across the whole history;
* the **regression gate** (:func:`check_regressions`): nonzero CI exit
  when any tier-1 cell's normalised wall-clock slips more than
  ``max_wall_slip`` (default 10 %) or its RMSE more than
  ``max_rmse_slip`` versus the previous entry;
* the **expectation check** (:func:`check_expectations`): the newest
  entry's cells against its suite's declarative
  :class:`~repro.bench.workloads.Expectation` table (ratios measured
  within one run, such as the cached-vs-uncached speedup).

The trend gate deliberately thresholds only tier-1 cells: higher-tier
cells are informational coverage (big shapes, extra sampling ratios)
whose noise would make the gate flaky.  ``python -m repro.bench
--trend`` renders the report; ``--gate`` applies the thresholds and
the expectations (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import operator
import time

from .schema import list_bench_files, load_bench
from .workloads import suite_expectations

__all__ = [
    "cell_metric",
    "check_expectations",
    "check_regressions",
    "compute_deltas",
    "expectation_results",
    "load_history",
    "normalized_wall",
    "render_markdown",
    "trajectory_markdown",
]

DEFAULT_MAX_WALL_SLIP = 0.10
"""Gate threshold: relative normalised wall-clock slip on tier-1 cells."""

DEFAULT_MAX_RMSE_SLIP = 0.10
"""Gate threshold: relative RMSE slip on tier-1 cells."""


def load_history(root) -> list[dict]:
    """All trajectory documents under ``root``, sorted by bench id.

    Invalid documents raise (a corrupted committed history should fail
    loudly, not silently shrink the trajectory).
    """
    return [load_bench(path) for _, path in list_bench_files(root)]


def normalized_wall(cell: dict, doc: dict) -> float:
    """Machine-independent wall-clock: ``wall_s / calibration_s``.

    Prefers the cell's own ``metrics.calibration_s`` (measured adjacent
    in time to the timed decode, so a load burst mid-suite normalises
    out) and falls back to the document-level constant for histories
    recorded before per-cell calibration existed.
    """
    calibration = cell["metrics"].get("calibration_s") or doc["calibration_s"]
    return cell["metrics"]["wall_s"] / calibration


def _cells_by_key(doc: dict) -> dict:
    return {(cell["workload"], cell["route"]): cell for cell in doc["cells"]}


def _rel(current: float, previous: float) -> float | None:
    """Relative change; ``None`` when the baseline is ~zero."""
    if previous is None or current is None or abs(previous) < 1e-12:
        return None
    return (current - previous) / previous


def compute_deltas(previous: dict, current: dict) -> list[dict]:
    """Per-cell deltas between two trajectory documents.

    One entry per cell key present in *either* document::

        {
          "workload": ..., "route": ..., "tier": ...,
          "status": "common" | "new" | "dropped",
          "wall_rel": ...,      # normalised wall-clock, relative
          "rmse_rel": ...,      # relative (None when baseline ~0)
          "rmse_abs": ...,      # absolute delta, always present
          "cache_hit_rate": (prev, curr),
          "speedup_vs_serial": (prev, curr),
        }

    Cells only in ``current`` are ``"new"`` (coverage grew -- never a
    regression); cells only in ``previous`` are ``"dropped"`` (the
    gate flags dropped *tier-1* cells, because silently losing a gated
    cell is how a regression hides).
    """
    prev_cells = _cells_by_key(previous)
    curr_cells = _cells_by_key(current)
    deltas = []
    for key in sorted(set(prev_cells) | set(curr_cells)):
        prev = prev_cells.get(key)
        curr = curr_cells.get(key)
        entry: dict = {
            "workload": key[0],
            "route": key[1],
            "tier": (curr or prev)["tier"],
            "status": (
                "common" if prev and curr else "new" if curr else "dropped"
            ),
        }
        if prev and curr:
            prev_wall = normalized_wall(prev, previous)
            curr_wall = normalized_wall(curr, current)
            entry["wall_rel"] = _rel(curr_wall, prev_wall)
            prev_rmse = prev["metrics"]["rmse"]
            curr_rmse = curr["metrics"]["rmse"]
            entry["rmse_rel"] = _rel(curr_rmse, prev_rmse)
            entry["rmse_abs"] = curr_rmse - prev_rmse
            for name in ("cache_hit_rate", "speedup_vs_serial"):
                entry[name] = (
                    prev["metrics"].get(name),
                    curr["metrics"].get(name),
                )
        deltas.append(entry)
    return deltas


def check_regressions(
    previous: dict,
    current: dict,
    max_wall_slip: float = DEFAULT_MAX_WALL_SLIP,
    max_rmse_slip: float = DEFAULT_MAX_RMSE_SLIP,
) -> list[str]:
    """Gate the latest entry against its predecessor.

    Returns human-readable regression descriptions (empty = pass).
    Only tier-1 cells are thresholded; see the module docstring.
    """
    problems = []
    for delta in compute_deltas(previous, current):
        if delta["tier"] != 1:
            continue
        label = f"{delta['workload']} x {delta['route']}"
        if delta["status"] == "dropped":
            problems.append(f"{label}: tier-1 cell dropped from the suite")
            continue
        if delta["status"] != "common":
            continue
        wall_rel = delta.get("wall_rel")
        if wall_rel is not None and wall_rel > max_wall_slip:
            problems.append(
                f"{label}: normalised wall-clock slipped "
                f"{wall_rel:+.1%} (threshold {max_wall_slip:+.1%})"
            )
        rmse_rel = delta.get("rmse_rel")
        if rmse_rel is not None and rmse_rel > max_rmse_slip:
            problems.append(
                f"{label}: RMSE slipped {rmse_rel:+.1%} "
                f"(threshold {max_rmse_slip:+.1%})"
            )
    return problems


_COMPARISONS = {">=": operator.ge, "<=": operator.le}

_DERIVED_METRICS = {
    # How many times the serial route's wall-clock this cell takes.
    "wall_vs_serial": lambda cell: (
        1.0 / cell["metrics"]["speedup_vs_serial"]
        if cell["metrics"].get("speedup_vs_serial") else None
    ),
    # Share of the cell's wall-clock spent in the verdict journal.
    "journal_fraction": lambda cell: (
        cell["extras"]["journal_wall_s"] / cell["metrics"]["wall_s"]
        if "journal_wall_s" in cell.get("extras", {}) else None
    ),
}


def cell_metric(cell: dict, name: str) -> float | None:
    """A cell's ``metrics[name]``, or a ratio derived from its record.

    The derived names are ``wall_vs_serial`` (the inverse of
    ``speedup_vs_serial``) and ``journal_fraction``
    (``extras["journal_wall_s"] / wall_s``); ``None`` when the cell
    does not carry what the metric needs.
    """
    if name in _DERIVED_METRICS:
        return _DERIVED_METRICS[name](cell)
    return cell["metrics"].get(name)


def expectation_results(doc: dict) -> list[tuple]:
    """``(expectation, value, met)`` for each expectation of the suite.

    ``value`` is ``None`` when the document lacks the cell or the cell
    lacks the metric; such an expectation is not met, so dropping a
    judged cell from a suite cannot pass silently.
    """
    cells = _cells_by_key(doc)
    results = []
    for expectation in suite_expectations(doc["suite"]):
        cell = cells.get((expectation.workload, expectation.route))
        value = None if cell is None else cell_metric(cell, expectation.metric)
        met = value is not None and _COMPARISONS[expectation.comparison](
            value, expectation.bound
        )
        results.append((expectation, value, met))
    return results


def check_expectations(doc: dict) -> list[str]:
    """The unmet expectations of ``doc``, one message each (empty = pass)."""
    problems = []
    for expectation, value, met in expectation_results(doc):
        if met:
            continue
        label = f"{expectation.workload} x {expectation.route}"
        found = (
            "cell missing from the document" if value is None
            else f"{value:.3f}"
        )
        problems.append(
            f"{label}: {expectation.metric} {found}, expected "
            f"{expectation.comparison} {expectation.bound:g} "
            f"({expectation.reason})"
        )
    return problems


def _fmt(value, spec: str = ".3f") -> str:
    if value is None:
        return "--"
    return format(value, spec)


def _date(doc: dict) -> str:
    return time.strftime("%Y-%m-%d", time.gmtime(doc["created_unix"]))


def trajectory_markdown(
    history: list[dict], metric: str = "ms_per_frame", tier: int = 1
) -> str:
    """One markdown table: ``metric`` per tier-``tier`` cell per entry.

    This is the table the README embeds for the headline trajectory;
    columns are bench ids, rows are cells.
    """
    if not history:
        return "_no trajectory entries (`BENCH_*.json`) found_"
    keys = sorted(
        {
            (cell["workload"], cell["route"])
            for doc in history
            for cell in doc["cells"]
            if cell["tier"] <= tier
        }
    )
    header = (
        f"| workload x route ({metric}) | "
        + " | ".join(f"PR {doc['bench_id']}" for doc in history)
        + " |"
    )
    rule = "|---" * (len(history) + 1) + "|"
    lines = [header, rule]
    for workload, route in keys:
        row = [f"| `{workload}` x `{route}` "]
        for doc in history:
            cell = _cells_by_key(doc).get((workload, route))
            value = cell["metrics"].get(metric) if cell else None
            spec = ".4f" if metric == "rmse" else ".2f"
            row.append(f"| {_fmt(value, spec)} ")
        lines.append("".join(row) + "|")
    return "\n".join(lines)


def render_markdown(
    history: list[dict],
    max_wall_slip: float = DEFAULT_MAX_WALL_SLIP,
    max_rmse_slip: float = DEFAULT_MAX_RMSE_SLIP,
) -> str:
    """The combined trend report over the whole committed history."""
    lines = ["# Benchmark trajectory", ""]
    if not history:
        lines.append("No `BENCH_*.json` entries found.")
        return "\n".join(lines)

    lines += [
        "## Runs",
        "",
        "| bench | suite | date | cells | calibration s | host |",
        "|---|---|---|---|---|---|",
    ]
    for doc in history:
        lines.append(
            f"| PR {doc['bench_id']} | {doc['suite']} | {_date(doc)} "
            f"| {len(doc['cells'])} | {doc['calibration_s']:.4f} "
            f"| {doc['host'].get('platform', '?')} |"
        )
    lines.append("")

    if len(history) >= 2:
        previous, current = history[-2], history[-1]
        lines += [
            f"## Latest deltas (PR {previous['bench_id']} -> "
            f"PR {current['bench_id']})",
            "",
            "| cell | tier | wall (norm) | RMSE | cache hit | speedup |",
            "|---|---|---|---|---|---|",
        ]
        for delta in compute_deltas(previous, current):
            label = f"`{delta['workload']}` x `{delta['route']}`"
            if delta["status"] != "common":
                lines.append(
                    f"| {label} | {delta['tier']} | *{delta['status']}* "
                    "| | | |"
                )
                continue
            cache_prev, cache_curr = delta["cache_hit_rate"]
            speed_prev, speed_curr = delta["speedup_vs_serial"]
            wall_rel = delta.get("wall_rel")
            lines.append(
                f"| {label} | {delta['tier']} "
                f"| {_fmt(wall_rel, '+.1%')} "
                f"| {_fmt(delta.get('rmse_rel'), '+.1%')} "
                f"| {_fmt(cache_prev, '.2f')} -> {_fmt(cache_curr, '.2f')} "
                f"| {_fmt(speed_prev, '.2f')} -> {_fmt(speed_curr, '.2f')} |"
            )
        lines.append("")
        problems = check_regressions(
            previous, current, max_wall_slip, max_rmse_slip
        )
        if problems:
            lines.append("**REGRESSIONS (tier-1):**")
            lines += [f"- {problem}" for problem in problems]
        else:
            lines.append(
                f"No tier-1 regressions (wall slip <= {max_wall_slip:.0%}, "
                f"RMSE slip <= {max_rmse_slip:.0%})."
            )
        lines.append("")

    results = expectation_results(history[-1])
    if results:
        lines += [
            f"## Expectations (PR {history[-1]['bench_id']}, "
            f"{history[-1]['suite']} suite)",
            "",
            "| cell | metric | value | bound | met |",
            "|---|---|---|---|---|",
        ]
        for expectation, value, met in results:
            lines.append(
                f"| `{expectation.workload}` x `{expectation.route}` "
                f"| {expectation.metric} | {_fmt(value)} "
                f"| {expectation.comparison} {expectation.bound:g} "
                f"| {'yes' if met else '**NO**'} |"
            )
        lines.append("")

    lines += [
        "## Trajectory (tier-1 cells)",
        "",
        "### ms per frame",
        "",
        trajectory_markdown(history, "ms_per_frame"),
        "",
        "### RMSE",
        "",
        trajectory_markdown(history, "rmse"),
        "",
    ]
    return "\n".join(lines)
