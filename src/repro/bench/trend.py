"""Trajectory analysis: work diffs, the combined report, the gate.

This module folds the committed ``BENCH_<n>.json`` sequence into:

* **per-cell work diffs** between consecutive trajectory entries
  (:func:`compute_deltas`, built on :func:`work_diff`): every
  deterministic field of a common cell -- RMSE, delivery, the operator
  cache's bytes, the supervised statuses and each counter -- that
  differs, integers and statuses exactly and floats beyond 1e-9
  relative;
* a **combined markdown report** (:func:`render_markdown`): run
  overview, the latest work-delta table, the newest entry's
  expectations and per-metric trajectory tables across the whole
  history;
* the **gate** (:func:`check_regressions`): a dropped tier-1 cell, or
  any work diff on a common cell of any tier, fails;
* the **expectation check** (:func:`check_expectations`): the newest
  entry's cells against its suite's declarative
  :class:`~repro.bench.workloads.Expectation` table.

Wall-clock is never compared across documents: the same code read
tens of percent apart on one host from run to run.  It is judged only
by the expectations' within-run ratios, and ``ms_per_frame`` stays in
the trajectory tables as information.  ``python -m repro.bench
--trend`` renders the report; ``--gate`` applies the gate and the
expectations (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import math
import operator
import time
from collections import Counter

from .schema import list_bench_files, load_bench
from .workloads import suite_expectations

__all__ = [
    "cell_metric",
    "check_expectations",
    "check_regressions",
    "compute_deltas",
    "expectation_results",
    "load_history",
    "render_markdown",
    "trajectory_markdown",
    "work_diff",
]

_REL_TOL = 1e-9
"""Relative tolerance of the float fields in :func:`work_diff`."""

_DETERMINISTIC_METRICS = (
    "rmse", "delivered", "ok_fraction", "operator_cache_bytes"
)
"""The ``metrics`` keys a re-run on any host reproduces."""


def load_history(root) -> list[dict]:
    """All trajectory documents under ``root``, sorted by bench id.

    Invalid documents raise (a corrupted committed history should fail
    loudly, not silently shrink the trajectory).
    """
    return [load_bench(path) for _, path in list_bench_files(root)]


def _cells_by_key(doc: dict) -> dict:
    return {(cell["workload"], cell["route"]): cell for cell in doc["cells"]}


def _deterministic_fields(cell: dict) -> dict:
    """A cell's reproducible fields, keyed by their dotted path."""
    fields = {
        f"metrics.{name}": cell["metrics"][name]
        for name in _DETERMINISTIC_METRICS
        if name in cell["metrics"]
    }
    if "statuses" in cell.get("extras", {}):
        fields["extras.statuses"] = cell["extras"]["statuses"]
    for name, value in cell.get("counters", {}).items():
        fields[f"counters.{name}"] = value
    return fields


def _same(previous, current) -> bool:
    if isinstance(previous, float) or isinstance(current, float):
        # A poisoned solve's residual is NaN in every run.
        both_nan = math.isnan(previous) and math.isnan(current)
        return both_nan or math.isclose(previous, current, rel_tol=_REL_TOL)
    return previous == current


def work_diff(previous: dict, current: dict) -> list[tuple]:
    """``(field, previous, current)`` per deterministic field that differs.

    The fields are ``metrics.rmse`` / ``delivered`` / ``ok_fraction`` /
    ``operator_cache_bytes``, ``extras.statuses`` and every
    ``counters.<name>``.  Integers and statuses compare exactly, floats
    to 1e-9 relative; a field one cell lacks reads ``None`` there, so a
    counter that appears or disappears is a difference too.
    """
    before = _deterministic_fields(previous)
    after = _deterministic_fields(current)
    return [
        (name, before.get(name), after.get(name))
        for name in sorted(set(before) | set(after))
        if name not in before
        or name not in after
        or not _same(before[name], after[name])
    ]


def compute_deltas(previous: dict, current: dict) -> list[dict]:
    """Per-cell work deltas between two trajectory documents.

    One entry per cell key present in *either* document::

        {
          "workload": ..., "route": ..., "tier": ...,
          "status": "common" | "new" | "dropped",
          "previous": <cell or None>, "current": <cell or None>,
          "changes": [(field, previous, current), ...],  # work_diff
        }

    ``changes`` is empty unless the cell is common.  Cells only in
    ``current`` are ``"new"`` (coverage grew -- never a regression);
    cells only in ``previous`` are ``"dropped"`` (the gate flags
    dropped *tier-1* cells, because silently losing a gated cell is how
    a regression hides).
    """
    prev_cells = _cells_by_key(previous)
    curr_cells = _cells_by_key(current)
    deltas = []
    for key in sorted(set(prev_cells) | set(curr_cells)):
        prev = prev_cells.get(key)
        curr = curr_cells.get(key)
        deltas.append({
            "workload": key[0],
            "route": key[1],
            "tier": (curr or prev)["tier"],
            "status": (
                "common" if prev and curr else "new" if curr else "dropped"
            ),
            "previous": prev,
            "current": curr,
            "changes": work_diff(prev, curr) if prev and curr else [],
        })
    return deltas


def _show(value) -> str:
    """A field value for messages: statuses as ``ok x3 degraded x1``,
    whole floats as integers, other floats at full precision."""
    if value is None:
        return "absent"
    if isinstance(value, list):
        counts = Counter(value)
        return " ".join(f"{status} x{n}" for status, n in counts.items())
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def check_regressions(previous: dict, current: dict) -> list[str]:
    """Gate the latest entry against its predecessor.

    Returns one message per problem (empty = pass): each dropped
    tier-1 cell, and each :func:`work_diff` field of a common cell,
    naming the cell, the field, both values and both documents'
    ``host.numpy``.
    """
    hosts = (
        f"(PR {previous['bench_id']} numpy "
        f"{previous['host'].get('numpy', '?')}, PR {current['bench_id']} "
        f"numpy {current['host'].get('numpy', '?')})"
    )
    problems = []
    for delta in compute_deltas(previous, current):
        label = f"{delta['workload']} x {delta['route']}"
        if delta["status"] == "dropped" and delta["tier"] == 1:
            problems.append(f"{label}: tier-1 cell dropped from the suite")
        for field, before, after in delta["changes"]:
            shown = (_show(before), _show(after))
            order = " (order differs)" if shown[0] == shown[1] else ""
            problems.append(
                f"{label}: {field} {shown[0]} -> {shown[1]}{order} {hosts}"
            )
    return problems


_COMPARISONS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def cell_metric(cell: dict, name: str) -> float | None:
    """A cell's ``metrics[name]``, ``counters[name]`` or derived ratio.

    The one derived name is ``journal_fraction``
    (``extras["journal_wall_s"] / wall_s``); ``None`` when the cell
    does not carry what the metric needs.
    """
    if name == "journal_fraction":
        journal_s = cell.get("extras", {}).get("journal_wall_s")
        if journal_s is None:
            return None
        return journal_s / cell["metrics"]["wall_s"]
    if name in cell["metrics"]:
        return cell["metrics"][name]
    return cell.get("counters", {}).get(name)


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
            else f"{value:g}"
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


def _iterations(cell: dict):
    counters = cell.get("counters", {})
    totals = [
        value for name, value in counters.items()
        if name.startswith("solver.") and name.endswith(".iterations.total")
    ]
    return sum(totals) if totals else None


_WORK_COLUMNS = (
    ("iterations", _iterations),
    ("applies", lambda cell: cell.get("counters", {}).get("operator.applies")),
    (
        "cache misses",
        lambda cell: cell.get("counters", {}).get("engine.cache.misses"),
    ),
    ("statuses", lambda cell: cell.get("extras", {}).get("statuses")),
)
"""The work-delta table's columns: ``(title, value of a cell)``."""


def _work_table(deltas: list[dict]) -> list[str]:
    """One row per cell: each work column as ``previous -> current``."""
    titles = " | ".join(title for title, _ in _WORK_COLUMNS)
    lines = [
        f"| cell | tier | {titles} | changed fields |",
        "|---|---|" + "---|" * len(_WORK_COLUMNS) + "---|",
    ]
    for delta in deltas:
        label = f"`{delta['workload']}` x `{delta['route']}`"
        if delta["status"] != "common":
            blanks = "| " * len(_WORK_COLUMNS)
            lines.append(
                f"| {label} | {delta['tier']} {blanks}| *{delta['status']}* |"
            )
            continue
        columns = []
        for _, value_of in _WORK_COLUMNS:
            before = value_of(delta["previous"])
            after = value_of(delta["current"])
            shown = "--" if after is None else _show(after)
            if before != after:
                before_shown = "--" if before is None else _show(before)
                shown = f"{before_shown} -> {shown}"
            columns.append(shown)
        lines.append(
            f"| {label} | {delta['tier']} | " + " | ".join(columns)
            + f" | {len(delta['changes'])} |"
        )
    return lines


def render_markdown(history: list[dict]) -> str:
    """The combined trend report over the whole committed history."""
    lines = ["# Benchmark trajectory", ""]
    if not history:
        lines.append("No `BENCH_*.json` entries found.")
        return "\n".join(lines)

    lines += [
        "## Runs",
        "",
        "| bench | suite | date | cells | numpy | host |",
        "|---|---|---|---|---|---|",
    ]
    for doc in history:
        lines.append(
            f"| PR {doc['bench_id']} | {doc['suite']} | {_date(doc)} "
            f"| {len(doc['cells'])} | {doc['host'].get('numpy', '?')} "
            f"| {doc['host'].get('platform', '?')} |"
        )
    lines.append("")

    if len(history) >= 2:
        previous, current = history[-2], history[-1]
        lines += [
            f"## Work deltas (PR {previous['bench_id']} -> "
            f"PR {current['bench_id']})",
            "",
        ]
        lines += _work_table(compute_deltas(previous, current))
        lines.append("")
        problems = check_regressions(previous, current)
        if problems:
            lines.append("**CHANGED:**")
            lines += [f"- {problem}" for problem in problems]
        else:
            lines.append(
                "Every common cell reproduced its work, and no tier-1 "
                "cell was dropped."
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
                f"| {expectation.metric} | {_fmt(value, 'g')} "
                f"| {expectation.comparison} {expectation.bound:g} "
                f"| {'yes' if met else '**NO**'} |"
            )
        lines.append("")

    lines += [
        "## Trajectory (tier-1 cells)",
        "",
        "### ms per frame (information only, not gated)",
        "",
        trajectory_markdown(history, "ms_per_frame"),
        "",
        "### RMSE",
        "",
        trajectory_markdown(history, "rmse"),
        "",
    ]
    return "\n".join(lines)
