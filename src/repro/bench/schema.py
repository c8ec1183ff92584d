"""The ``BENCH_<n>.json`` document schema: build, validate, load, write.

Every run of the benchmark driver (``python -m repro.bench``) emits one
schema-versioned JSON document at the repository root, named
``BENCH_<n>.json`` where ``n`` is the PR number the run belongs to.
The committed sequence of these files *is* the repo's performance
history; :mod:`repro.bench.trend` folds them into per-metric deltas and
the CI regression gate.  ``docs/BENCHMARKS.md`` documents every field.

The document layout (``SCHEMA`` = ``"repro.bench/v1"``)::

    {
      "schema": "repro.bench/v1",
      "bench_id": 6,                  # position in the trajectory
      "suite": "smoke",               # suite that produced the run
      "seed": 0,                      # master seed (cells derive theirs)
      "created_unix": 1754600000.0,
      "host": {"python": "...", "platform": "...", "numpy": "..."},
      "cells": [ { ... per-cell record ... }, ... ]
    }

Cell records are produced by :mod:`repro.bench.runner`; their
``metrics`` block always carries ``wall_s``, ``ms_per_frame``,
``rmse``, ``delivered`` and ``ok_fraction``, plus
``operator_cache_bytes`` and ``speedup_vs_serial``, and the cell
carries the counted pass's ``counters``.  Documents written before
every cell carried counters still validate, and keys they carry that
current runs no longer write are ignored: the trend report reads the
whole committed history.
"""

from __future__ import annotations

import json
import platform
import re
import sys
import time
from pathlib import Path

from ..instrument import json_safe

__all__ = [
    "SCHEMA",
    "BENCH_PATTERN",
    "bench_filename",
    "build_bench",
    "list_bench_files",
    "load_bench",
    "next_bench_id",
    "validate_bench",
    "write_bench",
]

SCHEMA = "repro.bench/v1"
"""Schema tag stamped into (and required of) every benchmark document."""

BENCH_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")
"""Filename pattern of a trajectory entry (``BENCH_<n>.json``).

Deliberately anchored to digits only, so the per-test instrumentation
dumps the benchmark conftest writes (``BENCH_<test>.instrument.json``)
never leak into the trajectory.
"""

_REQUIRED_TOP = {
    "schema": str,
    "bench_id": int,
    "suite": str,
    "seed": int,
    "created_unix": (int, float),
    "host": dict,
    "cells": list,
}

_REQUIRED_CELL = {
    "workload": str,
    "route": str,
    "dataset": str,
    "shape": list,
    "sampling_fraction": (int, float),
    "fault_rate": (int, float),
    "frames": int,
    "solver": str,
    "tier": int,
    "metrics": dict,
}

_REQUIRED_METRICS = {
    "wall_s": (int, float),
    "ms_per_frame": (int, float),
    "rmse": (int, float),
    "delivered": (int, float),
    "ok_fraction": (int, float),
}


def host_info() -> dict:
    """JSON-safe description of the machine that produced a run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unknown"
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy_version,
    }


def build_bench(
    bench_id: int,
    suite: str,
    seed: int,
    cells: list,
    meta: dict | None = None,
) -> dict:
    """Assemble a schema-valid benchmark document from run results.

    ``cells`` are the per-cell records from
    :func:`repro.bench.runner.run_suite`; ``meta`` (if given) is merged
    in under a ``"meta"`` key for free-form context such as a git SHA.
    The document is passed through
    :func:`repro.instrument.json_safe`, so numpy scalars and arrays in
    the cells come out as plain JSON types.
    """
    doc = {
        "schema": SCHEMA,
        "bench_id": int(bench_id),
        "suite": str(suite),
        "seed": int(seed),
        "created_unix": time.time(),
        "host": host_info(),
        "cells": list(cells),
    }
    if meta:
        doc["meta"] = dict(meta)
    return json_safe(doc)


def validate_bench(doc) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid).

    Checks the top-level layout, every cell record and every cell's
    ``metrics`` block against the v1 schema.  Like
    :func:`repro.instrument.validate_report` this is a dependency-free
    structural check, not a JSON-Schema engine.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    for key, types in _REQUIRED_TOP.items():
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
        elif not isinstance(doc[key], types):
            problems.append(
                f"top-level {key!r} must be {types}, got "
                f"{type(doc[key]).__name__}"
            )
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(
            f"schema must be {SCHEMA!r}, got {doc['schema']!r}"
        )
    if doc["bench_id"] < 0:
        problems.append(f"bench_id must be >= 0, got {doc['bench_id']}")
    seen: set[tuple[str, str]] = set()
    for i, cell in enumerate(doc["cells"]):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            problems.append(f"{where} must be an object")
            continue
        for key, types in _REQUIRED_CELL.items():
            if key not in cell:
                problems.append(f"{where} missing key {key!r}")
            elif not isinstance(cell[key], types):
                problems.append(
                    f"{where}.{key} must be {types}, got "
                    f"{type(cell[key]).__name__}"
                )
        if not isinstance(cell.get("metrics"), dict):
            continue
        for key, types in _REQUIRED_METRICS.items():
            value = cell["metrics"].get(key)
            if value is None:
                problems.append(f"{where}.metrics missing {key!r}")
            elif not isinstance(value, types):
                problems.append(
                    f"{where}.metrics.{key} must be a number, got "
                    f"{type(value).__name__}"
                )
        key = (cell.get("workload"), cell.get("route"))
        if all(isinstance(part, str) for part in key):
            if key in seen:
                problems.append(
                    f"{where} duplicates cell {key[0]!r} x {key[1]!r}"
                )
            seen.add(key)
    return problems


def bench_filename(bench_id: int) -> str:
    """The canonical trajectory filename for ``bench_id``."""
    return f"BENCH_{int(bench_id)}.json"


def list_bench_files(root) -> list[tuple[int, Path]]:
    """All trajectory files under ``root``, sorted by bench id."""
    root = Path(root)
    found = []
    for path in root.iterdir() if root.is_dir() else ():
        match = BENCH_PATTERN.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def next_bench_id(root) -> int:
    """The next free trajectory id under ``root`` (1 when none exist)."""
    existing = list_bench_files(root)
    return existing[-1][0] + 1 if existing else 1


def load_bench(path) -> dict:
    """Load and validate one trajectory file; raises on schema problems."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    problems = validate_bench(doc)
    if problems:
        raise ValueError(
            f"{path}: invalid benchmark document: " + "; ".join(problems)
        )
    return doc


def write_bench(doc: dict, path) -> None:
    """Validate ``doc`` and write it as stable, indented JSON."""
    problems = validate_bench(doc)
    if problems:
        raise ValueError(
            "refusing to write invalid benchmark document: "
            + "; ".join(problems)
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
