#!/usr/bin/env python
"""Dependency-free docstring linter for the enforced modules.

CI also runs ``pydocstyle`` where available, but the container this repo
grows in has no linters installed, so tier-1 enforcement uses this
AST-based checker instead.  It requires a docstring on:

* every module,
* every public class, and
* every public function/method (including ``__init__`` is *not*
  required; dunders and ``_``-prefixed names are skipped),

within the enforced paths listed in :data:`ENFORCED` (the public solver
API, the code-carrier protocol's modules -- operators, measurement
families, sensing matrices and the engine that binds them -- the
flexible encoder, the instrument subsystem, the benchmark framework and
the decode service — matching the ``[tool.pydocstyle]`` scope in
``pyproject.toml``).

Usage::

    python tools/check_docstrings.py            # lint the enforced set
    python tools/check_docstrings.py PATH ...   # lint specific files

Exit code 0 when clean, 1 with one ``path:line: message`` per problem
otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

ENFORCED = [
    "src/repro/core/solvers",
    "src/repro/core/operators.py",
    "src/repro/core/measurement.py",
    "src/repro/core/sensing.py",
    "src/repro/core/engine.py",
    "src/repro/array/flexible_encoder.py",
    "src/repro/instrument",
    "src/repro/bench",
    "src/repro/serve",
]
"""Paths (relative to the repo root) whose public API must be documented."""


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _iter_enforced_files(args: list[str]) -> list[Path]:
    if args:
        targets = [Path(a) for a in args]
    else:
        targets = [REPO_ROOT / rel for rel in ENFORCED]
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
        else:
            raise SystemExit(f"not a python file or directory: {target}")
    return files


def _check_node(node, path: Path, problems: list[str], owner: str = "") -> None:
    """Recursively require docstrings on public defs/classes under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            kind = "class" if isinstance(child, ast.ClassDef) else "function"
            qualname = f"{owner}{child.name}"
            if _is_public(child.name):
                if ast.get_docstring(child) is None:
                    problems.append(
                        f"{path}:{child.lineno}: missing docstring on "
                        f"public {kind} '{qualname}'"
                    )
                if isinstance(child, ast.ClassDef):
                    _check_node(child, path, problems, owner=f"{qualname}.")
            # private defs: skipped, including their bodies


def check_file(path: Path) -> list[str]:
    """Return the list of docstring problems in one file."""
    problems: list[str] = []
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: syntax error: {exc.msg}"]
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}:1: missing module docstring")
    _check_node(tree, path, problems)
    return problems


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    files = _iter_enforced_files(args)
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    if problems:
        print(
            f"\n{len(problems)} missing docstring(s) across "
            f"{len(files)} enforced file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"docstrings OK: {len(files)} file(s) checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
