#!/usr/bin/env python
"""Engine-seam checker: no basis/operator construction outside the engine.

The refactor that introduced :mod:`repro.core.engine` made
``DecodeEngine.operator`` the repo's only sanctioned construction site
for sensing operators and sparsifying bases -- that is what lets the
operator cache amortise construction across same-shape decodes, and
what keeps one canonical sample->solve->reshape recipe instead of the
five divergent copies the engine replaced.

The same argument applies to worker pools: :mod:`repro.core.executor`
is the only sanctioned construction site for thread/process pools --
that is what keeps every fan-out (tiles, batched decodes, sweeps)
behind one ``Executor`` protocol with deterministic result ordering,
per-task error capture and ``executor.*`` metrics, instead of ad-hoc
``concurrent.futures`` scattered through call sites.

Since the implicit-operator refactor the seam also covers **dense
materialisation**: ``.to_dense()`` / ``.to_matrix()`` turn an
``O(N log N)``, near-zero-memory implicit operator into an ``O(N^2)``
matrix, so those escape hatches are confined to the operator layer
itself and the LP solver that genuinely needs entries.

Since the measurement-family refactor the seam also covers **direct
``Phi`` construction**: sampling codes are drawn through a registered
:class:`~repro.core.measurement.MeasurementModel` (``draw`` consumes
the RNG in a pinned order, ``budget`` applies the exclusion clamp), so
calling ``RowSamplingMatrix(...)`` / ``RowSamplingMatrix.random(...)``
or a dense code factory (``gaussian_matrix`` /  ``bernoulli_matrix`` /
``hadamard_matrix``) outside the measurement layer forks the draw
recipe and silently breaks the bit-reproducibility contract.

Operators follow the same rule: ``DecodeEngine.operator`` asks the
plan's measurement family to build the operator, so the concrete
classes (``CompositeOperator``, ``SeparableDCTOperator``) are built
only by the engine and the measurement layer.  An operator built
anywhere else bypasses the cache and the family's spectral-norm hint.

The decode loops get one site each as well:
``DecodeEngine.solve_acquired`` is the one solve step (bind a code,
call ``solve``, synthesise the frame) and
:func:`repro.resilience.runtime.supervise` the one supervision loop
(fallback chain, breaker, budgets, health check, frame hold).  A bare
``solve(...)`` call outside the engine and the solver package, or a
bare ``validate_reconstruction(...)`` call outside the runtime and its
home module, is a private copy of one of them -- the copies drift
(budgets leaking between solvers, a breaker nobody consults).
Attribute calls such as ``np.linalg.solve`` are a different function
and stay allowed.

This checker walks the AST of every library and example module and
fails on any *call* to a guarded constructor (``Dct2Basis``,
``Dct3Basis``, ``Haar2Basis``; operator classes
``CompositeOperator``, ``SeparableDCTOperator``; pool constructors
``ThreadPoolExecutor``, ``ProcessPoolExecutor``, ``Pool``; ``Phi``
carriers and factories like ``RowSamplingMatrix`` or
``bernoulli_matrix`` -- including classmethod spellings such as
``RowSamplingMatrix.random(...)``) or guarded dense-materialisation
method (``to_dense``, ``to_matrix``), and on any bare-name ``solve`` or
``validate_reconstruction`` call, outside the allowed modules.  An
AST walk rather than a grep keeps class definitions, docstrings and
``repr`` strings from false-positiving.

Allowed sites:

* ``src/repro/core/engine.py`` -- the engine seam itself;
* ``src/repro/core/measurement.py`` and ``src/repro/core/operators.py``
  -- the families that build operators, and the classes themselves;
* ``src/repro/core/executor.py`` -- the pool seam itself;
* ``src/repro/core/operators.py`` and
  ``src/repro/core/solvers/basis_pursuit.py`` -- the sanctioned dense
  materialisation sites;
* ``src/repro/core/measurement.py`` and ``src/repro/core/sensing.py``
  -- the measurement layer that owns ``Phi`` construction;
* ``src/repro/core/engine.py`` and ``src/repro/core/solvers/`` -- the
  solve step and the dispatch it calls;
* ``src/repro/resilience/runtime.py`` and
  ``src/repro/resilience/health.py`` -- the supervision loop and the
  health checks' home;
* the modules that *define* a guarded class may construct it inside
  methods of that class (e.g. ``to_matrix`` round-trips);
* tests and benchmarks (they exercise the raw pieces on purpose).

Usage::

    python tools/check_engine_seam.py            # check src/ + examples/
    python tools/check_engine_seam.py PATH ...   # check specific files

Exit code 0 when clean, 1 with one ``path:line: message`` per violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

GUARDED = {"Dct2Basis", "Dct3Basis", "Haar2Basis"}
"""Basis constructors that may only be called inside the engine."""

ALLOWED = {
    "src/repro/core/engine.py",
}
"""Modules allowed to construct bases directly."""

OPERATOR_GUARDED = {
    "CompositeOperator",
    "SeparableDCTOperator",
}
"""Operator classes only the engine and the measurement layer build."""

OPERATOR_ALLOWED = {
    "src/repro/core/engine.py",
    "src/repro/core/measurement.py",  # MeasurementModel.build_operator
    "src/repro/core/operators.py",  # defines the classes
}
"""Modules allowed to construct operators directly."""

POOL_GUARDED = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool"}
"""Pool constructors that may only be called inside the executor seam."""

POOL_ALLOWED = {
    "src/repro/core/executor.py",
}
"""Modules allowed to construct worker pools directly."""

DENSE_GUARDED = {"to_dense", "to_matrix"}
"""Dense-materialisation escape hatches (``O(N^2)`` memory).

The implicit-operator refactor made matrix-free ``matvec``/``rmatvec``
the only sanctioned way to apply ``A`` in library code; materialising
the entries defeats the ``O(N log N)`` route and its memory model, so
any new ``.to_dense()`` / ``.to_matrix()`` call site must be argued
into :data:`DENSE_ALLOWED` explicitly.
"""

DENSE_ALLOWED = {
    "src/repro/core/operators.py",  # defines the escape hatch
    "src/repro/core/solvers/basis_pursuit.py",  # the LP needs entries
}
"""Modules allowed to materialise dense operator/basis matrices."""

PHI_GUARDED = {
    "RowSamplingMatrix",
    "DenseCodeMatrix",
    "BlockSamplingMatrix",
    "gaussian_matrix",
    "bernoulli_matrix",
    "hadamard_matrix",
}
"""``Phi`` carriers/factories that may only be called in the measurement
layer.

Library code draws codes through
``get_measurement(name).draw(...)`` (or receives a carrier and
dispatches via ``resolve_measurement_for``); constructing ``Phi``
directly forks the draw recipe the bit-reproducibility contract pins.
Both ``RowSamplingMatrix(...)`` and attribute spellings like
``RowSamplingMatrix.random(...)`` are caught.
"""

PHI_ALLOWED = {
    "src/repro/core/measurement.py",  # the measurement families
    "src/repro/core/sensing.py",  # the raw encoders they wrap
}
"""Modules allowed to construct measurement codes directly."""

SOLVE_GUARDED = {"solve"}
"""The solver dispatch; only the engine's solve step calls it by name."""

SOLVE_ALLOWED = {
    "src/repro/core/engine.py",  # DecodeEngine.solve_acquired
    "src/repro/core/solvers/",  # the dispatch itself (solve_batch)
}
"""Modules (or ``/``-terminated packages) allowed to call ``solve``."""

HEALTH_GUARDED = {"validate_reconstruction"}
"""The health-check battery; only the supervision loop calls it."""

HEALTH_ALLOWED = {
    "src/repro/resilience/runtime.py",  # supervise
    "src/repro/resilience/health.py",  # defines it
}
"""Modules allowed to call ``validate_reconstruction``."""

SCANNED = ["src/repro", "examples"]
"""Paths (relative to the repo root) held to the seam."""


def _defined_classes(tree: ast.Module, guarded: set[str]) -> set[str]:
    """Guarded classes defined in this module (their home may self-construct)."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in guarded
    }


def _allowed(rel: str, allowed: set[str]) -> bool:
    """Whether ``rel`` is an allowed module or lies in an allowed package."""
    return any(
        rel == site or (site.endswith("/") and rel.startswith(site))
        for site in allowed
    )


def check_file(path: Path) -> list[str]:
    """Return ``path:line: message`` strings for seam violations in a file."""
    try:
        rel = path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:  # outside the repo (explicit CLI argument)
        rel = path.as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    engine_guarded = set() if rel in ALLOWED else GUARDED
    operator_guarded = (
        set() if rel in OPERATOR_ALLOWED else OPERATOR_GUARDED
    )
    pool_guarded = set() if rel in POOL_ALLOWED else POOL_GUARDED
    dense_guarded = set() if rel in DENSE_ALLOWED else DENSE_GUARDED
    phi_guarded = set() if rel in PHI_ALLOWED else PHI_GUARDED
    solve_guarded = set() if _allowed(rel, SOLVE_ALLOWED) else SOLVE_GUARDED
    health_guarded = (
        set() if _allowed(rel, HEALTH_ALLOWED) else HEALTH_GUARDED
    )
    home_classes = _defined_classes(
        tree, engine_guarded | operator_guarded | pool_guarded | phi_guarded
    )
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        owner = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            if isinstance(func.value, ast.Name):
                owner = func.value.id
        # Bare names only: np.linalg.solve(...) is another function.
        if isinstance(func, ast.Name) and name in solve_guarded:
            problems.append(
                f"{rel}:{node.lineno}: {name}(...) called outside the "
                "engine's solve step -- route through "
                "get_engine().solve_acquired() instead"
            )
            continue
        if isinstance(func, ast.Name) and name in health_guarded:
            problems.append(
                f"{rel}:{node.lineno}: {name}(...) called outside the "
                "supervision loop -- route through "
                "repro.resilience.runtime.supervise() instead"
            )
            continue
        if (
            isinstance(func, ast.Attribute)
            and name in dense_guarded
        ):
            problems.append(
                f"{rel}:{node.lineno}: .{name}() materialises a dense "
                "matrix outside the sanctioned sites -- use the "
                "operator's matvec/rmatvec (matrix-free) instead"
            )
            continue
        # Classmethod spellings (RowSamplingMatrix.random(...)) carry
        # the guarded name as the attribute's *owner*, not the callee.
        if owner in phi_guarded and owner not in home_classes:
            problems.append(
                f"{rel}:{node.lineno}: {owner}.{name}(...) constructs a "
                "measurement code outside repro.core.measurement -- "
                "route through get_measurement(name).draw() instead"
            )
            continue
        if name in home_classes:
            continue
        if name in engine_guarded:
            problems.append(
                f"{rel}:{node.lineno}: {name}(...) constructed outside "
                "repro.core.engine -- route through "
                "get_engine().operator()/basis_for() instead"
            )
        elif name in operator_guarded:
            problems.append(
                f"{rel}:{node.lineno}: {name}(...) constructed outside "
                "the engine and measurement layers -- route through "
                "get_engine().operator() instead"
            )
        elif name in pool_guarded:
            problems.append(
                f"{rel}:{node.lineno}: {name}(...) constructed outside "
                "repro.core.executor -- route through "
                "resolve_executor()/ProcessExecutor instead"
            )
        elif name in phi_guarded:
            problems.append(
                f"{rel}:{node.lineno}: {name}(...) constructs a "
                "measurement code outside repro.core.measurement -- "
                "route through get_measurement(name).draw() instead"
            )
    return problems


def main(argv: list[str]) -> int:
    """CLI entry point; returns the exit code."""
    if argv:
        files = [Path(arg) for arg in argv]
    else:
        files = []
        for root in SCANNED:
            files.extend(sorted((REPO_ROOT / root).rglob("*.py")))
    problems = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} engine-seam violation(s)")
        return 1
    print(f"engine seam intact across {len(files)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
