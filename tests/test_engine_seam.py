"""Tier-1 enforcement of the engine and executor seams.

Runs ``tools/check_engine_seam.py`` over the library and example code:
no ``Dct2Basis`` / ``Dct3Basis`` / ``Haar2Basis`` construction may
exist outside ``repro.core.engine`` and no ``CompositeOperator`` /
``SeparableDCTOperator`` / ``DenseOperator`` construction outside the
engine and measurement layers (one construction site is what makes the
operator cache authoritative), and no
``ThreadPoolExecutor`` / ``ProcessPoolExecutor`` / ``Pool``
construction outside ``repro.core.executor`` (one pool seam is what
keeps every fan-out deterministic and instrumented), no
``.to_dense()`` / ``.to_matrix()`` dense materialisation outside the
operator layer's sanctioned sites (matrix-free applies are what keep
the implicit route ``O(N log N)`` in time and ~zero in memory), and no
direct ``Phi`` construction (``RowSamplingMatrix`` / dense code
factories) outside the measurement layer (one draw recipe per family
is what the bit-reproducibility contract pins), no bare ``solve(...)``
outside the engine's solve step and the solver package, and no bare
``validate_reconstruction(...)`` outside the supervision loop (one
solve step and one supervision loop is what keeps every decode entry
point on the same recipe).
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_engine_seam.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_engine_seam", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_construction_outside_engine(capsys):
    checker = _load_checker()
    code = checker.main([])
    out = capsys.readouterr()
    assert code == 0, f"engine-seam violations:\n{out.out}"


def test_checker_flags_guarded_calls(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.core import CompositeOperator, Dct2Basis\n"
        "basis = Dct2Basis((8, 8))\n"
        "op = CompositeOperator(phi, basis)\n"
    )
    problems = checker.check_file(bad)
    assert len(problems) == 2
    assert "Dct2Basis" in problems[0]
    assert "CompositeOperator" in problems[1]


def test_checker_ignores_strings_and_definitions(tmp_path):
    checker = _load_checker()
    ok = tmp_path / "ok.py"
    ok.write_text(
        "class Dct2Basis:\n"
        "    def clone(self):\n"
        "        return Dct2Basis()\n"  # home module may self-construct
        "\n"
        'LABEL = "CompositeOperator(phi, basis)"\n'  # repr text, not a call
    )
    assert checker.check_file(ok) == []


def test_checker_flags_operator_construction(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad_operator.py"
    bad.write_text(
        "from repro.core import operators\n"
        "a = operators.CompositeOperator(phi, basis)\n"
        "b = operators.SeparableDCTOperator(phi, basis)\n"
        "c = operators.DenseOperator(matrix)\n"
    )
    problems = checker.check_file(bad)
    assert len(problems) == 3
    assert all("engine and measurement layers" in p for p in problems)


def test_operator_construction_allowed_in_engine_and_measurement():
    checker = _load_checker()
    for rel in (
        ("src", "repro", "core", "engine.py"),
        ("src", "repro", "core", "measurement.py"),
        ("src", "repro", "core", "operators.py"),
    ):
        assert checker.check_file(REPO_ROOT.joinpath(*rel)) == []


def test_checker_flags_dense_materialisation(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad_dense.py"
    bad.write_text(
        "a = operator.to_dense()\n"
        "psi = basis.to_matrix()\n"
    )
    problems = checker.check_file(bad)
    assert len(problems) == 2
    assert "to_dense" in problems[0] and "matrix-free" in problems[0]
    assert "to_matrix" in problems[1]


def test_dense_materialisation_allowed_in_sanctioned_sites():
    checker = _load_checker()
    for rel in (
        ("src", "repro", "core", "operators.py"),
        ("src", "repro", "core", "solvers", "basis_pursuit.py"),
    ):
        assert checker.check_file(REPO_ROOT.joinpath(*rel)) == []


def test_checker_flags_raw_pool_construction(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad_pool.py"
    bad.write_text(
        "from concurrent import futures\n"
        "import multiprocessing\n"
        "pool = futures.ThreadPoolExecutor(max_workers=4)\n"
        "procs = futures.ProcessPoolExecutor()\n"
        "legacy = multiprocessing.Pool(2)\n"
    )
    problems = checker.check_file(bad)
    assert len(problems) == 3
    assert all("repro.core.executor" in p for p in problems)


def test_pool_construction_allowed_in_executor_seam():
    checker = _load_checker()
    seam = REPO_ROOT / "src" / "repro" / "core" / "executor.py"
    assert checker.check_file(seam) == []


def test_checker_flags_direct_phi_construction(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad_phi.py"
    bad.write_text(
        "from repro.core.sensing import RowSamplingMatrix, bernoulli_matrix\n"
        "phi = RowSamplingMatrix(n=16, indices=idx)\n"
        "phi2 = RowSamplingMatrix.random(16, 8, rng)\n"
        "code = bernoulli_matrix(8, 16, rng)\n"
    )
    problems = checker.check_file(bad)
    assert len(problems) == 3
    assert all("repro.core.measurement" in p for p in problems)
    # The classmethod spelling is caught via the attribute's owner.
    assert any("RowSamplingMatrix.random" in p for p in problems)


def test_phi_construction_allowed_in_measurement_layer():
    checker = _load_checker()
    for rel in (
        ("src", "repro", "core", "measurement.py"),
        ("src", "repro", "core", "sensing.py"),
    ):
        assert checker.check_file(REPO_ROOT.joinpath(*rel)) == []


def test_phi_seam_holds_across_library_and_examples():
    """No library/example module may construct Phi outside the seam."""
    checker = _load_checker()
    problems = []
    for root in checker.SCANNED:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            problems.extend(
                p
                for p in checker.check_file(path)
                if "measurement code" in p
            )
    assert problems == []


def test_checker_flags_bare_solve_and_health_calls(tmp_path):
    checker = _load_checker()
    bad = tmp_path / "bad_loop.py"
    bad.write_text(
        "from repro.core.solvers import solve\n"
        "from repro.resilience.health import validate_reconstruction\n"
        "result = solve('fista', operator, b)\n"
        "health = validate_reconstruction(frame)\n"
    )
    problems = checker.check_file(bad)
    assert len(problems) == 2
    assert "solve_acquired" in problems[0]
    assert "supervise" in problems[1]


def test_attribute_solve_calls_stay_allowed(tmp_path):
    checker = _load_checker()
    ok = tmp_path / "ok_linalg.py"
    ok.write_text(
        "import numpy as np\n"
        "x = np.linalg.solve(a, b)\n"
        "y = scipy.linalg.solve(a, b)\n"
        "def solve(a):\n"  # a definition is not a call
        "    return a\n"
    )
    assert checker.check_file(ok) == []
    mna = REPO_ROOT / "src" / "repro" / "circuits" / "mna.py"
    assert checker.check_file(mna) == []


def test_solve_and_health_allowed_in_their_layers():
    checker = _load_checker()
    for rel in (
        ("src", "repro", "core", "engine.py"),
        ("src", "repro", "core", "solvers", "__init__.py"),
        ("src", "repro", "resilience", "runtime.py"),
        ("src", "repro", "resilience", "health.py"),
    ):
        assert checker.check_file(REPO_ROOT.joinpath(*rel)) == []


def test_checker_cli_exit_codes(tmp_path, capsys):
    checker = _load_checker()
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert checker.main([str(good)]) == 0
    bad = tmp_path / "bad.py"
    bad.write_text("y = Dct2Basis((4, 4))\n")
    assert checker.main([str(bad)]) == 1
    out = capsys.readouterr()
    assert "outside" in out.out
