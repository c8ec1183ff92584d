"""The trimmed FISTA and Douglas-Rachford loops equal the textbook loops.

``solve_fista`` and ``solve_bp_dr`` reuse each iteration's difference
vector and norms instead of recomputing them, and take norms as
``sqrt(v.dot(v))``.  The loops below are the straightforward versions
(``np.linalg.norm``, every difference recomputed where it is used);
every field of the result must match them bit for bit, and so must
the per-iteration trajectory an instrumented solve records.  FISTA has
two references: the fixed-step loop, for operators with a norm hint
and for an explicit ``step``, and the backtracking loop, for codes that
state no norm.

Off a tight frame, ``solve_bp_dr`` projects through one Cholesky
factorisation of ``A A^T`` per solve.  It must land where the
conjugate-gradient projection it replaced did (same iterations,
coefficients within 1e-9), and a rank-deficient ``A A^T`` must raise
before the first iteration.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import linalg as sparse_linalg

from repro import instrument
from repro.core.engine import DecodeEngine
from repro.core.measurement import get_measurement
from repro.core.solvers import admm, solve_bp_dr, solve_fista
from repro.core.solvers.fista import default_lambda
from repro.datasets import ThermalHandGenerator


class _Guard:
    """Trips on a non-finite value or a 1e6x blow-up of the first one."""

    def __init__(self):
        self.baseline = None
        self.tripped = False

    def diverged(self, value):
        value = float(value)
        if not np.isfinite(value):
            self.tripped = True
            return True
        if self.baseline is None:
            self.baseline = max(value, 1.0)
            return False
        if value > 1e6 * self.baseline:
            self.tripped = True
            return True
        return False


def _soft(x, threshold):
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def _textbook_fista(operator, b, max_iterations=400, tolerance=1e-4, step=None):
    b = np.asarray(b, dtype=float)
    lam = float(default_lambda(operator, b))
    if step is None:
        sigma = operator.spectral_norm()
        step = float(1.0 if sigma == 0.0 else 1.0 / (sigma * sigma))
    guard = _Guard()
    trajectory = []
    x = np.zeros(operator.n)
    z = x.copy()
    t = 1.0
    restarts = 0
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        residual_vec = operator.matvec(z) - b
        trajectory.append(float(np.linalg.norm(residual_vec)))
        if guard.diverged(np.linalg.norm(residual_vec)):
            break
        gradient = operator.rmatvec(residual_vec)
        x_next = _soft(z - step * gradient, step * lam)
        # O'Donoghue-Candes gradient restart: momentum points uphill.
        if np.dot(z - x_next, x_next - x) > 0:
            t = 1.0
            restarts += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_next + ((t - 1.0) / t_next) * (x_next - x)
        change = np.linalg.norm(x_next - x)
        x, t = x_next, t_next
        if change <= tolerance * max(1.0, np.linalg.norm(x)):
            converged = True
            break
    info = {"lambda": lam, "step": step, "restarts": restarts}
    if guard.tripped:
        info["diverged"] = True
    residual = float(np.linalg.norm(operator.matvec(x) - b))
    return x, iteration, converged, residual, info, trajectory


def _textbook_fista_backtracking(operator, b, max_iterations=400, tolerance=1e-4):
    """FISTA whose step backtracks, for a code that states no norm.

    ``L`` starts at ``||A^T b||^2 / ||b||^2``, shrinks by 0.9 after each
    iteration and doubles until ``||A (x+ - z)|| <= sqrt(L) ||x+ - z||``.
    ``A z`` is the momentum combination of ``A x_{k+1}`` and ``A x_k``.
    Every accepted step must meet Beck and Teboulle's quadratic upper
    bound on ``f = ||A x - b||^2 / 2``, evaluated with a fresh ``A z``.
    """
    b = np.asarray(b, dtype=float)
    atb = operator.rmatvec(b)
    lam = float(default_lambda(operator, b))
    ratio = float(np.linalg.norm(atb) / np.linalg.norm(b)) if b.any() else 0.0
    lipschitz = ratio * ratio if ratio > 0.0 else 1.0
    step = 1.0 / lipschitz
    guard = _Guard()
    trajectory = []
    x = np.zeros(operator.n)
    ax = np.zeros(operator.m)
    z, az = x.copy(), ax.copy()
    t = 1.0
    restarts = backtracks = 0
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        residual_vec = az - b
        trajectory.append(float(np.linalg.norm(residual_vec)))
        if guard.diverged(np.linalg.norm(residual_vec)):
            break
        # z = 0 in the first iteration: the gradient is -A^T b.
        gradient = -atb if iteration == 1 else operator.rmatvec(residual_vec)
        for _ in range(60):
            trial = 1.0 / lipschitz
            x_next = _soft(z - trial * gradient, trial * lam)
            ax_next = operator.matvec(x_next)
            if np.linalg.norm(ax_next - az) <= np.sqrt(lipschitz) * (
                np.linalg.norm(x_next - z)
            ):
                break
            lipschitz *= 2.0
            backtracks += 1
        else:
            raise AssertionError("no trial met the bound")
        step = trial
        move = x_next - z
        f_next = 0.5 * np.linalg.norm(operator.matvec(x_next) - b) ** 2
        f_z = 0.5 * np.linalg.norm(operator.matvec(z) - b) ** 2
        terms = (f_z, np.dot(gradient, move), 0.5 * lipschitz * np.dot(move, move))
        assert f_next <= sum(terms) + 1e-9 * sum(abs(v) for v in terms)
        # O'Donoghue-Candes gradient restart: momentum points uphill.
        if np.dot(z - x_next, x_next - x) > 0:
            t = 1.0
            restarts += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        z = x_next + momentum * (x_next - x)
        az = ax_next + momentum * (ax_next - ax)
        change = np.linalg.norm(x_next - x)
        x, ax, t = x_next, ax_next, t_next
        lipschitz *= 0.9
        if change <= tolerance * max(1.0, np.linalg.norm(x)):
            converged = True
            break
    info = {
        "lambda": lam, "step": step, "restarts": restarts,
        "backtracks": backtracks,
    }
    if guard.tripped:
        info["diverged"] = True
    residual = float(np.linalg.norm(operator.matvec(x) - b))
    return x, iteration, converged, residual, info, trajectory


def _textbook_fista_any(operator, b, step=None, **options):
    """The fixed-step reference under a norm hint or a step, else backtracking."""
    if step is None and operator.spectral_norm_hint is None:
        return _textbook_fista_backtracking(operator, b, **options)
    return _textbook_fista(operator, b, step=step, **options)


def _is_tight_frame(operator):
    probe = np.random.default_rng(0).normal(size=operator.m)
    gram_probe = operator.matvec(operator.rmatvec(probe))
    return np.allclose(gram_probe, probe, atol=1e-10)


def _textbook_projector(operator, b):
    if _is_tight_frame(operator):
        return (lambda x: x + operator.rmatvec(b - operator.matvec(x))), True
    # Row j of A is A^T e_j; A A^T is factored once per solve.
    a = np.stack([operator.rmatvec(unit) for unit in np.eye(operator.m)])
    factor = cho_factor(a @ a.T)

    def project(x):
        correction = cho_solve(
            factor, b - operator.matvec(x), check_finite=False
        )
        return x + operator.rmatvec(correction)

    return project, False


def _cg_projector(operator, b):
    """The projection by conjugate gradients inside every iteration."""
    if _is_tight_frame(operator):
        return (lambda x: x + operator.rmatvec(b - operator.matvec(x))), True
    gram = sparse_linalg.LinearOperator(
        shape=(operator.m, operator.m),
        matvec=lambda v: operator.matvec(operator.rmatvec(v)),
    )

    def project(x):
        correction, _ = sparse_linalg.cg(
            gram, b - operator.matvec(x), rtol=1e-12, atol=1e-14, maxiter=200
        )
        return x + operator.rmatvec(correction)

    return project, False


def _textbook_bp_dr(
    operator,
    b,
    max_iterations=1000,
    tolerance=1e-4,
    projector=_textbook_projector,
):
    b = np.asarray(b, dtype=float)
    gamma = 1e-2 * float(np.max(np.abs(operator.rmatvec(b))))
    if gamma == 0.0:
        gamma = 0.1
    project, tight_frame = projector(operator, b)
    guard = _Guard()
    trajectory = []
    z = project(np.zeros(operator.n))
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        if guard.diverged(np.linalg.norm(z)):
            break
        x = _soft(z, gamma)
        z_next = z + project(2.0 * x - z) - x
        change = np.linalg.norm(z_next - z)
        z = z_next
        trajectory.append(float(change / max(1.0, np.linalg.norm(z))))
        if change <= tolerance * max(1.0, np.linalg.norm(z)):
            converged = True
            break
    x = project(_soft(z, gamma))
    info = {"gamma": gamma, "tight_frame": tight_frame}
    if guard.tripped:
        info["diverged"] = True
    residual = float(np.linalg.norm(operator.matvec(x) - b))
    return x, iteration, converged, residual, info, trajectory


def _problem(size, basis="dct2", measurement="row_sampling", nan=False):
    """One thermal frame's engine operator and measurements."""
    frame = ThermalHandGenerator(shape=(size, size), seed=size).frame()
    model = get_measurement(measurement)
    phi = model.draw(
        frame.shape, frame.size // 2, np.random.default_rng(size)
    )
    operator = DecodeEngine().operator(
        phi, frame.shape, basis, measurement=measurement
    )
    b = phi.apply(frame.ravel())
    if nan:
        b[3] = np.nan
    return operator, b


def _power_iteration_step(operator):
    """``1 / sigma^2`` from the operator's power-iteration norm estimate."""
    sigma = operator.spectral_norm()
    return 1.0 / (sigma * sigma)


#: name -> (problem kwargs, solver options); a callable option is
#: evaluated on the problem's operator.
CASES = {
    "row-sampling-32-separable": (dict(size=32), {}),
    "row-sampling-64-separable": (dict(size=64), {}),
    "row-sampling-72-fft": (dict(size=72), {}),
    "haar2-32": (dict(size=32, basis="haar2"), {}),
    # Dense and block codes state no norm: FISTA backtracks its step,
    # and, as A A^T != I, Douglas-Rachford projects through a Cholesky
    # factorisation of A A^T.  The cap ends the dense solves.
    "dense-codes-16": (
        dict(size=16, measurement="dense_codes"), {"max_iterations": 30}
    ),
    "block-sampling-16": (dict(size=16, measurement="block_sampling"), {}),
    "nan-measurement": (dict(size=32, nan=True), {}),
    # A NaN measurement trips the divergence guard on every family: on
    # a code that states no norm before FISTA's backtracking loop tries
    # a step, and before Douglas-Rachford's Cholesky projection.
    "dense-nan-measurement": (
        dict(size=16, measurement="dense_codes", nan=True), {}
    ),
    "block-nan-measurement": (
        dict(size=16, measurement="block_sampling", nan=True), {}
    ),
    # The cap ends both solves before their stopping rules do.
    "capped": (dict(size=32), {"max_iterations": 5}),
}

#: FISTA only: an explicit step keeps the fixed-step loop on an
#: operator whose rows are not orthonormal.
FISTA_CASES = {
    **CASES,
    "dense-codes-16-fixed-step": (
        dict(size=16, measurement="dense_codes"),
        {"step": _power_iteration_step},
    ),
}


def _fields(result):
    """Every field of a result, floats and arrays as their bytes."""
    return (
        result.coefficients.tobytes(),
        result.iterations,
        result.converged,
        np.float64(result.residual).tobytes(),
        repr(sorted(result.info.items())),
    )


@pytest.mark.parametrize(
    "case, solver, textbook",
    [
        pytest.param(case, solve_fista, _textbook_fista_any, id=f"fista-{case}")
        for case in FISTA_CASES
    ]
    + [
        pytest.param(case, solve_bp_dr, _textbook_bp_dr, id=f"bp_dr-{case}")
        for case in CASES
    ],
)
def test_loop_matches_textbook_bitwise(case, solver, textbook):
    problem, options = FISTA_CASES[case]
    operator, b = _problem(**problem)
    options = {
        key: value(operator) if callable(value) else value
        for key, value in options.items()
    }
    result = solver(operator, b, **options)
    with instrument.profiled() as session:
        traced = solver(operator, b, **options)
    (span,) = [
        s
        for s in instrument.iter_span_dicts(session.report())
        if s["name"].startswith("solver.")
    ]
    *expected, trajectory = textbook(operator, b, **options)
    coefficients, iterations, converged, residual, info = expected
    assert _fields(result) == _fields(traced) == (
        coefficients.tobytes(),
        iterations,
        converged,
        np.float64(residual).tobytes(),
        repr(sorted(info.items())),
    )
    assert np.array(span.get("trajectory", [])).tobytes() == (
        np.array(trajectory).tobytes()
    )
    if case.endswith("nan-measurement"):
        assert result.info["diverged"] and not result.converged
    if case == "capped":
        assert result.iterations == 5
        assert not result.converged


@pytest.mark.parametrize("measurement", ["dense_codes", "block_sampling"])
def test_cholesky_projection_matches_cg(measurement):
    """One factorisation per solve lands where CG in every iteration did."""
    operator, b = _problem(16, measurement=measurement)
    result = solve_bp_dr(operator, b)
    coefficients, iterations, *_ = _textbook_bp_dr(
        operator, b, projector=_cg_projector
    )
    assert not result.info["tight_frame"]
    assert result.iterations == iterations
    np.testing.assert_allclose(
        result.coefficients, coefficients, rtol=0, atol=1e-9
    )


@pytest.mark.parametrize("seed", range(5))
def test_rank_deficient_gram_raises_before_iterating(seed, monkeypatch):
    """Exclusions that leave 127 live columns for 128 measurements."""
    shape, n, m = (16, 16), 256, 128
    exclude = np.random.default_rng(seed).choice(n, n - m + 1, replace=False)
    phi = get_measurement("dense_codes").draw(
        shape, m, np.random.default_rng(seed), exclude=exclude
    )
    operator = DecodeEngine().operator(phi, shape, measurement="dense_codes")
    b = phi.apply(np.random.default_rng(seed).random(n))

    def no_iteration(*args):
        raise AssertionError("the solve iterated on a singular projection")

    monkeypatch.setattr(admm, "soft_threshold", no_iteration)
    with pytest.raises(ValueError, match="rank-deficient"):
        solve_bp_dr(operator, b)
