"""The trimmed FISTA and Douglas-Rachford loops equal the textbook loops.

``solve_fista`` and ``solve_bp_dr`` reuse each iteration's difference
vector and norms instead of recomputing them, and take norms as
``sqrt(v.dot(v))``.  The loops below are the straightforward versions
(``np.linalg.norm``, every difference recomputed where it is used);
every field of the result must match them bit for bit, and so must
the per-iteration trajectory an instrumented solve records.
"""

import numpy as np
import pytest
from scipy.sparse import linalg as sparse_linalg

from repro import instrument
from repro.core.engine import DecodeEngine
from repro.core.measurement import get_measurement
from repro.core.solvers import solve_bp_dr, solve_fista
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


def _textbook_fista(
    operator, b, max_iterations=400, tolerance=1e-4, continuation_stages=6
):
    b = np.asarray(b, dtype=float)
    lam = float(default_lambda(operator, b))
    sigma = operator.spectral_norm()
    step = float(1.0 if sigma == 0.0 else 1.0 / (sigma * sigma))
    lam_max = float(np.max(np.abs(operator.rmatvec(b))))
    if continuation_stages > 1 and lam_max > lam > 0:
        stages = [
            float(v)
            for v in np.geomspace(
                min(0.5 * lam_max, max(lam, 1e-15)), lam, continuation_stages
            )
        ]
        stages[-1] = lam
    else:
        stages = [lam]
    guard = _Guard()
    trajectory = []
    x = np.zeros(operator.n)
    total_iterations = 0
    converged = False
    stopped = False
    for stage_lam in stages:
        if stopped:
            break
        z = x.copy()
        t = 1.0
        converged = False
        for _ in range(max_iterations):
            total_iterations += 1
            residual_vec = operator.matvec(z) - b
            trajectory.append(float(np.linalg.norm(residual_vec)))
            if guard.diverged(np.linalg.norm(residual_vec)):
                stopped = True
                break
            gradient = operator.rmatvec(residual_vec)
            x_next = _soft(z - step * gradient, step * stage_lam)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_next + ((t - 1.0) / t_next) * (x_next - x)
            change = np.linalg.norm(x_next - x)
            x, t = x_next, t_next
            if change <= tolerance * max(1.0, np.linalg.norm(x)):
                converged = True
                break
    info = {"lambda": lam, "step": step, "stages": len(stages)}
    if guard.tripped:
        info["diverged"] = True
    residual = float(np.linalg.norm(operator.matvec(x) - b))
    return x, total_iterations, converged, residual, info, trajectory


def _textbook_projector(operator, b):
    probe = np.random.default_rng(0).normal(size=operator.m)
    gram_probe = operator.matvec(operator.rmatvec(probe))
    if np.allclose(gram_probe, probe, atol=1e-10):
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
    operator, b, gamma=0.1, max_iterations=1000, tolerance=1e-4
):
    b = np.asarray(b, dtype=float)
    project, tight_frame = _textbook_projector(operator, b)
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
    b = model.measure(frame.ravel(), phi)
    if nan:
        b[3] = np.nan
    return operator, b


#: name -> (problem kwargs, solver options)
CASES = {
    "row-sampling-32-separable": (dict(size=32), {}),
    "row-sampling-64-separable": (dict(size=64), {}),
    "row-sampling-72-fft": (dict(size=72), {}),
    "haar2-32": (dict(size=32, basis="haar2"), {}),
    # Dense codes: A A^T != I, so Douglas-Rachford projects by CG.
    "dense-codes-16": (
        dict(size=16, measurement="dense_codes"), {"max_iterations": 30}
    ),
    "nan-measurement": (dict(size=32, nan=True), {}),
    # Every stage of FISTA's continuation stops at the cap too.
    "capped": (dict(size=32), {"max_iterations": 5}),
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


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize(
    "solver, textbook",
    [(solve_fista, _textbook_fista), (solve_bp_dr, _textbook_bp_dr)],
    ids=["fista", "bp_dr"],
)
def test_loop_matches_textbook_bitwise(case, solver, textbook):
    problem, options = CASES[case]
    operator, b = _problem(**problem)
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
    if case == "nan-measurement":
        assert result.info["diverged"] and not result.converged
    if case == "capped":
        assert result.iterations == 5 * result.info.get("stages", 1)
        assert not result.converged
