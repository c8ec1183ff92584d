"""Ablation bench: decoder choice (accuracy vs runtime).

DESIGN.md ablation: the paper solves Eq. (9) by LP; the repo's default
sweep decoder is FISTA.  This bench quantifies the trade-off across
all registered solvers on the thermal reconstruction task, plus the
DCT-vs-identity basis ablation (why the sparse basis matters).
"""

import time

import numpy as np

from repro.core.dct import Dct2Basis
from repro.core.metrics import rmse
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix
from repro.core.solvers import solve, solver_names
from repro.datasets import ThermalHandGenerator


def _task(seed=0, shape=(32, 32), fraction=0.5):
    frame = ThermalHandGenerator(seed=seed).frame()
    n = shape[0] * shape[1]
    rng = np.random.default_rng(seed)
    phi = RowSamplingMatrix.random(n, int(fraction * n), rng)
    return frame, phi


def _run_all():
    frame, phi = _task()
    rows = []
    for name in solver_names():
        operator = CompositeOperator(phi, Dct2Basis(frame.shape))
        b = phi.apply(frame.ravel())
        start = time.perf_counter()
        result = solve(name, operator, b, sparsity=400)
        elapsed = time.perf_counter() - start
        recon = operator.synthesize(result.coefficients).reshape(frame.shape)
        rows.append((name, rmse(frame, recon), elapsed))
    # identity-basis ablation with the default decoder
    operator = CompositeOperator(phi, None)
    b = phi.apply(frame.ravel())
    result = solve("fista", operator, b)
    recon = operator.synthesize(result.coefficients).reshape(frame.shape)
    rows.append(("fista/identity", rmse(frame, recon), float("nan")))
    return rows


def test_bench_ablation_solvers(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    print()
    print("Solver ablation -- thermal frame, 50% sampling, no errors")
    print(f"{'solver':>16} {'RMSE':>8} {'time (s)':>9}")
    for name, error, elapsed in rows:
        print(f"{name:>16} {error:>8.4f} {elapsed:>9.3f}")
    results = {name: error for name, error, _ in rows}
    # Convex decoders reconstruct well.
    assert results["bp"] < 0.05
    assert results["fista"] < 0.05
    # The DCT basis is what makes recovery work: without a sparse
    # basis, a row-sampled identity system cannot fill in unseen pixels.
    assert results["fista/identity"] > 3.0 * results["fista"]
