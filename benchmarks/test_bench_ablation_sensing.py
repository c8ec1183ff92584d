"""Ablation bench: sensing-matrix choice.

DESIGN.md ablation: the paper's encoder uses randomly sampled identity
rows because an active matrix can only *select pixels*; classic CS
prefers dense Gaussian/Bernoulli projections.  This bench measures what
the hardware-friendly choice costs in reconstruction quality and
coherence.
"""

import numpy as np

from repro.core.dct import Dct2Basis, dct_basis_2d
from repro.core.measurement import DenseCodeMatrix
from repro.core.metrics import rmse
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix, bernoulli_matrix, gaussian_matrix
from repro.core.solvers import solve
from repro.core.theory import mutual_coherence
from repro.datasets import ThermalHandGenerator


def _run(shape=(16, 16), fraction=0.5, seed=0):
    frame = ThermalHandGenerator(shape=shape, seed=seed).frame()
    n = shape[0] * shape[1]
    m = int(fraction * n)
    rng = np.random.default_rng(seed)
    basis = Dct2Basis(shape)
    psi = dct_basis_2d(*shape)
    rows = []
    matrices = {
        "row-sampling": RowSamplingMatrix.random(n, m, rng),
        "gaussian": DenseCodeMatrix(gaussian_matrix(m, n, rng)),
        "bernoulli": DenseCodeMatrix(bernoulli_matrix(m, n, rng)),
    }
    for name, phi in matrices.items():
        operator = CompositeOperator(phi, basis)
        b = phi.apply(frame.ravel())
        coherence = mutual_coherence(phi.to_matrix() @ psi)
        result = solve("fista", operator, b)
        recon = operator.synthesize(result.coefficients).reshape(shape)
        rows.append((name, rmse(frame, recon), coherence))
    return rows


def test_bench_ablation_sensing(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print("Sensing-matrix ablation -- thermal 16x16, 50% measurements")
    print(f"{'matrix':>14} {'RMSE':>8} {'coherence':>10}")
    for name, error, coherence in rows:
        print(f"{name:>14} {error:>8.4f} {coherence:>10.3f}")
    results = {name: error for name, error, _ in rows}
    # All three recover the compressible frame reasonably; the
    # hardware-friendly row sampling stays within ~3x of dense Gaussian.
    assert results["row-sampling"] < 0.1
    assert results["row-sampling"] < 4.0 * max(results["gaussian"], 1e-3)
