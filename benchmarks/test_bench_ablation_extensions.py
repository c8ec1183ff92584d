"""Ablation benches for the repository's extensions (DESIGN.md §8).

* basis choice under the hardware encoder: DCT vs Haar vs identity --
  pixel sampling is coherent with localized wavelet atoms, which is
  why the paper's DCT choice is the right one;
* debiasing: L1-shrinkage removal on the recovered support;
* weighted vs uniform sampling with a prior frame;
* block-wise decoding: quality and wall-clock vs the whole-frame solve
  on a large (64x64) array.
"""

import time

import numpy as np

from repro.core.blocks import BlockProcessor
from repro.core.dct import Dct2Basis
from repro.core.metrics import rmse
from repro.core.operators import CompositeOperator
from repro.core.sensing import RowSamplingMatrix
from repro.core.solvers import debias_on_support, solve, solve_fista
from repro.core.strategies import (
    NaiveStrategy,
    WeightedSamplingStrategy,
    sample_and_reconstruct,
)
from repro.core.wavelet import Haar2Basis
from repro.datasets import ThermalHandGenerator


def _run_basis():
    frame = ThermalHandGenerator(seed=2).frame()
    n = frame.size
    rng = np.random.default_rng(2)
    phi = RowSamplingMatrix.random(n, n // 2, rng)
    b = phi.apply(frame.ravel())
    rows = []
    for name, basis in (
        ("dct", Dct2Basis(frame.shape)),
        ("haar", Haar2Basis(frame.shape)),
        ("identity", None),
    ):
        operator = CompositeOperator(phi, basis)
        result = solve("fista", operator, b)
        recon = operator.synthesize(result.coefficients).reshape(frame.shape)
        rows.append((name, rmse(frame, recon)))
    return rows


def test_bench_ablation_basis(benchmark):
    rows = benchmark.pedantic(_run_basis, rounds=1, iterations=1)
    print()
    print("Basis ablation -- thermal 32x32, row sampling at 50%")
    for name, error in rows:
        print(f"  {name:>9}: RMSE {error:.4f}")
    results = dict(rows)
    assert results["dct"] < results["haar"]  # pixel sampling is coherent
    #   with localized wavelets
    assert results["dct"] < results["identity"] / 3.0


def _run_debias_weighted():
    frame = ThermalHandGenerator(seed=3).frame()
    n = frame.size
    rng = np.random.default_rng(3)
    phi = RowSamplingMatrix.random(n, n // 2, rng)
    operator = CompositeOperator(phi, Dct2Basis(frame.shape))
    b = phi.apply(frame.ravel())
    lam = 0.02 * float(np.max(np.abs(operator.rmatvec(b))))
    biased = solve_fista(operator, b, lam=lam)
    debiased = debias_on_support(operator, b, biased)
    rows = [
        ("fista (large lam)", rmse(
            frame,
            operator.synthesize(biased.coefficients).reshape(frame.shape),
        )),
        ("fista + debias", rmse(
            frame,
            operator.synthesize(debiased.coefficients).reshape(frame.shape),
        )),
    ]
    uniform = NaiveStrategy(sampling_fraction=0.5)
    weighted = WeightedSamplingStrategy(sampling_fraction=0.5, uniform_floor=0.3)
    rows.append(
        ("uniform sampling", rmse(
            frame, uniform.reconstruct(frame, np.random.default_rng(4))
        ))
    )
    rows.append(
        ("weighted sampling", rmse(
            frame,
            weighted.reconstruct(frame, np.random.default_rng(4), prior=frame),
        ))
    )
    return rows


def test_bench_ablation_debias_weighted(benchmark):
    rows = benchmark.pedantic(_run_debias_weighted, rounds=1, iterations=1)
    print()
    print("Decoder refinements -- thermal 32x32, 50% sampling")
    for name, error in rows:
        print(f"  {name:>18}: RMSE {error:.4f}")
    results = dict(rows)
    assert results["fista + debias"] < results["fista (large lam)"]
    assert results["weighted sampling"] < 0.1


def _run_blocks():
    rng_full = np.random.default_rng(5)
    rng_block = np.random.default_rng(5)
    generator = ThermalHandGenerator(shape=(64, 64), seed=5)
    frame = generator.frame()
    start = time.perf_counter()
    full = sample_and_reconstruct(frame, 0.5, rng_full)
    time_full = time.perf_counter() - start
    processor = BlockProcessor(block_shape=(32, 32), overlap=0,
                               sampling_fraction=0.5)
    start = time.perf_counter()
    blocked = processor.reconstruct(frame, rng_block)
    time_block = time.perf_counter() - start
    return (
        ("full 64x64", rmse(frame, full), time_full),
        ("4 x 32x32 blocks", rmse(frame, blocked), time_block),
    )


def test_bench_ablation_blocks(benchmark):
    rows = benchmark.pedantic(_run_blocks, rounds=1, iterations=1)
    print()
    print("Block-decoding ablation -- 64x64 thermal frame, 50% sampling")
    for name, error, elapsed in rows:
        print(f"  {name:>16}: RMSE {error:.4f}  time {elapsed:.2f} s")
    (_, error_full, _), (_, error_block, _) = rows
    # Tiling costs a little accuracy but stays in the usable band.
    assert error_block < max(3.0 * error_full, 0.08)
