"""Experiments EQ1 and EQ2: the paper's compressed-sensing estimates.

EQ1 -- Eq. (1), ``M ~ K log(N/K)``: a phase-transition sweep measures
the empirical measurement count needed to recover K-sparse signals and
compares it with the estimate (and with the paper's reading that
``K log(N/K) ~ N/2`` at body-signal sparsity).

EQ2 -- Eq. (2): the reconstruction error splits into a measurement
term ``sqrt(N/M) eps`` and an approximation term ``||x - x_K||_1 /
sqrt(K)``; sweeps over noise and sparsity verify each term's scaling
dominates in its regime and the bound stays above the observed error
(up to the theorem's constant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dct import idct2
from ..core.engine import DecodeContext, get_engine
from ..core.measurement import get_measurement
from ..core.metrics import rmse
from ..core.theory import error_bound, required_measurements

__all__ = ["PhasePoint", "run_eq1_phase_transition", "BoundPoint", "run_eq2_bound"]


def _sparse_image(shape, sparsity, rng) -> np.ndarray:
    """A frame that is exactly K-sparse in the DCT domain, with the
    energy biased to low frequencies like real body signals."""
    rows, cols = shape
    coefficients = np.zeros(rows * cols)
    u, v = np.mgrid[0:rows, 0:cols]
    weights = 1.0 / (1.0 + u + v).ravel()
    support = rng.choice(
        rows * cols, size=sparsity, replace=False,
        p=weights / weights.sum(),
    )
    coefficients[support] = rng.normal(1.0, 0.3, size=sparsity) * rng.choice(
        [-1.0, 1.0], size=sparsity
    )
    return idct2(coefficients.reshape(shape))


@dataclass
class PhasePoint:
    """Empirical recovery at one (K, M) pair."""

    sparsity: int
    m: int
    success_rate: float
    eq1_estimate: int


def run_eq1_phase_transition(
    shape: tuple[int, int] = (16, 16),
    sparsities: tuple[int, ...] = (8, 16, 32),
    m_grid: tuple[float, ...] = (0.15, 0.25, 0.35, 0.5, 0.65, 0.8),
    trials: int = 4,
    solver: str = "fista",
    success_rmse: float = 1e-2,
    seed: int = 0,
) -> list[PhasePoint]:
    """Measure recovery success vs measurement count for K-sparse frames."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    n = rows * cols
    engine = get_engine()
    model = get_measurement("row_sampling")
    points = []
    for sparsity in sparsities:
        for fraction in m_grid:
            m = max(1, int(round(fraction * n)))
            plan = DecodeContext(
                shape=shape,
                sampling_fraction=m / n,
                solver=solver,
                solver_options={"sparsity": sparsity},
            )
            successes = 0
            for _ in range(trials):
                image = _sparse_image(shape, sparsity, rng)
                phi = model.draw(shape, m, rng)
                recovered = engine.solve_acquired(
                    plan, phi, phi.apply(image.ravel())
                )
                scale = max(np.abs(image).max(), 1e-12)
                if rmse(image, recovered) / scale < success_rmse:
                    successes += 1
            points.append(
                PhasePoint(
                    sparsity=sparsity,
                    m=m,
                    success_rate=successes / trials,
                    eq1_estimate=required_measurements(sparsity, n),
                )
            )
    return points


@dataclass
class BoundPoint:
    """Observed error vs the Eq. (2) bound at one setting."""

    m: int
    noise: float
    sparsity: int
    observed_rmse_l2: float
    bound_measurement: float
    bound_approximation: float
    bound_total: float


def run_eq2_bound(
    shape: tuple[int, int] = (16, 16),
    m_fraction: float = 0.5,
    noise_levels: tuple[float, ...] = (0.0, 0.01, 0.05),
    sparsity: int = 40,
    solver: str = "fista",
    seed: int = 0,
) -> list[BoundPoint]:
    """Check the Eq. (2) error decomposition over a noise sweep."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    n = rows * cols
    m = max(1, int(round(m_fraction * n)))
    engine = get_engine()
    image = _sparse_image(shape, sparsity, rng)
    coefficients = engine.basis_for(shape).analyze(image.ravel())
    model = get_measurement("row_sampling")
    plan = DecodeContext(
        shape=shape,
        sampling_fraction=m / n,
        solver=solver,
        solver_options={"sparsity": sparsity},
    )
    points = []
    for noise in noise_levels:
        phi = model.draw(shape, m, rng)
        measurements = phi.apply(image.ravel())
        if noise > 0:
            measurements = measurements + rng.normal(0.0, noise, size=m)
        recovered = engine.solve_acquired(plan, phi, measurements)
        observed = float(np.linalg.norm(recovered - image))
        # Eq. (2)'s eps is the measurement-noise *norm* (Candes/Wakin
        # convention ||e||_2 <= eps), i.e. sigma * sqrt(M) for i.i.d.
        # per-sample noise of std sigma.
        terms = error_bound(coefficients, m, noise * np.sqrt(m), sparsity)
        points.append(
            BoundPoint(
                m=m,
                noise=noise,
                sparsity=sparsity,
                observed_rmse_l2=observed,
                bound_measurement=terms["measurement_term"],
                bound_approximation=terms["approximation_term"],
                bound_total=terms["total"],
            )
        )
    return points
