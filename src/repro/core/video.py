"""Spatio-temporal compressed sensing over frame bursts.

The paper closes by noting that "the developed robust sensing method
has broader applications for large area sensor array" -- the most
immediate one being *video*: consecutive frames of a body-sensing array
are heavily correlated, so a burst is far sparser in a 3-D (temporal +
spatial) DCT than each frame is alone.  Jointly decoding a burst
therefore needs fewer samples per frame than frame-by-frame decoding,
or equivalently tolerates more errors at the same budget.

:class:`Dct3Basis` extends the Eq. (4)-(7) construction with a third
separable axis; :func:`reconstruct_burst` runs the joint decode with a
per-frame random ``Phi_M`` (fresh mask each frame, exactly what the
streaming encoder produces).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

from .engine import get_engine
from .measurement import get_measurement
from .solvers import solve

__all__ = ["dct3", "idct3", "Dct3Basis", "reconstruct_burst"]


def dct3(volume: np.ndarray) -> np.ndarray:
    """Forward orthonormal 3-D DCT-II of a ``(frames, rows, cols)`` burst."""
    volume = np.asarray(volume, dtype=float)
    if volume.ndim != 3:
        raise ValueError(f"dct3 expects a 3-D array, got {volume.shape}")
    return _fft.dctn(volume, type=2, norm="ortho")


def idct3(coefficients: np.ndarray) -> np.ndarray:
    """Inverse orthonormal 3-D DCT-II."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.ndim != 3:
        raise ValueError(f"idct3 expects a 3-D array, got {coefficients.shape}")
    return _fft.idctn(coefficients, type=2, norm="ortho")


class Dct3Basis:
    """Matrix-free orthonormal 3-D DCT basis for a fixed burst shape.

    API-compatible with the 2-D bases (``synthesize`` / ``analyze`` /
    ``n``), so it plugs straight into
    :class:`~repro.core.operators.CompositeOperator`.
    """

    def __init__(self, shape: tuple[int, int, int]):
        frames, rows, cols = shape
        if min(frames, rows, cols) < 1:
            raise ValueError(f"invalid burst shape {shape}")
        self.shape = (int(frames), int(rows), int(cols))
        self.n = int(frames) * int(rows) * int(cols)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x``: coefficients to the flattened burst."""
        coeffs = np.asarray(coeffs, dtype=float)
        return idct3(coeffs.reshape(self.shape)).ravel()

    def analyze(self, voxels: np.ndarray) -> np.ndarray:
        """``Psi.T @ y``: flattened burst to coefficients."""
        voxels = np.asarray(voxels, dtype=float)
        return dct3(voxels.reshape(self.shape)).ravel()

    def to_matrix(self) -> np.ndarray:
        """Explicit ``N x N`` basis (tiny shapes only)."""
        basis = np.empty((self.n, self.n))
        unit = np.zeros(self.n)
        for j in range(self.n):
            unit[j] = 1.0
            basis[:, j] = self.synthesize(unit)
            unit[j] = 0.0
        return basis

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dct3Basis(shape={self.shape})"


def reconstruct_burst(
    burst: np.ndarray,
    sampling_fraction: float,
    rng: np.random.Generator,
    solver: str = "fista",
    exclude_masks: np.ndarray | None = None,
    noise_sigma: float = 0.0,
    solver_options: dict | None = None,
) -> np.ndarray:
    """Jointly decode a ``(frames, rows, cols)`` burst from per-frame
    random pixel samples.

    Parameters
    ----------
    burst:
        The (corrupted) measured burst; only the sampled voxels are
        used.
    sampling_fraction:
        Per-frame M/N -- the same budget a frame-by-frame decode gets.
    exclude_masks:
        Optional per-frame boolean masks of unsampleable pixels (same
        shape as ``burst``).
    noise_sigma, solver, solver_options:
        As in :func:`~repro.core.strategies.sample_and_reconstruct`.
    """
    burst = np.asarray(burst, dtype=float)
    if burst.ndim != 3:
        raise ValueError(f"expected (frames, rows, cols), got {burst.shape}")
    if not 0.0 < sampling_fraction <= 1.0:
        raise ValueError("sampling_fraction must be in (0, 1]")
    frames, rows, cols = burst.shape
    pixels = rows * cols
    model = get_measurement("row_sampling")
    voxel_indices = []
    for k in range(frames):
        exclude = None
        if exclude_masks is not None:
            mask = np.asarray(exclude_masks, dtype=bool)
            if mask.shape != burst.shape:
                raise ValueError("exclude_masks shape must match burst")
            exclude = np.flatnonzero(mask[k].ravel())
        m = max(1, int(round(sampling_fraction * pixels)))
        if exclude is not None:
            m = min(m, pixels - len(exclude))
        frame_phi = model.draw(pixels, m, rng, exclude=exclude)
        voxel_indices.append(frame_phi.indices + k * pixels)
    phi = model.from_indices(
        n=frames * pixels, indices=np.concatenate(voxel_indices)
    )
    operator = get_engine().operator(phi, burst.shape, basis="dct3")
    measurements = phi.apply(burst.ravel())
    if noise_sigma > 0:
        measurements = measurements + rng.normal(
            0.0, noise_sigma, size=measurements.shape
        )
    result = solve(solver, operator, measurements, **(solver_options or {}))
    return operator.synthesize(result.coefficients).reshape(burst.shape)
