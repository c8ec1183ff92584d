"""Haar wavelet sparsifying basis (the paper's DWT alternative).

Sec. 2: "we simply applied the discrete cosine transform (DCT) to these
datasets, while other suitable transformations, such as discrete
Fourier transform and discrete wavelet transform, can be applied as
well."  This module provides the simplest orthonormal DWT -- the 2-D
Haar transform -- as a drop-in alternative to
:class:`~repro.core.dct.Dct2Basis` for the decoder's synthesis basis.

The transform is the separable multi-level Haar analysis: each level
splits the current low-pass band into (LL, LH, HL, HH); levels recurse
on LL while the band size stays even.  Both directions are orthonormal,
so ``synthesize`` is the exact adjoint/inverse of ``analyze``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["haar2", "ihaar2", "Haar2Basis"]

_SQRT2 = np.sqrt(2.0)


def _haar_rows_forward(matrix: np.ndarray, size: int) -> None:
    """One analysis level along axis 0, in place on the leading block."""
    half = size // 2
    block = matrix[:size].copy()
    matrix[:half] = (block[0::2] + block[1::2]) / _SQRT2
    matrix[half:size] = (block[0::2] - block[1::2]) / _SQRT2


def _haar_rows_inverse(matrix: np.ndarray, size: int) -> None:
    """One synthesis level along axis 0, in place on the leading block."""
    half = size // 2
    low = matrix[:half].copy()
    high = matrix[half:size].copy()
    matrix[0:size:2] = (low + high) / _SQRT2
    matrix[1:size:2] = (low - high) / _SQRT2


def _levels(rows: int, cols: int, max_levels: int | None) -> int:
    levels = 0
    r, c = rows, cols
    while r % 2 == 0 and c % 2 == 0 and r >= 2 and c >= 2:
        levels += 1
        r //= 2
        c //= 2
        if max_levels is not None and levels >= max_levels:
            break
    return levels


def haar2(
    image: np.ndarray, max_levels: int | None = None
) -> np.ndarray:
    """Forward orthonormal multi-level 2-D Haar transform."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"haar2 expects a 2-D array, got {image.shape}")
    rows, cols = image.shape
    levels = _levels(rows, cols, max_levels)
    if levels == 0:
        raise ValueError(
            f"shape {image.shape} admits no Haar level (needs even dims)"
        )
    out = image.copy()
    r, c = rows, cols
    for _ in range(levels):
        _haar_rows_forward(out, r)
        out_t = np.ascontiguousarray(out.T)
        _haar_rows_forward(out_t, c)
        out = np.ascontiguousarray(out_t.T)
        r //= 2
        c //= 2
    return out


def ihaar2(
    coefficients: np.ndarray, max_levels: int | None = None
) -> np.ndarray:
    """Inverse of :func:`haar2`."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.ndim != 2:
        raise ValueError(
            f"ihaar2 expects a 2-D array, got {coefficients.shape}"
        )
    rows, cols = coefficients.shape
    levels = _levels(rows, cols, max_levels)
    if levels == 0:
        raise ValueError(
            f"shape {coefficients.shape} admits no Haar level (needs even dims)"
        )
    out = coefficients.copy()
    sizes = [(rows >> k, cols >> k) for k in range(levels)]
    for r, c in reversed(sizes):
        out_t = np.ascontiguousarray(out.T)
        _haar_rows_inverse(out_t, c)
        out = np.ascontiguousarray(out_t.T)
        _haar_rows_inverse(out, r)
    return out


class Haar2Basis:
    """Matrix-free orthonormal 2-D Haar basis, API-compatible with
    :class:`~repro.core.dct.Dct2Basis` (usable anywhere a ``basis`` is
    accepted by :class:`~repro.core.operators.CompositeOperator`)."""

    def __init__(self, shape: tuple[int, int], max_levels: int | None = None):
        rows, cols = shape
        if rows < 2 or cols < 2:
            raise ValueError(f"invalid array shape {shape}")
        if _levels(rows, cols, max_levels) == 0:
            raise ValueError(f"shape {shape} admits no Haar level")
        self.shape = (int(rows), int(cols))
        self.n = int(rows) * int(cols)
        self.max_levels = max_levels

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x``: wavelet coefficients to pixel vector."""
        coeffs = np.asarray(coeffs, dtype=float)
        return ihaar2(coeffs.reshape(self.shape), self.max_levels).ravel()

    def analyze(self, pixels: np.ndarray) -> np.ndarray:
        """``Psi.T @ y``: pixel vector to wavelet coefficients."""
        pixels = np.asarray(pixels, dtype=float)
        return haar2(pixels.reshape(self.shape), self.max_levels).ravel()

    def to_matrix(self) -> np.ndarray:
        """Materialise the explicit ``N x N`` synthesis matrix."""
        basis = np.empty((self.n, self.n))
        unit = np.zeros(self.n)
        for j in range(self.n):
            unit[j] = 1.0
            basis[:, j] = self.synthesize(unit)
            unit[j] = 0.0
        return basis

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Haar2Basis(shape={self.shape})"
