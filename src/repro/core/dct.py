"""Two-dimensional DCT bases and fast transform operators.

The paper (Sec. 3.1, Eqs. 3-7) expresses the sensor-array image ``y`` as a
product of an N x N inverse-DCT basis ``Psi`` and a sparse coefficient
vector ``x``::

    y = Psi @ x

where ``y`` stacks the pixel values ``f(a, b)`` of a sqrt(N) x sqrt(N)
array and ``x`` stacks the DCT-II coefficients ``F(u, v)``.  This module
builds the explicit ``Psi`` matrix exactly as written in Eqs. (4)-(7) and
also provides fast separable transforms (via ``scipy.fft``) that apply the
same orthonormal DCT without materialising the matrix.

Conventions
-----------
* Images are 2-D ``numpy`` arrays of shape ``(rows, cols)``.
* Vectorisation is row-major (C order): ``vec = image.ravel()``.
* All transforms are orthonormal, so ``Psi`` is an orthogonal matrix and
  ``Psi.T`` performs the forward DCT.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

__all__ = [
    "dct2",
    "idct2",
    "dct_basis_1d",
    "dct_basis_2d",
    "Dct2Basis",
    "SeparableDct2Basis",
]


def dct2(image: np.ndarray) -> np.ndarray:
    """Forward orthonormal 2-D DCT-II of ``image``.

    Parameters
    ----------
    image:
        2-D array of pixel values ``f(a, b)``.

    Returns
    -------
    numpy.ndarray
        Array of DCT coefficients ``F(u, v)`` with the same shape.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"dct2 expects a 2-D array, got shape {image.shape}")
    return _fft.dctn(image, type=2, norm="ortho")


def idct2(coefficients: np.ndarray) -> np.ndarray:
    """Inverse orthonormal 2-D DCT-II (i.e. the ``Psi @ x`` product)."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.ndim != 2:
        raise ValueError(
            f"idct2 expects a 2-D array, got shape {coefficients.shape}"
        )
    return _fft.idctn(coefficients, type=2, norm="ortho")


def dct_basis_1d(n: int) -> np.ndarray:
    """Return the ``n x n`` orthonormal DCT-II synthesis matrix.

    Column ``u`` holds the ``u``-th DCT basis vector, i.e. the matrix maps
    coefficients to samples: ``samples = C @ coeffs``.  Entries follow the
    paper's Eq. (5) scaling (Eq. 7 normalisation constants)::

        C[a, u] = alpha_u * cos(pi * (2 a + 1) * u / (2 n))

    with ``alpha_0 = sqrt(1/n)`` and ``alpha_u = sqrt(2/n)`` otherwise.
    """
    if n < 1:
        raise ValueError(f"basis size must be >= 1, got {n}")
    a = np.arange(n)[:, None]
    u = np.arange(n)[None, :]
    basis = np.cos(np.pi * (2 * a + 1) * u / (2 * n))
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return basis * scale[None, :]


def dct_basis_2d(rows: int, cols: int | None = None) -> np.ndarray:
    """Return the explicit ``N x N`` 2-D IDCT basis ``Psi`` of Eqs. (4)-(7).

    ``N = rows * cols``.  The matrix satisfies ``image.ravel() = Psi @
    coeffs.ravel()`` for row-major vectorisation, and is orthogonal:
    ``Psi.T @ Psi == I``.

    The paper writes the square case (``cols == rows == sqrt(N)``); we
    support rectangular arrays (e.g. the 100 x 33 ultrasound frames of
    Fig. 2) through the separable Kronecker construction
    ``Psi = C_rows (x) C_cols``.
    """
    if cols is None:
        cols = rows
    return np.kron(dct_basis_1d(rows), dct_basis_1d(cols))


class Dct2Basis:
    """Matrix-free orthonormal 2-D DCT basis for a fixed array shape.

    Acts like the explicit ``Psi`` of :func:`dct_basis_2d` but applies the
    separable fast transform (``O(N log N)`` instead of ``O(N^2)``), which
    is what the CS solvers use on every iteration.

    Parameters
    ----------
    shape:
        ``(rows, cols)`` of the sensor array.
    """

    orthonormal = True

    def __init__(self, shape: tuple[int, int]):
        rows, cols = shape
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid array shape {shape}")
        self.shape = (int(rows), int(cols))
        self.n = int(rows) * int(cols)

    @property
    def nbytes(self) -> int:
        """Memory held by the basis representation (FFT plans: none)."""
        return 0

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x``: map coefficient vector ``x`` to pixel vector ``y``."""
        coeffs = np.asarray(coeffs, dtype=float)
        return idct2(coeffs.reshape(self.shape)).ravel()

    def analyze(self, pixels: np.ndarray) -> np.ndarray:
        """``Psi.T @ y``: map pixel vector ``y`` to coefficient vector."""
        pixels = np.asarray(pixels, dtype=float)
        return dct2(pixels.reshape(self.shape)).ravel()

    def synthesize_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x`` over a ``(k, n)`` stack of coefficient vectors.

        One batched ``idctn`` over the trailing two axes runs the same
        per-slice transform as :meth:`synthesize` (pocketfft applies
        each 2-D slice independently), so each row of the result is
        bitwise the serial apply -- the property the operators' batched
        column gathers rely on.
        """
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1, *self.shape)
        pixels = _fft.idctn(coeffs, type=2, norm="ortho", axes=(-2, -1))
        return pixels.reshape(len(coeffs), self.n)

    def to_matrix(self) -> np.ndarray:
        """Materialise the explicit ``N x N`` basis (testing / small N)."""
        return dct_basis_2d(*self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dct2Basis(shape={self.shape})"


class SeparableDct2Basis:
    """Orthonormal 2-D DCT basis applied as two small dense matmuls.

    Numerically equivalent to :class:`Dct2Basis` (same orthonormal
    DCT-II, different rounding), but each apply is two ``rows x rows`` /
    ``cols x cols`` BLAS products instead of a ``scipy.fft.dctn``
    dispatch.  At e-skin frame sizes the dispatch overhead dominates the
    transform cost, so this is the faster representation -- but it
    scales as ``O(N^1.5)`` versus the FFT's ``O(N log N)``, hence the
    engine only selects it for small shapes.
    """

    orthonormal = True

    def __init__(self, shape: tuple[int, int]):
        rows, cols = shape
        if rows < 1 or cols < 1:
            raise ValueError(f"invalid array shape {shape}")
        self.shape = (int(rows), int(cols))
        self.n = int(rows) * int(cols)
        # Synthesis factors: image = C_r @ coeffs_2d @ C_c.T
        self._c_rows = dct_basis_1d(int(rows))
        self._c_cols = dct_basis_1d(int(cols))
        self._c_rows.setflags(write=False)
        self._c_cols.setflags(write=False)

    @property
    def nbytes(self) -> int:
        """Memory held by the two 1-D factor matrices."""
        return int(self._c_rows.nbytes + self._c_cols.nbytes)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x``: map coefficient vector ``x`` to pixel vector ``y``."""
        coeffs = np.asarray(coeffs, dtype=float).reshape(self.shape)
        return (self._c_rows @ coeffs @ self._c_cols.T).ravel()

    def analyze(self, pixels: np.ndarray) -> np.ndarray:
        """``Psi.T @ y``: map pixel vector ``y`` to coefficient vector."""
        pixels = np.asarray(pixels, dtype=float).reshape(self.shape)
        return (self._c_rows.T @ pixels @ self._c_cols).ravel()

    def synthesize_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """``Psi @ x`` over a ``(k, n)`` stack of coefficient vectors.

        ``np.matmul`` broadcasting runs the same two per-slice GEMMs as
        :meth:`synthesize` (same operand shapes, same evaluation order),
        so each row of the result is bitwise the serial apply -- the
        property the operators' batched column gathers rely on.
        """
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1, *self.shape)
        pixels = np.matmul(np.matmul(self._c_rows, coeffs), self._c_cols.T)
        return pixels.reshape(len(coeffs), self.n)

    def to_matrix(self) -> np.ndarray:
        """Materialise the explicit ``N x N`` basis (testing / small N)."""
        return np.kron(self._c_rows, self._c_cols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SeparableDct2Basis(shape={self.shape})"
