"""Sensing (measurement) matrices for the compressed-sensing encoder.

The paper's encoder (Sec. 3.1, Eq. 8 and Fig. 4) uses a sampling matrix
``Phi_M`` consisting of ``M`` randomly chosen rows of the ``N x N``
identity matrix: the flexible-electronics side simply *scans out a random
subset of pixels*.  This module provides that matrix (in an efficient
index-based representation, answering the code-carrier protocol of
:mod:`repro.core.operators`) and the classic dense baselines (Gaussian /
Bernoulli / Hadamard) the dense code families draw.  The expansion of
``Phi_M`` into per-column driver control words for the active-matrix
scan schedule of Fig. 4 is
:meth:`~repro.core.measurement.MeasurementModel.control_words`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RowSamplingMatrix",
    "gaussian_matrix",
    "bernoulli_matrix",
    "hadamard_matrix",
    "sample_indices",
    "weighted_sample_indices",
]


def _zero_excluded_columns(
    matrix: np.ndarray, n: int, exclude: np.ndarray | None
) -> np.ndarray:
    """Zero the columns of excluded pixels (defect-aware dense codes).

    Dense code families honour an exclusion mask by never *weighting*
    an excluded pixel: its column is zeroed after the full matrix is
    drawn, so the RNG consumption is independent of the mask (two runs
    with and without exclusions share every other entry bit for bit)
    and the excluded pixel contributes nothing to any measurement --
    the dense analogue of :func:`sample_indices` never picking it.
    """
    if exclude is None or len(exclude) == 0:
        return matrix
    exclude = np.asarray(exclude, dtype=int)
    if len(exclude) and (exclude.min() < 0 or exclude.max() >= n):
        raise ValueError("excluded indices out of range")
    if len(np.unique(exclude)) >= n:
        raise ValueError(
            f"exclusion set covers all {n} pixels; nothing left to measure"
        )
    matrix[:, exclude] = 0.0
    return matrix


def sample_indices(
    n: int,
    m: int,
    rng: np.random.Generator,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Choose ``m`` distinct pixel indices out of ``n`` uniformly at random.

    Parameters
    ----------
    n:
        Total number of sensors (pixels).
    m:
        Number of measurements to take.
    rng:
        Source of randomness.
    exclude:
        Optional array of pixel indices that must not be sampled (e.g.
        pixels identified as defective by testing, Sec. 4.2).

    Returns
    -------
    numpy.ndarray
        Sorted integer array of ``m`` sampled indices.
    """
    if m < 0:
        raise ValueError(f"cannot take {m} measurements")
    candidates = np.arange(n)
    if exclude is not None and len(exclude) > 0:
        mask = np.ones(n, dtype=bool)
        mask[np.asarray(exclude, dtype=int)] = False
        candidates = candidates[mask]
    if m > len(candidates):
        raise ValueError(
            f"requested {m} measurements but only {len(candidates)} "
            "non-excluded pixels are available"
        )
    chosen = rng.choice(candidates, size=m, replace=False)
    return np.sort(chosen)


def weighted_sample_indices(
    n: int,
    m: int,
    weights: np.ndarray,
    rng: np.random.Generator,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Sample ``m`` distinct indices with probability proportional to
    ``weights`` (an informative-pixel prior; see
    :class:`~repro.core.strategies.WeightedSamplingStrategy`).

    Excluded indices get zero probability.  Weights must be
    non-negative with at least ``m`` strictly positive entries after
    exclusion.
    """
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape != (n,):
        raise ValueError(f"weights must have length {n}, got {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    probabilities = weights.copy()
    if exclude is not None and len(exclude) > 0:
        probabilities[np.asarray(exclude, dtype=int)] = 0.0
    positive = np.count_nonzero(probabilities)
    if m > positive:
        raise ValueError(
            f"requested {m} samples but only {positive} pixels have "
            "positive weight"
        )
    probabilities = probabilities / probabilities.sum()
    chosen = rng.choice(n, size=m, replace=False, p=probabilities)
    return np.sort(chosen)


@dataclass(frozen=True)
class RowSamplingMatrix:
    """``Phi_M``: ``M`` randomly sampled rows of the ``N x N`` identity.

    Stored as the sorted index set of sampled pixels rather than a dense
    matrix, because applying it is just fancy indexing.

    Attributes
    ----------
    n:
        Number of columns (total sensors).
    indices:
        Sorted array of the ``M`` sampled pixel indices.
    """

    n: int
    indices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=int)
        if idx.ndim != 1:
            raise ValueError("indices must be a 1-D integer array")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("sampled row indices must be distinct")
        if len(idx) > 0 and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("sampled indices out of range")
        object.__setattr__(self, "indices", np.sort(idx))

    @classmethod
    def random(
        cls,
        n: int,
        m: int,
        rng: np.random.Generator,
        exclude: np.ndarray | None = None,
    ) -> "RowSamplingMatrix":
        """Draw a random ``Phi_M`` avoiding the ``exclude`` pixel set."""
        return cls(n=n, indices=sample_indices(n, m, rng, exclude=exclude))

    @property
    def m(self) -> int:
        """Number of measurements (sampled rows)."""
        return len(self.indices)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """``Phi_M @ y``: select the sampled entries of the pixel vector."""
        y = np.asarray(y)
        if y.shape[0] != self.n:
            raise ValueError(
                f"vector length {y.shape[0]} does not match n={self.n}"
            )
        return y[self.indices]

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """``Phi_M.T @ v``: scatter measurements back into an N-vector."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.m:
            raise ValueError(
                f"vector length {v.shape[0]} does not match m={self.m}"
            )
        out = np.zeros(self.n, dtype=float)
        out[self.indices] = v
        return out

    def apply_batch(self, y: np.ndarray) -> np.ndarray:
        """``Phi_M @ y_i`` for every row of a ``(k, N)`` stack.

        Row ``i`` is bitwise :meth:`apply` of ``y[i]`` (the same gather).
        """
        y = np.asarray(y)
        if y.ndim != 2 or y.shape[1] != self.n:
            raise ValueError(
                f"expected a (k, {self.n}) pixel stack, got {y.shape}"
            )
        return y[:, self.indices]

    def support_mask(self) -> np.ndarray:
        """Boolean length-``N`` mask of the sampled pixels."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.indices] = True
        return mask

    @property
    def nbytes(self) -> int:
        """Bytes held by the carrier: the index vector."""
        return int(self.indices.nbytes)

    @property
    def norm_bound(self) -> float:
        """Upper bound on ``||Phi_M||_2``: distinct identity rows give 1."""
        return 1.0

    def to_matrix(self) -> np.ndarray:
        """Materialise the dense ``M x N`` 0/1 matrix (testing / small N)."""
        phi = np.zeros((self.m, self.n))
        phi[np.arange(self.m), self.indices] = 1.0
        return phi


def gaussian_matrix(
    m: int,
    n: int,
    rng: np.random.Generator,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Dense i.i.d. Gaussian sensing matrix with unit-norm expected columns.

    Classic CS baseline used by the sensing-matrix ablation; entries are
    ``N(0, 1/m)`` so that column norms concentrate around 1.  Excluded
    pixel columns (known defects, Sec. 4.2) are zeroed after the draw,
    so the mask changes no other entry.
    """
    if m < 1 or n < 1:
        raise ValueError(f"invalid matrix shape ({m}, {n})")
    matrix = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    return _zero_excluded_columns(matrix, n, exclude)


def bernoulli_matrix(
    m: int,
    n: int,
    rng: np.random.Generator,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Dense random +-1/sqrt(m) Bernoulli sensing matrix (summed readout).

    The single-pixel-style code family: every measurement sums half the
    array with random signs.  Excluded pixel columns are zeroed after
    the draw (defect-aware sampling, uniform with
    :func:`sample_indices`).
    """
    if m < 1 or n < 1:
        raise ValueError(f"invalid matrix shape ({m}, {n})")
    signs = rng.choice([-1.0, 1.0], size=(m, n))
    return _zero_excluded_columns(signs / np.sqrt(m), n, exclude)


def hadamard_matrix(
    m: int,
    n: int,
    rng: np.random.Generator,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Randomised partial Hadamard sensing matrix (structured dense codes).

    ``m`` rows are drawn without replacement from the order-``p``
    Sylvester-Hadamard matrix (``p`` the next power of two at or above
    ``n``), the columns get random sign flips (breaking coherence with
    the DC row), and the result is truncated to ``n`` columns and
    scaled by ``1/sqrt(m)``.  Excluded pixel columns are zeroed after
    the draw, exactly like the other dense families.
    """
    if m < 1 or n < 1:
        raise ValueError(f"invalid matrix shape ({m}, {n})")
    from scipy.linalg import hadamard as _hadamard

    p = 1 << max(0, int(np.ceil(np.log2(n))))
    if m > p:
        raise ValueError(
            f"cannot draw {m} distinct Hadamard rows of order {p}"
        )
    rows = rng.choice(p, size=m, replace=False)
    signs = rng.choice([-1.0, 1.0], size=n)
    matrix = _hadamard(p)[rows][:, :n] * signs / np.sqrt(m)
    return _zero_excluded_columns(matrix, n, exclude)
