"""Pluggable measurement families: the ``MeasurementModel`` abstraction.

The paper's encoder is one point in measurement space -- ``Phi_M`` as
``M`` random identity rows (Sec. 3.1, Eq. 8), i.e. *scan out a random
pixel subset*.  Related work reads the same hardware differently:
single-pixel-style summed readout with dense Bernoulli / Hadamard codes
(Slepyan et al., arXiv 2511.16898) and on-sensor block-wise acquisition
(arXiv 1709.07041).  This module turns "row sampling with exceptions"
into "family-parameterised with row sampling as one instance".

The work splits in two:

* a :class:`MeasurementModel` *draws* codes.  A family answers
  :meth:`~MeasurementModel.budget` (how many measurements ``m`` are
  possible under an exclusion set: row sampling clamps to the
  surviving pixels, dense codes keep ``m`` and zero excluded columns)
  and :meth:`~MeasurementModel.draw` (the per-frame code, the *only*
  RNG consumer on the sampling side).  The hardware expansion --
  :meth:`~MeasurementModel.control_words` (per-scan-cycle row-driver
  words, Fig. 4) and :meth:`~MeasurementModel.combine` (scan readings
  to the measurement vector) -- is generic over any carrier;
* the *code carrier* a draw returns owns every apply.  Each carrier --
  :class:`~repro.core.sensing.RowSamplingMatrix`,
  :class:`DenseCodeMatrix` and through it :class:`BlockSamplingMatrix`
  -- answers one protocol: ``m``, ``n``, ``apply``, ``adjoint``,
  ``apply_batch`` (row ``i`` bitwise ``apply``), ``support_mask()``,
  ``nbytes``, ``to_matrix()`` and ``norm_bound`` (an upper bound on
  ``||Phi||_2``, ``None`` when unknown).
  :meth:`~repro.core.engine.DecodeEngine.operator` binds a carrier to
  a cached basis without asking its kind.

Capability flags (``supports_exclusions`` / ``supports_weights``) let
callers degrade explicitly instead of silently:
:meth:`DecodeContext.with_exclusions
<repro.core.engine.DecodeContext.with_exclusions>` and the resilience
layer consult them.

Families are registered under a string name (the ``measurement=`` axis
of :class:`~repro.core.engine.DecodeContext`) through
:func:`register_measurement`, mirroring
:func:`~repro.core.engine.register_basis`.  Three ship by default:

* ``"row_sampling"`` -- the paper's encoder (the control arm);
* ``"dense_codes"`` -- dense ``+-1/sqrt(m)`` Bernoulli summed readout
  (:class:`DenseCodesModel` also supports Hadamard and Gaussian codes);
* ``"block_sampling"`` -- block-diagonal codes: each measurement sums
  one spatial tile of the array, the on-sensor acquisition regime.

This module (together with :mod:`repro.core.sensing`) is the only
sanctioned construction site for measurement matrices; CI enforces the
seam with ``tools/check_engine_seam.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sensing import (
    RowSamplingMatrix,
    _random_signs,
    _zero_excluded_columns,
    bernoulli_matrix,
    gaussian_matrix,
    hadamard_matrix,
    weighted_sample_indices,
)

__all__ = [
    "BlockSamplingMatrix",
    "BlockSamplingModel",
    "DenseCodeMatrix",
    "DenseCodesModel",
    "MeasurementModel",
    "RowSamplingModel",
    "get_measurement",
    "measurement_names",
    "register_measurement",
    "resolve_measurement_for",
]


# --------------------------------------------------------------------------
# Code carriers: what a family's ``draw`` hands back.
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DenseCodeMatrix:
    """A dense measurement code: an explicit ``(m, n)`` matrix ``Phi``.

    The carrier for summed-readout families (every measurement is a
    weighted sum over many pixels).  The carrier owns its matrix and
    stores it read-only: an array that owns its memory (a family's
    fresh draw) is frozen in place, anything else (a view, whose base
    the caller may still write) is copied first.  ``code`` records
    which ensemble drew it (``"bernoulli"``, ``"hadamard"``,
    ``"gaussian"``, ``"block"``).
    """

    matrix: np.ndarray = field(repr=False)
    code: str = "bernoulli"

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(
                f"dense code must be a 2-D matrix, got shape {matrix.shape}"
            )
        matrix = np.ascontiguousarray(matrix)
        if matrix.base is not None:
            matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def m(self) -> int:
        """Number of measurements (matrix rows)."""
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        """Number of pixels (matrix columns)."""
        return self.matrix.shape[1]

    def apply(self, y: np.ndarray) -> np.ndarray:
        """``Phi @ y``: one summed readout per measurement row."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.n:
            raise ValueError(
                f"vector length {y.shape[0]} does not match n={self.n}"
            )
        return self.matrix @ y

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """``Phi.T @ v``: back-project measurements onto the pixels."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.m:
            raise ValueError(
                f"vector length {v.shape[0]} does not match m={self.m}"
            )
        return self.matrix.T @ v

    def apply_batch(self, y: np.ndarray) -> np.ndarray:
        """``Phi @ y_i`` for every row of a ``(k, n)`` stack.

        Row ``i`` is bitwise :meth:`apply` of ``y[i]``: ``np.matmul``
        runs the identical ``(m, n) @ (n, 1)`` product per slice.
        """
        y = np.asarray(y, dtype=float)
        if y.ndim != 2 or y.shape[1] != self.n:
            raise ValueError(
                f"expected a (k, {self.n}) pixel stack, got {y.shape}"
            )
        return np.matmul(self.matrix, y[:, :, None])[..., 0]

    def support_mask(self) -> np.ndarray:
        """Boolean length-``n`` mask of the pixels with a nonzero weight."""
        return np.any(self.matrix != 0.0, axis=0)

    @property
    def nbytes(self) -> int:
        """Bytes held by the carrier: the dense matrix."""
        return int(self.matrix.nbytes)

    @property
    def norm_bound(self) -> None:
        """Upper bound on ``||Phi||_2``: unknown (``None``) for a dense code.

        The operator then carries no norm hint: FISTA backtracks its
        step, and ISTA and IHT estimate ``||A||_2`` by power iteration.
        """
        return None

    def to_matrix(self) -> np.ndarray:
        """A writable copy of the ``(m, n)`` matrix."""
        return self.matrix.copy()


@dataclass(frozen=True, eq=False)
class BlockSamplingMatrix(DenseCodeMatrix):
    """A block-diagonal dense code: each measurement sums one tile.

    ``block_shape`` records the tile size the generating model used;
    the matrix itself is an ordinary dense code whose rows have support
    confined to single spatial blocks (on-sensor acquisition,
    arXiv 1709.07041).
    """

    block_shape: tuple = (8, 8)


# --------------------------------------------------------------------------
# The model protocol.
# --------------------------------------------------------------------------


class MeasurementModel:
    """One measurement family: code generation plus hardware expansion.

    Subclasses set the class attributes and implement :meth:`draw`;
    the carrier it returns owns every apply, and the control-word and
    combine expansions are generic over any carrier.

    Attributes
    ----------
    name:
        Registry name (the ``measurement=`` plan axis).
    phi_type:
        Carrier class :meth:`draw` returns; used by
        :func:`resolve_measurement_for` to recover the model from a
        bare carrier.
    supports_exclusions:
        Whether :meth:`draw` honours an exclusion index set.
    supports_weights:
        Whether :meth:`draw` honours per-pixel sampling weights.
    """

    name: str = "abstract"
    phi_type: type | None = None
    supports_exclusions: bool = True
    supports_weights: bool = False

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _pixel_count(shape) -> int:
        if isinstance(shape, (int, np.integer)):
            return int(shape)
        return int(np.prod([int(s) for s in shape]))

    def _reject_weights(self, weights) -> None:
        if weights is not None and not self.supports_weights:
            raise ValueError(
                f"measurement family {self.name!r} does not support "
                "per-pixel sampling weights; use row_sampling"
            )

    # -- family-specific (subclass responsibility) -------------------------
    def budget(self, n: int, m: int, exclude: np.ndarray | None = None) -> int:
        """Measurement count actually possible under the exclusion set.

        Every family clamps ``m`` to the pixels the exclusion set
        leaves: more measurements than live pixels would make the code
        rank-deficient.  ``ValueError`` when no pixel is left to sample,
        and for any exclusion on a family that cannot honour one.
        """
        if exclude is None or len(exclude) == 0:
            return m
        if not self.supports_exclusions:
            raise ValueError(
                f"measurement family {self.name!r} does not support "
                "exclusion masks"
            )
        m = min(m, n - len(exclude))
        if m < 1:
            raise ValueError(
                f"exclusion mask leaves no pixels to sample "
                f"({len(exclude)} of {n} pixels excluded); relax the "
                "mask or fall back to unmasked sampling"
            )
        return m

    def draw(
        self,
        shape,
        m: int,
        rng: np.random.Generator,
        exclude: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ):
        """Draw one per-frame code (the only sampling-side RNG consumer)."""
        raise NotImplementedError

    # -- generic hardware expansion ----------------------------------------
    def control_words(
        self, phi, array_shape: tuple[int, int]
    ) -> list[np.ndarray]:
        """Per-scan-cycle row-driver control words (Fig. 4).

        Word ``c`` asserts the rows whose pixels in column ``c``
        contribute to at least one measurement (``phi.support_mask()``
        split into the array's columns).  For row sampling each column
        of ``Phi_M`` holds at most one '1', so each pixel is read at
        most once.
        """
        rows, cols = array_shape
        n = int(phi.n)
        if rows * cols != n:
            raise ValueError(
                f"array shape {array_shape} does not hold n={n} pixels"
            )
        grid = phi.support_mask().reshape(rows, cols)
        return [grid[:, c].copy() for c in range(cols)]

    def combine(self, phi, acquired: dict) -> tuple[np.ndarray, int]:
        """Measurement vector from per-pixel scan readings.

        ``acquired`` maps flat pixel index to the reading the scan
        hardware produced; pixels the code needs but the scan never
        delivered count as ``missing`` and contribute 0 (a dropped-read
        fault).  Returns ``(measurements, missing)``.
        """
        support = np.flatnonzero(phi.support_mask())
        missing = sum(1 for i in support if int(i) not in acquired)
        pixels = np.zeros(int(phi.n), dtype=float)
        for i in support:
            pixels[i] = acquired.get(int(i), 0.0)
        return np.asarray(phi.apply(pixels), dtype=float), missing


# --------------------------------------------------------------------------
# Family: row_sampling (the paper's encoder -- the control arm).
# --------------------------------------------------------------------------


class RowSamplingModel(MeasurementModel):
    """``Phi_M`` as ``M`` random identity rows (paper Sec. 3.1, Eq. 8).

    Bit-identical to the pre-refactor decode path: the RNG consumption
    of :meth:`draw` and the budget clamp (and its error message)
    reproduce the engine's previous hard-wired recipe exactly --
    regression tests pin this.
    """

    name = "row_sampling"
    phi_type = RowSamplingMatrix
    supports_exclusions = True
    supports_weights = True

    def draw(
        self,
        shape,
        m: int,
        rng: np.random.Generator,
        exclude: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> RowSamplingMatrix:
        """``m`` distinct pixels, uniformly or in proportion to ``weights``.

        Excluded pixels are never drawn.
        """
        n = self._pixel_count(shape)
        if weights is not None:
            indices = weighted_sample_indices(
                n,
                m,
                np.asarray(weights, dtype=float).ravel(),
                rng,
                exclude=exclude,
            )
            return RowSamplingMatrix(n=n, indices=indices)
        return RowSamplingMatrix.random(n, m, rng, exclude=exclude)

    def from_indices(self, n: int, indices: np.ndarray) -> RowSamplingMatrix:
        """Carrier from a precomputed index set (video voxel stacking)."""
        return RowSamplingMatrix(n=n, indices=indices)


# --------------------------------------------------------------------------
# Dense summed-readout families.
# --------------------------------------------------------------------------


class DenseCodesModel(MeasurementModel):
    """Dense summed-readout codes (single-pixel style, arXiv 2511.16898).

    Every measurement is a random weighted sum over the whole array;
    the ``code`` parameter selects the ensemble -- ``"bernoulli"``
    (default, ``+-1/sqrt(m)``), ``"hadamard"`` (randomised partial
    Sylvester-Hadamard) or ``"gaussian"`` (``N(0, 1/m)``, the classic
    theory baseline).  Exclusion masks zero the defective pixels'
    columns; the RNG consumption is mask-independent.
    """

    name = "dense_codes"
    phi_type = DenseCodeMatrix

    _CODE_FACTORIES = {
        "bernoulli": bernoulli_matrix,
        "hadamard": hadamard_matrix,
        "gaussian": gaussian_matrix,
    }

    def __init__(self, code: str = "bernoulli"):
        if code not in self._CODE_FACTORIES:
            raise ValueError(
                f"unknown dense code ensemble {code!r}; supported: "
                f"{tuple(sorted(self._CODE_FACTORIES))}"
            )
        self.code = code

    def draw(
        self,
        shape,
        m: int,
        rng: np.random.Generator,
        exclude: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> DenseCodeMatrix:
        """One ``(m, n)`` code from the model's ensemble.

        Excluded pixels' columns are zeroed after the draw.
        """
        self._reject_weights(weights)
        n = self._pixel_count(shape)
        matrix = self._CODE_FACTORIES[self.code](m, n, rng, exclude=exclude)
        return DenseCodeMatrix(matrix=matrix, code=self.code)


class BlockSamplingModel(MeasurementModel):
    """Block-diagonal codes: on-sensor block acquisition (arXiv 1709.07041).

    The frame is tiled into ``block_size x block_size`` blocks (partial
    blocks at the edges); the ``m`` measurements are distributed
    round-robin over the blocks in raster order, and each measurement
    is a random ``+-1/sqrt(m_b)`` sum over its own block's pixels only.
    Locality keeps the readout wiring per-tile -- the acquisition
    regime of block-based CS hardware.  Exclusions zero defective
    columns after the draw (mask-independent RNG, uniform with the
    other families).
    """

    name = "block_sampling"
    phi_type = BlockSamplingMatrix

    def __init__(self, block_size: int = 8):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)

    def draw(
        self,
        shape,
        m: int,
        rng: np.random.Generator,
        exclude: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> BlockSamplingMatrix:
        """One block-diagonal code: ``m`` tile sums spread over the tiles.

        Excluded pixels' columns are zeroed after the draw.
        """
        self._reject_weights(weights)
        if isinstance(shape, (int, np.integer)) or len(shape) != 2:
            raise ValueError(
                "block_sampling requires a 2-D frame shape, got "
                f"{shape!r}; use dense_codes for flat pixel vectors"
            )
        rows, cols = int(shape[0]), int(shape[1])
        n = rows * cols
        if m < 1:
            raise ValueError(f"cannot take {m} measurements")
        b = self.block_size
        blocks = []
        for r0 in range(0, rows, b):
            for c0 in range(0, cols, b):
                rr = np.arange(r0, min(r0 + b, rows))
                cc = np.arange(c0, min(c0 + b, cols))
                blocks.append((rr[:, None] * cols + cc[None, :]).ravel())
        base, rem = divmod(m, len(blocks))
        matrix = np.zeros((m, n))
        row = 0
        for index, pixels in enumerate(blocks):
            m_b = base + (1 if index < rem else 0)
            if m_b == 0:
                continue
            matrix[row : row + m_b, pixels] = _random_signs(
                rng, (m_b, len(pixels)), 1.0 / np.sqrt(m_b)
            )
            row += m_b
        matrix = _zero_excluded_columns(matrix, n, exclude)
        return BlockSamplingMatrix(
            matrix=matrix, code="block", block_shape=(b, b)
        )


# --------------------------------------------------------------------------
# Registry (mirrors ``register_basis``).
# --------------------------------------------------------------------------

_MEASUREMENT_MODELS: dict[str, MeasurementModel] = {}


def register_measurement(name: str, model) -> None:
    """Register a measurement family under ``name``.

    ``model`` is a :class:`MeasurementModel` instance (models are
    stateless singletons) or a zero-argument factory producing one.
    Registering an existing name replaces it; engine cache entries are
    keyed on the *name*, so call
    :meth:`~repro.core.engine.OperatorCache.clear` on engines that may
    hold entries built for the old family.
    """
    if not name or not isinstance(name, str):
        raise ValueError(
            f"measurement name must be a non-empty string, got {name!r}"
        )
    if callable(model) and not isinstance(model, MeasurementModel):
        model = model()
    if not isinstance(model, MeasurementModel):
        raise TypeError(
            f"expected a MeasurementModel, got {type(model).__name__}"
        )
    model.name = name  # the registry name is authoritative for cache keys
    _MEASUREMENT_MODELS[name] = model


def get_measurement(name: str) -> MeasurementModel:
    """The registered model for ``name`` (KeyError with the vocabulary)."""
    model = _MEASUREMENT_MODELS.get(name)
    if model is None:
        raise KeyError(
            f"unknown measurement family {name!r}; registered: "
            f"{measurement_names()}"
        )
    return model


def measurement_names() -> tuple[str, ...]:
    """The registered family names (plan-axis vocabulary)."""
    return tuple(sorted(_MEASUREMENT_MODELS))


def resolve_measurement_for(phi) -> MeasurementModel:
    """Recover the family from a bare code carrier.

    Exact carrier type wins over subclass matches (a
    :class:`BlockSamplingMatrix` *is a* :class:`DenseCodeMatrix`, but
    belongs to ``block_sampling``).
    """
    for model in _MEASUREMENT_MODELS.values():
        if model.phi_type is not None and type(phi) is model.phi_type:
            return model
    for model in _MEASUREMENT_MODELS.values():
        if model.phi_type is not None and isinstance(phi, model.phi_type):
            return model
    raise TypeError(
        f"no registered measurement family handles "
        f"{type(phi).__name__} carriers"
    )


register_measurement("row_sampling", RowSamplingModel())
register_measurement("dense_codes", DenseCodesModel())
register_measurement("block_sampling", BlockSamplingModel())
