"""Block-wise compressed sensing for large arrays.

The decode cost of the whole-frame solver grows super-linearly in N
(each FISTA iteration is O(N log N) and the iteration count grows too),
which matters for the "large area" part of the paper's title: a
1000 x 1000 e-skin should not solve one million-variable program per
frame.  The standard engineering answer is *tiling*: partition the
array into blocks, decode each block independently (embarrassingly
parallel in silicon), and blend overlapping block borders to hide
seams.

:class:`BlockProcessor` handles the tiling, the per-block measurement
bookkeeping and the overlap blending.  All tiles share one cached
operator template from :mod:`repro.core.engine` (tiles have one shape,
so the pre-engine per-tile basis/operator rebuild was N-fold waste),
and an optional ``strategy`` hook routes each tile through any strategy
object -- most usefully
:class:`~repro.resilience.runtime.ResilientStrategy`, which turns a
solver fault inside one tile into a degraded *tile* instead of a lost
frame.

The tiles decode in tile-grid (row-major origin) order in-process, one
``rng`` and one strategy object threaded from tile to tile, so a frame's
reconstruction is a fixed function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .engine import DecodeContext, get_engine

__all__ = ["BlockProcessor"]


@dataclass
class BlockProcessor:
    """Tile-and-decode for frames larger than one solver call should be.

    Parameters
    ----------
    block_shape:
        Tile size.  Frames at least as large as one block in each
        dimension are tileable: the grid strides by
        ``block - overlap`` and a short final row/column of tiles is
        shifted inward so every pixel is covered (ragged edges decode
        as full-size tiles with extra overlap, blended like any other
        overlap).
    overlap:
        Pixels of overlap between adjacent tiles (blended linearly);
        0 = disjoint tiles.
    solver:
        Decoder name for the per-block solve.
    sampling_fraction:
        M/N within each block.
    strategy:
        Optional per-tile reconstruction strategy (any object with
        ``reconstruct(tile, rng, **kwargs)``, e.g. a strategy from
        :mod:`repro.core.strategies` or a
        :class:`~repro.resilience.runtime.ResilientStrategy` wrapper
        for per-block graceful degradation).  When set, the strategy's
        own sampling/solver configuration governs each tile and
        ``solver`` / ``sampling_fraction`` / ``solver_options`` here
        are ignored; per-tile exclusion masks are forwarded as
        ``error_mask``.

    Attributes
    ----------
    last_outcomes:
        After a ``reconstruct`` call with a strategy that exposes
        ``last_outcome`` (the resilient wrapper does), the list of
        ``((row0, col0), DecodeOutcome)`` pairs per tile, in tile-grid
        (row-major origin) order; ``None`` otherwise.
    """

    block_shape: tuple[int, int] = (32, 32)
    overlap: int = 0
    solver: str = "fista"
    sampling_fraction: float = 0.5
    solver_options: dict | None = None
    strategy: object | None = None
    last_outcomes: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        rows, cols = self.block_shape
        if rows < 4 or cols < 4:
            raise ValueError("blocks must be at least 4x4")
        if self.overlap < 0 or self.overlap >= min(rows, cols):
            raise ValueError("overlap must be in [0, min(block dims))")
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError("sampling_fraction must be in (0, 1]")
        if self.strategy is not None and not hasattr(
            self.strategy, "reconstruct"
        ):
            raise TypeError(
                f"{type(self.strategy).__name__} has no reconstruct(); "
                "pass a strategy object or None"
            )

    @staticmethod
    def _axis_origins(size: int, block: int, step: int) -> list[int]:
        """Tile origins along one axis, shifting a ragged tail inward."""
        origins = list(range(0, size - block + 1, step))
        if origins[-1] + block < size:
            origins.append(size - block)
        return origins

    def _tiles(self, frame_shape: tuple[int, int]) -> list[tuple[int, int]]:
        rows, cols = frame_shape
        br, bc = self.block_shape
        if rows < br or cols < bc:
            raise ValueError(
                f"frame {frame_shape} smaller than one block "
                f"{self.block_shape}; shrink the blocks"
            )
        step_r, step_c = br - self.overlap, bc - self.overlap
        return [
            (r0, c0)
            for r0 in self._axis_origins(rows, br, step_r)
            for c0 in self._axis_origins(cols, bc, step_c)
        ]

    def _block_weight(self) -> np.ndarray:
        """Blending weight: linear ramps over the overlap margins."""
        br, bc = self.block_shape
        if self.overlap == 0:
            return np.ones(self.block_shape)
        ramp_r = np.minimum(
            np.minimum(np.arange(br) + 1, br - np.arange(br)),
            self.overlap + 1,
        ) / (self.overlap + 1)
        ramp_c = np.minimum(
            np.minimum(np.arange(bc) + 1, bc - np.arange(bc)),
            self.overlap + 1,
        ) / (self.overlap + 1)
        return np.outer(ramp_r, ramp_c)

    def _decode_tile(
        self,
        plan: DecodeContext,
        tile: np.ndarray,
        local_mask: np.ndarray | None,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, object | None]:
        """Decode one tile; returns ``(reconstruction, outcome or None)``."""
        if self.strategy is None:
            if local_mask is not None and bool(local_mask.all()):
                # Every pixel excluded: nothing measurable, decode to
                # zeros.
                return np.zeros(plan.shape), None
            if local_mask is not None:
                plan = replace(plan, exclude_mask=local_mask)
            return get_engine().decode(tile, plan, rng), None
        kwargs = {} if local_mask is None else {"error_mask": local_mask}
        recon = self.strategy.reconstruct(tile, rng, **kwargs)
        return np.asarray(recon, dtype=float), getattr(
            self.strategy, "last_outcome", None
        )

    def reconstruct(
        self,
        frame: np.ndarray,
        rng: np.random.Generator,
        exclude_mask: np.ndarray | None = None,
        noise_sigma: float = 0.0,
    ) -> np.ndarray:
        """Sample + decode every tile; returns the blended frame.

        ``exclude_mask`` marks pixels (e.g. known defects) that no tile
        may sample.  ``noise_sigma`` applies to the engine path; when a
        ``strategy`` is set its own noise configuration governs.  The
        tiles decode in grid order from ``rng`` directly.
        """
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError(f"expected a 2-D frame, got {frame.shape}")
        if exclude_mask is not None:
            exclude_mask = np.asarray(exclude_mask, dtype=bool)
            if exclude_mask.shape != frame.shape:
                raise ValueError("exclude_mask shape must match frame")
        br, bc = self.block_shape
        plan = DecodeContext(
            shape=self.block_shape,
            sampling_fraction=self.sampling_fraction,
            solver=self.solver,
            solver_options=self.solver_options or {},
            noise_sigma=noise_sigma,
        )
        weight = self._block_weight()
        accumulator = np.zeros_like(frame)
        weight_sum = np.zeros_like(frame)
        outcomes = []
        for r0, c0 in self._tiles(frame.shape):
            window = (slice(r0, r0 + br), slice(c0, c0 + bc))
            mask = None if exclude_mask is None else exclude_mask[window]
            recon, outcome = self._decode_tile(plan, frame[window], mask, rng)
            if outcome is not None:
                outcomes.append(((r0, c0), outcome))
            accumulator[window] += recon * weight
            weight_sum[window] += weight
        self.last_outcomes = None if self.strategy is None else outcomes
        if np.any(weight_sum == 0):
            raise RuntimeError("tiling left uncovered pixels")
        return accumulator / weight_sum

    def num_blocks(self, frame_shape: tuple[int, int]) -> int:
        """Tile count for a frame shape."""
        return len(self._tiles(frame_shape))
