"""Experiment SCALE: decode cost vs array size (the "large area" axis).

The paper's title promises *large area*; the decoder's cost determines
how large.  This experiment measures wall-clock decode time, counted
operator applies and reconstruction quality across array sizes for

* the whole-frame FISTA solve (one program over all N unknowns), and
* the block-wise decode (independent 32x32 tiles -- the
  parallelisable path).

Per-iteration cost of the matrix-free solve is O(N log N); the
iteration count also grows slowly with N, so the whole-frame curve is
mildly super-linear while the block curve follows the tile count (and
is embarrassingly parallel in silicon).  The applies, counted under
:func:`repro.instrument.profiled`, are the same on every run and every
host, so they state that growth where the sub-second wall times
cannot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import instrument
from ..core.blocks import BlockProcessor
from ..core.metrics import rmse
from ..core.strategies import sample_and_reconstruct
from ..datasets import ThermalHandGenerator

__all__ = ["ScalePoint", "run_scaling"]


@dataclass
class ScalePoint:
    """Decode cost at one array size."""

    side: int
    n: int
    time_full_s: float
    time_block_s: float
    rmse_full: float
    rmse_block: float
    applies_full: int
    applies_block: int

    def row(self) -> str:
        """One table row."""
        return (
            f"{self.side:>4}x{self.side:<4} N={self.n:>6} "
            f"full: {self.time_full_s:6.2f} s / {self.applies_full:>5} "
            f"applies / {self.rmse_full:.4f}  "
            f"blocks: {self.time_block_s:6.2f} s / {self.applies_block:>5} "
            f"applies / {self.rmse_block:.4f}"
        )


def _counted(decode):
    """``decode()``'s result, wall time and ``operator.applies``.

    Collection is on for the call and left as it was; the count is the
    counter's growth, so a caller's own collection keeps its data.
    """
    applies = instrument.get_registry().counter("operator.applies")
    with instrument.profiled(reset_first=False):
        before = applies.value
        start = time.perf_counter()
        result = decode()
        wall_s = time.perf_counter() - start
    return result, wall_s, int(applies.value - before)


def run_scaling(
    sides: tuple[int, ...] = (32, 64, 128),
    sampling_fraction: float = 0.5,
    block_side: int = 32,
    seed: int = 0,
) -> list[ScalePoint]:
    """Measure whole-frame vs block decode across array sizes."""
    points = []
    for side in sides:
        if side % block_side:
            raise ValueError(f"side {side} not divisible by block {block_side}")
        generator = ThermalHandGenerator(shape=(side, side), seed=seed)
        frame = generator.frame()
        rng_full = np.random.default_rng([seed, side, 1])
        full, time_full, applies_full = _counted(
            lambda: sample_and_reconstruct(frame, sampling_fraction, rng_full)
        )
        processor = BlockProcessor(
            block_shape=(block_side, block_side),
            sampling_fraction=sampling_fraction,
        )
        rng_block = np.random.default_rng([seed, side, 2])
        blocked, time_block, applies_block = _counted(
            lambda: processor.reconstruct(frame, rng_block)
        )
        points.append(
            ScalePoint(
                side=side,
                n=side * side,
                time_full_s=time_full,
                time_block_s=time_block,
                rmse_full=rmse(frame, full),
                rmse_block=rmse(frame, blocked),
                applies_full=applies_full,
                applies_block=applies_block,
            )
        )
    return points
