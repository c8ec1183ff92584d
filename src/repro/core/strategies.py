"""Robust sampling strategies built on top of the CS decoder.

Sec. 4.2 and 4.3 of the paper discuss three regimes:

* **Oracle exclusion** -- permanent defects are identified by production
  testing, so the encoder simply never samples them ("we exclude all
  0/1s and perform random sampling").
* **Resampling** -- without a defect map, the silicon side performs
  several independent sample/reconstruct rounds and takes the per-pixel
  median (or mean) of the reconstructions; the median is robust to the
  rounds that happened to sample corrupted pixels.
* **RPCA exclusion** -- outliers are first detected by robust PCA over a
  stack of frames, excluded, and then a single sample/reconstruct round
  runs on the surviving pixels.

Each strategy consumes a *corrupted* frame (or frame stack) and returns
reconstructed frames; the pipeline handles normalisation, injection and
metric evaluation.  All sampling + solving goes through the shared
:mod:`repro.core.engine` (one :class:`~repro.core.engine.DecodeContext`
plan per configuration, cached operators per shape), so repeated
decodes of the same shape -- the resampling rounds here, streams
elsewhere -- pay operator construction exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import instrument
from .engine import (
    DecodeContext,
    DecodeResult,
    get_engine,
    validate_decode_inputs,
)
from .rpca import detect_outliers

__all__ = [
    "DecodeResult",
    "sample_and_reconstruct",
    "validate_decode_inputs",
    "NaiveStrategy",
    "OracleExclusionStrategy",
    "ResamplingStrategy",
    "RpcaExclusionStrategy",
    "WeightedSamplingStrategy",
]


def sample_and_reconstruct(
    frame: np.ndarray,
    sampling_fraction: float,
    rng: np.random.Generator,
    solver: str = "fista",
    exclude_mask: np.ndarray | None = None,
    noise_sigma: float = 0.0,
    solver_options: dict | None = None,
    full_output: bool = False,
    measurement: str = "row_sampling",
) -> np.ndarray | DecodeResult:
    """One random-sampling + L1-reconstruction round (the core decode).

    Thin convenience wrapper: builds a one-shot
    :class:`~repro.core.engine.DecodeContext` and runs it through the
    shared :class:`~repro.core.engine.DecodeEngine`.  Streaming callers
    should build the plan once and call the engine directly.

    Parameters
    ----------
    frame:
        2-D sensor frame (possibly corrupted), normalised units.
    sampling_fraction:
        ``M / N``: fraction of the array to measure (before exclusions).
    rng:
        Randomness for ``Phi_M`` and measurement noise.
    solver:
        Decoder name from :func:`repro.core.solvers.solver_names`.
    exclude_mask:
        Boolean mask of pixels that must not be sampled (known defects).
    noise_sigma:
        Std-dev of additive measurement noise ``eps``.
    solver_options:
        Extra keyword arguments for the solver.
    full_output:
        Return a :class:`DecodeResult` (reconstruction + solver
        diagnostics + measurement vector) instead of just the frame;
        used by :mod:`repro.resilience` for health validation.
    measurement:
        Registered measurement family drawing the per-frame code
        (``"row_sampling"`` default; see
        :func:`repro.core.measurement.register_measurement`).

    Returns
    -------
    numpy.ndarray or DecodeResult
        Reconstructed frame with the same shape as ``frame`` (the
        default), or the full :class:`DecodeResult`.
    """
    frame = validate_decode_inputs(frame, sampling_fraction, noise_sigma)
    plan = DecodeContext(
        shape=frame.shape,
        sampling_fraction=sampling_fraction,
        solver=solver,
        solver_options=solver_options or {},
        noise_sigma=noise_sigma,
        exclude_mask=exclude_mask,
        measurement=measurement,
    )
    return get_engine().decode(frame, plan, rng, full_output=full_output)


@dataclass
class NaiveStrategy:
    """Sample blindly, corrupted pixels included (the "w/o robustness"
    lower bound for strategies; still uses CS reconstruction)."""

    sampling_fraction: float = 0.5
    solver: str = "fista"
    noise_sigma: float = 0.0
    solver_options: dict = field(default_factory=dict)
    measurement: str = "row_sampling"

    def reconstruct(
        self, corrupted: np.ndarray, rng: np.random.Generator, **_
    ) -> np.ndarray:
        """Reconstruct one frame with no defect knowledge."""
        return sample_and_reconstruct(
            corrupted,
            self.sampling_fraction,
            rng,
            solver=self.solver,
            noise_sigma=self.noise_sigma,
            solver_options=self.solver_options,
            measurement=self.measurement,
        )


@dataclass
class OracleExclusionStrategy:
    """Exclude a known defect mask before sampling (Sec. 4.2).

    The mask normally comes from production testing of permanent
    defects; in the Fig. 6a/6b experiments the injected error mask is
    passed straight through ("after testing to identify those defects...
    only sampling good pixels").
    """

    sampling_fraction: float = 0.5
    solver: str = "fista"
    noise_sigma: float = 0.0
    solver_options: dict = field(default_factory=dict)
    measurement: str = "row_sampling"

    def reconstruct(
        self,
        corrupted: np.ndarray,
        rng: np.random.Generator,
        error_mask: np.ndarray | None = None,
        **_,
    ) -> np.ndarray:
        """Reconstruct one frame, never sampling masked pixels."""
        if error_mask is None:
            raise ValueError("OracleExclusionStrategy requires an error_mask")
        return sample_and_reconstruct(
            corrupted,
            self.sampling_fraction,
            rng,
            solver=self.solver,
            exclude_mask=error_mask,
            noise_sigma=self.noise_sigma,
            solver_options=self.solver_options,
            measurement=self.measurement,
        )


@dataclass
class ResamplingStrategy:
    """Multiple sample/reconstruct rounds aggregated per pixel (Sec. 4.3).

    The decode plan is built once and every round runs through the
    shared engine, so the rounds reuse one cached operator template
    instead of rebuilding basis + operator per round (the pre-engine
    hot-loop waste).

    Parameters
    ----------
    rounds:
        Number of independent resampling rounds (the paper uses 10).
    aggregate:
        ``"median"`` (robust, the paper's recommendation) or ``"mean"``.
    executor:
        Optional parallel execution of the rounds: anything
        :func:`~repro.core.executor.resolve_executor` accepts.  The
        rounds' ``Phi_M``/noise draws stay sequential (so the result is
        bit-identical to the serial loop for a given ``rng``); only the
        pure solves fan out.
    """

    sampling_fraction: float = 0.5
    rounds: int = 10
    aggregate: str = "median"
    solver: str = "fista"
    noise_sigma: float = 0.0
    solver_options: dict = field(default_factory=dict)
    executor: object | None = None
    measurement: str = "row_sampling"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.aggregate not in ("median", "mean"):
            raise ValueError(
                f"aggregate must be 'median' or 'mean', got {self.aggregate!r}"
            )

    def reconstruct(
        self,
        corrupted: np.ndarray,
        rng: np.random.Generator,
        error_mask: np.ndarray | None = None,
        **_,
    ) -> np.ndarray:
        """Aggregate ``rounds`` independent reconstructions per pixel.

        ``error_mask`` pixels (known defects, detected stuck lines) are
        excluded from sampling in every round -- resampling and
        exclusion compose, which is how the adaptive runtime feeds
        health-derived masks into this strategy.
        """
        corrupted = validate_decode_inputs(
            corrupted, self.sampling_fraction, self.noise_sigma
        )
        engine = get_engine()
        plan = DecodeContext(
            shape=corrupted.shape,
            sampling_fraction=self.sampling_fraction,
            solver=self.solver,
            solver_options=self.solver_options,
            noise_sigma=self.noise_sigma,
            measurement=self.measurement,
        ).with_exclusions(error_mask)
        stack = np.stack(
            engine.decode_batch(
                [corrupted] * self.rounds, plan, rng, executor=self.executor
            )
        )
        if self.aggregate == "median":
            return np.median(stack, axis=0)
        return np.mean(stack, axis=0)


@dataclass
class RpcaExclusionStrategy:
    """Detect outliers with RPCA over a frame stack, then exclude (Sec. 4.3).

    Parameters
    ----------
    outlier_threshold:
        Magnitude in the sparse component above which a pixel is flagged.
    """

    sampling_fraction: float = 0.5
    outlier_threshold: float = 0.1
    solver: str = "fista"
    noise_sigma: float = 0.0
    solver_options: dict = field(default_factory=dict)
    measurement: str = "row_sampling"

    def detect(self, frame_stack: np.ndarray) -> np.ndarray:
        """Outlier mask for each frame in a ``(frames, rows, cols)`` stack."""
        with instrument.span(
            "decode.rpca_detect", frames=int(np.asarray(frame_stack).shape[0])
        ):
            return detect_outliers(frame_stack, threshold=self.outlier_threshold)

    def reconstruct(
        self,
        corrupted: np.ndarray,
        rng: np.random.Generator,
        frame_stack: np.ndarray | None = None,
        frame_index: int = 0,
        **_,
    ) -> np.ndarray:
        """Reconstruct one frame of the stack after RPCA outlier exclusion.

        ``frame_stack`` provides the temporal context RPCA needs; when it
        is omitted the corrupted frame itself is used as a single-frame
        stack (detection quality degrades gracefully).
        """
        if frame_stack is None:
            frame_stack = np.asarray(corrupted, dtype=float)[None, ...]
            frame_index = 0
        masks = self.detect(frame_stack)
        mask = masks[frame_index]
        # Guard: if RPCA flags nearly everything, fall back to no exclusion
        # rather than starving the sampler.
        if mask.mean() > 0.5:
            mask = np.zeros_like(mask)
        return sample_and_reconstruct(
            corrupted,
            self.sampling_fraction,
            rng,
            solver=self.solver,
            exclude_mask=mask,
            noise_sigma=self.noise_sigma,
            solver_options=self.solver_options,
            measurement=self.measurement,
        )


@dataclass
class WeightedSamplingStrategy:
    """Energy-weighted sampling (extension beyond the paper).

    Uniform random sampling treats every pixel alike; when a *prior*
    frame (e.g. the previous video frame, or a calibration capture) is
    available, sampling can be biased toward informative pixels.  The
    weight of a pixel is a smoothed local-contrast estimate of the
    prior plus a uniform floor so flat regions keep coverage.

    Parameters
    ----------
    sampling_fraction, solver, noise_sigma, solver_options:
        As in the other strategies.
    uniform_floor:
        Fraction of the weight mass spread uniformly (1.0 recovers
        plain uniform sampling).
    """

    sampling_fraction: float = 0.5
    uniform_floor: float = 0.3
    solver: str = "fista"
    noise_sigma: float = 0.0
    solver_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.uniform_floor <= 1.0:
            raise ValueError("uniform_floor must be in [0, 1]")

    @staticmethod
    def weights_from_prior(prior: np.ndarray, floor: float) -> np.ndarray:
        """Local-contrast weight map from a prior frame."""
        from scipy import ndimage

        prior = np.asarray(prior, dtype=float)
        local_mean = ndimage.uniform_filter(prior, size=3)
        contrast = ndimage.uniform_filter(
            (prior - local_mean) ** 2, size=3
        )
        contrast = np.sqrt(np.maximum(contrast, 0.0))
        peak = contrast.max()
        if peak > 0:
            contrast = contrast / peak
        return floor + (1.0 - floor) * contrast

    def reconstruct(
        self,
        corrupted: np.ndarray,
        rng: np.random.Generator,
        prior: np.ndarray | None = None,
        error_mask: np.ndarray | None = None,
        **_,
    ) -> np.ndarray:
        """Reconstruct one frame with prior-weighted sampling.

        ``prior`` defaults to the corrupted frame itself (self-prior);
        ``error_mask`` pixels are excluded as in the oracle strategy.
        Runs through the engine with a weighted plan -- the
        ``weights`` field of the plan switches the sampler to
        :func:`~repro.core.sensing.weighted_sample_indices`.
        """
        corrupted = validate_decode_inputs(
            corrupted, self.sampling_fraction, self.noise_sigma
        )
        if prior is None:
            prior = corrupted
        weights = self.weights_from_prior(prior, self.uniform_floor)
        if error_mask is not None:
            error_mask = np.asarray(error_mask, dtype=bool)
            if error_mask.shape != corrupted.shape:
                raise ValueError("error_mask shape must match frame shape")
        plan = DecodeContext(
            shape=corrupted.shape,
            sampling_fraction=self.sampling_fraction,
            solver=self.solver,
            solver_options=self.solver_options,
            noise_sigma=self.noise_sigma,
            exclude_mask=error_mask,
            weights=weights,
        )
        return get_engine().decode(corrupted, plan, rng)
