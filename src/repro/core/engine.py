"""The unified decode engine: one canonical sample -> solve -> reshape path.

Every decode entry point in the repo (the strategy layer, the block
processor, the streaming imager, the video burst decoder, the
resilience runtime and the theory experiments) used to rebuild a
:class:`~repro.core.dct.Dct2Basis` and a
:class:`~repro.core.operators.CompositeOperator` per call -- per *round*
in the resampling loop, per *tile* in the block processor, per
*attempt* in the resilience retry chain.  For the streaming workloads
the ROADMAP targets (thousands of same-shape frames decoded
back-to-back) that per-call setup is pure waste: the basis depends only
on ``(shape, kind)``, and for the paper's row-sampling encoder with an
orthonormal basis the solver step size is a constant.

This module is the seam that amortises all of it:

* :class:`DecodeContext` -- a frozen decode plan (shape, sampling
  fraction, solver config, exclusion mask, sampling weights,
  measurement family) that can be built once per stream and reused per
  frame;
* :class:`OperatorCache` -- a bounded, thread-safe LRU cache of basis
  entries keyed on ``(shape, basis kind, measurement family)``, with
  hit/miss/eviction/byte counters exported through
  :mod:`repro.instrument`;
* :class:`DecodeEngine` -- ``decode(frame, plan, rng)``, the single
  canonical sample -> solve -> validate -> reshape path (including the
  ``full_output`` :class:`DecodeResult` plumbing) that every other
  layer now routes through.

The engine hands out matrix-free
:class:`~repro.core.operators.CompositeOperator` instances, never
matrices, and builds each one itself in :meth:`DecodeEngine.operator`:
the drawn code carrier (which owns its applies) chained with the
cached basis.  Row-sampled DCT applies cost ``O(N log N)`` time and
``O(1)`` memory beyond the sampling mask.  For small shapes the 2-D
DCT is applied as two tiny BLAS matmuls
(:class:`~repro.core.dct.SeparableDct2Basis`) instead of two
``scipy.fft`` dispatches per solver iteration; the operator carries a
spectral-norm hint, the basis entry's hint times the carrier's
``norm_bound`` (``||A||_2 = 1`` for row sampling of an orthonormal
basis), so FISTA steps a fixed ``1 / ||A||_2^2``; without a hint
(dense and block codes) it backtracks its step instead.

All cached objects are deterministic functions of
``(shape, kind, measurement)``, so a warm engine and a fresh one decode
bit-identically under a fixed seed (covered by regression tests).
Construction of bases (``Dct2Basis``...) or operators
(``CompositeOperator``) outside this module is forbidden in library
and example code, as is dense materialisation
(``to_dense`` / ``to_matrix``); so is a bare ``solve(...)`` call:
:meth:`DecodeEngine.solve_acquired` is the one solve step, which callers
that acquire their own measurements (the hardware-scan imager, the
video burst decoder) use too.  CI enforces these seams with
``tools/check_engine_seam.py``.  See ``docs/ENGINE.md`` for cache keys,
invalidation and how to plug a custom basis.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, ClassVar, Mapping, NamedTuple

import numpy as np

from .. import instrument
from .dct import Dct2Basis, SeparableDct2Basis
from .measurement import get_measurement, resolve_measurement_for
from .operators import CompositeOperator
from .solvers import SolverResult, solve

__all__ = [
    "BasisSpec",
    "CacheEntry",
    "DecodeContext",
    "DecodeEngine",
    "DecodeResult",
    "OperatorCache",
    "SeparableDct2Basis",
    "get_engine",
    "register_basis",
    "set_engine",
    "use_engine",
    "validate_decode_inputs",
]

class DecodeResult(NamedTuple):
    """Full output of one decode round (``full_output=True``).

    ``reconstruction`` is what the plain call returns; ``solver_result``
    and ``measurements`` expose the solver diagnostics (residual,
    convergence, divergence flags) and the measurement vector the
    resilience layer needs for health validation.
    """

    reconstruction: np.ndarray
    solver_result: SolverResult
    measurements: np.ndarray


def validate_decode_inputs(
    frame: np.ndarray,
    sampling_fraction: float,
    noise_sigma: float = 0.0,
) -> np.ndarray:
    """Validate the shared decode inputs; returns the frame as float.

    Rejects non-2-D frames, NaN/Inf-poisoned frames (they would
    propagate through ``Phi_M`` into the solver and surface as a
    cryptic linalg failure many layers down), a ``sampling_fraction``
    outside ``(0, 1]`` and a negative ``noise_sigma``.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2:
        raise ValueError(f"expected a 2-D frame, got shape {frame.shape}")
    if frame.size == 0:
        raise ValueError(f"frame is empty, got shape {frame.shape}")
    if not np.all(np.isfinite(frame)):
        bad = int(np.count_nonzero(~np.isfinite(frame)))
        raise ValueError(
            f"frame contains {bad} NaN/Inf pixel(s); sanitise or gate the "
            "frame before decoding"
        )
    if not 0.0 < sampling_fraction <= 1.0:
        raise ValueError(
            f"sampling_fraction must be in (0, 1], got {sampling_fraction}"
        )
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    return frame


@dataclass(frozen=True)
class BasisSpec:
    """How the engine builds a sparsifying basis for one ``kind``.

    ``factory(shape)`` builds the basis.  ``orthonormal`` declares
    ``||Psi||_2 == 1``, which gives the entry the hint 1.0, so the
    engine hints the operator spectral norm as the code carrier's
    ``norm_bound`` (row sampling: 1).
    """

    factory: Callable[[tuple], object]
    orthonormal: bool = False


def _dct3_factory(shape):
    from .video import Dct3Basis  # function-level: video routes through us

    return Dct3Basis(shape)


def _haar2_factory(shape):
    from .wavelet import Haar2Basis

    return Haar2Basis(shape)


# Above this edge length the separable matmul loses to the FFT path.
_SEPARABLE_MAX_DIM = 64


def _dct2_factory(shape):
    if max(int(shape[0]), int(shape[1])) <= _SEPARABLE_MAX_DIM:
        return SeparableDct2Basis(shape)
    return Dct2Basis(shape)


_BASIS_KINDS: dict[str, BasisSpec] = {
    "dct2": BasisSpec(factory=_dct2_factory, orthonormal=True),
    "dct3": BasisSpec(factory=_dct3_factory, orthonormal=True),
    "haar2": BasisSpec(factory=_haar2_factory, orthonormal=True),
}


def register_basis(
    kind: str,
    factory: Callable[[tuple], object],
    orthonormal: bool = False,
) -> None:
    """Register a custom sparsifying basis under ``kind``.

    ``factory(shape)`` must return an object with the matrix-free basis
    API (``synthesize`` / ``analyze`` / ``n``).  Set ``orthonormal``
    only if ``||Psi||_2 == 1`` holds exactly -- it authorises the
    unit-step spectral-norm hint for gradient solvers.  Registering an
    existing ``kind`` replaces it; cached entries for the old spec are
    *not* invalidated, so call :meth:`OperatorCache.clear` on engines
    that may hold stale entries.
    """
    if not kind or not isinstance(kind, str):
        raise ValueError(f"basis kind must be a non-empty string, got {kind!r}")
    _BASIS_KINDS[kind] = BasisSpec(factory=factory, orthonormal=orthonormal)


def basis_kinds() -> tuple[str, ...]:
    """The registered basis kinds (cache-key vocabulary)."""
    return tuple(sorted(_BASIS_KINDS))


@dataclass(frozen=True)
class CacheEntry:
    """One cached operator template: the basis plus solver hints.

    ``basis`` is a matrix-free basis object; ``nbytes`` is the true
    memory the entry pins, which the cache aggregates into its byte
    gauge.
    """

    key: tuple
    basis: object
    spectral_norm_hint: float | None = None
    nbytes: int = 0


class OperatorCache:
    """Bounded, thread-safe LRU cache of :class:`CacheEntry` objects.

    Keys are ``(shape, basis kind, measurement family)`` tuples:
    everything else about a decode (the random code draw, the
    solver, the measurements) changes per call, while the basis and its
    solver hints are pure functions of the key.  Entries are immutable and
    safe to share across threads; the cache itself serialises access
    with a lock.

    Hit/miss/eviction counts and the resident byte total are kept both
    as plain attributes (always on, readable via :meth:`stats`) and as
    ``engine.cache.*`` counters and gauges in :mod:`repro.instrument`
    when collection is enabled.  The byte total is *true* memory: DCT
    entries pin only their factor matrices (or nothing at all on the
    FFT path).
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0

    def get_or_create(
        self, key: tuple, builder: Callable[[], CacheEntry]
    ) -> CacheEntry:
        """Return the entry for ``key``, building and inserting on miss.

        The builder runs under the cache lock, so concurrent same-shape
        decodes build each entry exactly once.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                instrument.incr("engine.cache.hits")
                return entry
            entry = builder()
            self._entries[key] = entry
            self.bytes += int(getattr(entry, "nbytes", 0) or 0)
            self.misses += 1
            instrument.incr("engine.cache.misses")
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self.bytes -= int(getattr(evicted, "nbytes", 0) or 0)
                self.evictions += 1
                instrument.incr("engine.cache.evictions")
            instrument.set_gauge("engine.cache.size", len(self._entries))
            instrument.set_gauge("engine.cache.bytes", self.bytes)
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry (invalidation hook; counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0
            instrument.set_gauge("engine.cache.size", 0)
            instrument.set_gauge("engine.cache.bytes", 0)

    def stats(self) -> dict:
        """Accounting snapshot: hits/misses/evictions/size/capacity/bytes."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
                "bytes": self.bytes,
            }


@dataclass(frozen=True)
class DecodeContext:
    """A frozen decode plan: everything about a decode except the frame.

    Build one per stream (or per tile shape) and reuse it for every
    frame; the engine keys its operator cache on ``(shape, basis,
    measurement)``, so same-plan decodes pay construction cost exactly
    once.

    Parameters
    ----------
    shape:
        Frame shape the plan applies to; frames are checked against it.
    sampling_fraction:
        ``M / N`` before exclusions.
    solver, solver_options:
        Decoder name and extra solver kwargs (stored read-only).
    basis:
        Registered basis kind (``"dct2"`` default; see
        :func:`register_basis`).
    noise_sigma:
        Std-dev of additive measurement noise.
    exclude_mask:
        Boolean mask of pixels that must never be sampled (stored as a
        read-only copy; excluded from equality/compare).  Any mask on
        a family without exclusion support raises ``ValueError`` here;
        one that excludes every pixel fails :meth:`check_exclusions`.
    weights:
        Optional per-pixel sampling weights (energy-weighted sampling);
        ``None`` means uniform random sampling.  Only families with
        ``supports_weights`` accept them.
    measurement:
        Registered measurement family drawing the per-frame code
        (``"row_sampling"`` default -- the paper's encoder; see
        :func:`~repro.core.measurement.register_measurement`).
    """

    #: Every operator the engine builds is matrix-free: a read-only
    #: constant, not a field, for callers that forward it to
    #: :meth:`DecodeEngine.operator` as ``mode=``.
    operator_mode: ClassVar[str] = "implicit"

    shape: tuple
    sampling_fraction: float
    solver: str = "fista"
    solver_options: Mapping = field(default_factory=dict)
    basis: str = "dct2"
    noise_sigma: float = 0.0
    exclude_mask: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )
    weights: np.ndarray | None = field(default=None, compare=False, repr=False)
    measurement: str = "row_sampling"

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        if len(shape) < 2 or any(s < 1 for s in shape):
            raise ValueError(f"invalid plan shape {self.shape}")
        object.__setattr__(self, "shape", shape)
        get_measurement(self.measurement)  # typo check; raises KeyError
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError(
                f"sampling_fraction must be in (0, 1], got "
                f"{self.sampling_fraction}"
            )
        if self.noise_sigma < 0.0:
            raise ValueError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}"
            )
        object.__setattr__(
            self,
            "solver_options",
            MappingProxyType(dict(self.solver_options or {})),
        )
        if self.exclude_mask is not None:
            mask = np.array(self.exclude_mask, dtype=bool)
            if mask.shape != shape:
                raise ValueError(
                    "exclude_mask shape must match frame shape "
                    f"(mask {mask.shape}, plan {shape})"
                )
            if mask.any() and not get_measurement(
                self.measurement
            ).supports_exclusions:
                raise ValueError(
                    f"measurement family {self.measurement!r} does not "
                    "support exclusion masks; clear the mask or switch "
                    "families"
                )
            mask.setflags(write=False)
            object.__setattr__(self, "exclude_mask", mask)
        if self.weights is not None:
            weights = np.array(self.weights, dtype=float)
            if weights.size != int(np.prod(shape)):
                raise ValueError(
                    f"weights must have {int(np.prod(shape))} entries, "
                    f"got {weights.size}"
                )
            if not get_measurement(self.measurement).supports_weights:
                raise ValueError(
                    f"measurement family {self.measurement!r} does not "
                    "support per-pixel sampling weights; use row_sampling"
                )
            weights.setflags(write=False)
            object.__setattr__(self, "weights", weights)

    def __getstate__(self) -> dict:
        """Picklable state (``solver_options`` as a plain dict).

        The live plan stores ``solver_options`` behind a
        ``MappingProxyType``, which cannot cross a process boundary;
        pickling is what lets one frozen plan fan out to a
        :class:`~repro.core.executor.ProcessExecutor` worker pool.
        """
        state = dict(self.__dict__)
        state["solver_options"] = dict(self.solver_options)
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled plan, re-freezing the mutable views."""
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(
            self,
            "solver_options",
            MappingProxyType(dict(state.get("solver_options") or {})),
        )
        for name in ("exclude_mask", "weights"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value)
                value.setflags(write=False)
                object.__setattr__(self, name, value)

    def check_frame(self, frame: np.ndarray) -> np.ndarray:
        """``frame`` as float; ``ValueError`` if it cannot decode here.

        Rejects what :func:`validate_decode_inputs` rejects (non-2-D,
        empty, NaN/Inf), any shape but the plan's, and what
        :meth:`check_exclusions` rejects.  Every decode under the plan
        runs this before its first RNG draw.
        """
        frame = validate_decode_inputs(
            frame, self.sampling_fraction, self.noise_sigma
        )
        if frame.shape != self.shape:
            raise ValueError(
                f"frame shape {frame.shape} does not match plan shape "
                f"{self.shape}"
            )
        self.check_exclusions()
        return frame

    def check_exclusions(self) -> None:
        """``ValueError`` if the exclusion mask leaves no pixel to sample.

        Such a plan can still be built (a mask may be merged in frame
        by frame), but no frame can decode under it, whatever the
        family; the decode service runs this when a stream registers.
        """
        if self.exclude_mask is not None and self.exclude_mask.all():
            size = self.exclude_mask.size
            raise ValueError(
                "exclusion mask leaves no pixels to sample "
                f"({size} of {size} excluded)"
            )

    @classmethod
    def for_frame(
        cls, frame: np.ndarray, sampling_fraction: float, **kwargs
    ) -> "DecodeContext":
        """Plan matching ``frame.shape`` (convenience constructor)."""
        return cls(
            shape=np.asarray(frame).shape,
            sampling_fraction=sampling_fraction,
            **kwargs,
        )

    def with_exclusions(
        self, mask: np.ndarray | None
    ) -> "DecodeContext":
        """A copy of this plan with ``mask`` OR-merged into its exclusions.

        ``None`` (or an all-``False`` mask) returns ``self`` unchanged,
        so streaming callers can apply a health-derived stuck-line mask
        per frame without paying a plan rebuild on healthy frames.  The
        merged plan is checked like any other (``ValueError`` on a
        mask-blind family).
        """
        if mask is None:
            return self
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.shape:
            raise ValueError(
                f"exclusion mask shape {mask.shape} does not match plan "
                f"shape {self.shape}"
            )
        if not mask.any():
            return self
        merged = (
            mask if self.exclude_mask is None else (self.exclude_mask | mask)
        )
        return replace(self, exclude_mask=merged)


@dataclass
class DecodeEngine:
    """The shared decode runtime: cached operators + the canonical path.

    Parameters
    ----------
    cache:
        The operator cache every basis entry is looked up in.
    """

    cache: OperatorCache = field(default_factory=OperatorCache)

    def __post_init__(self) -> None:
        if not isinstance(self.cache, OperatorCache):
            raise TypeError(
                "DecodeEngine needs an OperatorCache (there is no "
                f"cache-off mode), got {type(self.cache).__name__}"
            )

    # -- operator construction (the only sanctioned site) -----------------
    def _build_entry(
        self, shape: tuple, kind: str, measurement: str
    ) -> CacheEntry:
        spec = _BASIS_KINDS.get(kind)
        if spec is None:
            raise KeyError(
                f"unknown basis kind {kind!r}; registered: {basis_kinds()}"
            )
        basis = spec.factory(shape)
        return CacheEntry(
            key=(tuple(shape), kind, measurement),
            basis=basis,
            spectral_norm_hint=1.0 if spec.orthonormal else None,
            nbytes=int(getattr(basis, "nbytes", 0) or 0),
        )

    def entry_for(
        self,
        shape: tuple,
        basis: str = "dct2",
        measurement: str = "row_sampling",
    ) -> CacheEntry:
        """The cached template for ``(shape, basis, measurement)``.

        The measurement axis keys the cache even though the basis
        itself is family-independent: the entry's solver hints (and any
        family-registered basis spec swap) are allowed to differ per
        family, so entries never leak across the axis.
        """
        shape = tuple(int(s) for s in shape)
        return self.cache.get_or_create(
            (shape, basis, measurement),
            lambda: self._build_entry(shape, basis, measurement),
        )

    def basis_for(self, shape: tuple, basis: str = "dct2"):
        """The (cached) matrix-free sparsifying basis for ``(shape, basis)``."""
        return self.entry_for(shape, basis).basis

    def operator(
        self,
        phi,
        shape: tuple,
        basis: str = "dct2",
        mode: str = "implicit",
        measurement: str | None = None,
    ):
        """Bind a measurement code to the cached template for ``shape``.

        This is the repo's only sanctioned operator construction site
        (CI enforces the seam); every decode path -- including ones
        that own their measurement acquisition, like the hardware-scan
        imager or the video burst decoder -- gets its operator here.

        ``phi`` is a carrier drawn by a registered measurement family;
        ``measurement`` names that family, and ``None`` recovers it from
        the carrier type
        (:func:`~repro.core.measurement.resolve_measurement_for`, which
        raises ``TypeError`` for anything else, raw arrays included).
        The result is a :class:`~repro.core.operators.CompositeOperator`
        over the cached basis.  Its spectral-norm hint is the entry's
        hint times ``phi.norm_bound`` when both are known, and ``None``
        otherwise: ``1.0`` for row sampling under an orthonormal basis,
        ``None`` for dense and block codes, where FISTA backtracks its
        step and ISTA and IHT run a power iteration.

        ``mode`` must be ``"implicit"``, the only representation the
        engine builds; any other value raises ``ValueError``.
        """
        if mode != "implicit":
            raise ValueError(
                f"the engine builds only implicit operators, got "
                f"mode={mode!r}"
            )
        if measurement is None:
            model = resolve_measurement_for(phi)
        else:
            model = get_measurement(measurement)
            if model.phi_type is not None and not isinstance(
                phi, model.phi_type
            ):
                raise TypeError(
                    f"measurement family {measurement!r} expects "
                    f"{model.phi_type.__name__} codes, got "
                    f"{type(phi).__name__}"
                )
        entry = self.entry_for(
            shape, basis, measurement=measurement or model.name
        )
        hint, bound = entry.spectral_norm_hint, phi.norm_bound
        hint = None if hint is None or bound is None else hint * bound
        return CompositeOperator(phi, entry.basis, spectral_norm_hint=hint)

    # -- the canonical decode path -----------------------------------------
    @staticmethod
    def _measurement_budget(
        plan: DecodeContext, n: int
    ) -> tuple[int, np.ndarray | None]:
        """The measurement count ``m`` and flat excluded indices.

        Every family clamps ``m`` to the pixels the exclusions leave
        (:meth:`~repro.core.measurement.MeasurementModel.budget`).
        """
        m = max(1, int(round(plan.sampling_fraction * n)))
        exclude = None
        if plan.exclude_mask is not None:
            exclude = np.flatnonzero(plan.exclude_mask.ravel())
        m = get_measurement(plan.measurement).budget(n, m, exclude)
        return m, exclude

    @staticmethod
    def _draw_phi(
        plan: DecodeContext,
        n: int,
        m: int,
        exclude: np.ndarray | None,
        rng: np.random.Generator,
    ):
        """Draw one per-frame code under the plan (the only sampling RNG use)."""
        return get_measurement(plan.measurement).draw(
            plan.shape, m, rng, exclude=exclude, weights=plan.weights
        )

    @staticmethod
    def _measure(
        frame: np.ndarray,
        plan: DecodeContext,
        phi,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Apply the code to the frame, adding plan noise if configured."""
        measurements = phi.apply(frame.ravel())
        if plan.noise_sigma > 0.0:
            measurements = measurements + rng.normal(
                0.0, plan.noise_sigma, size=measurements.shape
            )
        return measurements

    def _acquire(
        self,
        frame: np.ndarray,
        plan: DecodeContext,
        m: int,
        exclude: np.ndarray | None,
        rng: np.random.Generator,
        phi=None,
    ) -> tuple:
        """``(phi, measurements)`` for one checked frame.

        Draws the frame's own code unless a shared ``phi`` is given,
        then measures: the per-frame RNG order of every decode route.
        """
        if phi is None:
            phi = self._draw_phi(plan, frame.size, m, exclude, rng)
        return phi, self._measure(frame, plan, phi, rng)

    def _bind(self, plan: DecodeContext, phi):
        """The plan's operator for one drawn code."""
        return self.operator(
            phi, plan.shape, plan.basis, measurement=plan.measurement
        )

    @staticmethod
    def _reconstruct(
        plan: DecodeContext,
        operator,
        result: SolverResult,
        measurements: np.ndarray,
        full_output: bool,
    ) -> np.ndarray | DecodeResult:
        """Synthesise and reshape one solve (the decode's last step)."""
        reconstruction = operator.synthesize(result.coefficients).reshape(
            plan.shape
        )
        if full_output:
            return DecodeResult(reconstruction, result, measurements)
        return reconstruction

    def solve_acquired(
        self,
        plan: DecodeContext,
        phi,
        measurements: np.ndarray,
        full_output: bool = False,
    ) -> np.ndarray | DecodeResult:
        """Solve one already-acquired measurement vector under ``plan``.

        The one solve step of the repo: bind ``phi`` to the plan's
        cached operator, run ``plan.solver`` with ``plan.solver_options``
        and synthesise the frame.  It is the RNG-free half of
        :meth:`decode` (the plan's sampling fraction, noise and
        exclusions only matter to the draw), so callers that acquire
        their own measurements -- the hardware-scan imager, the video
        burst decoder -- solve through it too.  Because it consumes no
        randomness it can run on any worker in any order without
        perturbing determinism; :meth:`decode_batch` fans it out.
        """
        operator = self._bind(plan, phi)
        result = solve(
            plan.solver, operator, measurements, **dict(plan.solver_options)
        )
        return self._reconstruct(
            plan, operator, result, measurements, full_output
        )

    def decode(
        self,
        frame: np.ndarray,
        plan: DecodeContext,
        rng: np.random.Generator,
        full_output: bool = False,
    ) -> np.ndarray | DecodeResult:
        """One sample + L1-reconstruction round under ``plan``.

        The single canonical decode recipe: validate -> draw ``Phi_M``
        (uniform or weighted, honouring the exclusion mask) -> measure
        (+ optional noise) -> solve -> reshape.  Returns the
        reconstructed frame, or the full :class:`DecodeResult` when
        ``full_output`` is set.
        """
        frame = plan.check_frame(frame)
        n = frame.size
        m, exclude = self._measurement_budget(plan, n)
        span_name = (
            "decode.weighted_sample_and_reconstruct"
            if plan.weights is not None
            else "decode.sample_and_reconstruct"
        )
        with instrument.span(span_name, n=n, m=m, solver=plan.solver):
            instrument.incr("decode.calls")
            instrument.incr("decode.measurements", m)
            return self.solve_acquired(
                plan, *self._acquire(frame, plan, m, exclude, rng), full_output
            )

    def decode_batch(
        self,
        frames,
        plan: DecodeContext,
        rng: np.random.Generator,
        executor=None,
        shared_phi: bool = False,
        full_output: bool = False,
    ) -> list:
        """Decode N frames against one frozen plan, bit-identical to serial.

        Every frame is checked against ``plan`` before the first draw,
        so a bad frame raises with ``rng`` untouched.  Then, per route:

        * **In-process, a code per frame** (no executor, no
          ``shared_phi``): draw, measure and solve one frame, then the
          next -- the serial :meth:`decode` loop, so at most one
          frame's code is alive at a time.
        * **Executor**: every frame's ``Phi_M`` and measurement noise
          are drawn first, in frame order (the RNG consumption of the
          serial loop), then the pure solves fan out across workers.
        * **Shared** ``Phi``: a single ``Phi_M`` is drawn up front and
          reused for every frame's readout (one sampling pattern, N
          readouts -- the streaming-hardware regime).  In-process the
          one code is bound to an operator once and every frame is
          solved against it (:func:`repro.core.solvers.solve_batch`).

        Every route returns bit-identical results in input order.

        Parameters
        ----------
        frames:
            Sequence of frames, all matching ``plan.shape``.
        plan, rng:
            As for :meth:`decode`; the RNG advances exactly as if each
            frame had been decoded serially (or once, for the shared
            draw).  In-process, a batch whose solve of frame ``k``
            (counting from 0) raises leaves ``rng`` where ``k + 1``
            serial :meth:`decode` calls leave it.
        executor:
            Anything :func:`~repro.core.executor.resolve_executor`
            accepts; ``None`` solves in-process.
        shared_phi:
            Reuse one sampling pattern for the whole batch.
        full_output:
            Return :class:`DecodeResult` per frame instead of bare
            reconstructions.
        """
        from .executor import collect_values, resolve_executor
        from .solvers import solve_batch

        frames = [plan.check_frame(f) for f in frames]
        if not frames:
            return []
        n = frames[0].size
        m, exclude = self._measurement_budget(plan, n)
        ex = resolve_executor(executor)
        with instrument.span(
            "decode.batch",
            frames=len(frames),
            n=n,
            m=m,
            solver=plan.solver,
            shared_phi=shared_phi,
        ):
            instrument.incr("decode.batches")
            instrument.incr("decode.calls", len(frames))
            instrument.incr("decode.measurements", m * len(frames))
            if ex is None and not shared_phi:
                return [
                    self.solve_acquired(
                        plan,
                        *self._acquire(frame, plan, m, exclude, rng),
                        full_output,
                    )
                    for frame in frames
                ]
            # Acquire every frame in frame order, then solve.
            shared = (
                self._draw_phi(plan, n, m, exclude, rng) if shared_phi else None
            )
            acquired = [
                self._acquire(frame, plan, m, exclude, rng, shared)
                for frame in frames
            ]
            if ex is not None:
                tasks = [(plan, phi, b, full_output) for phi, b in acquired]
                return collect_values(
                    ex.map_tasks(
                        _solve_acquired_task, tasks, label="decode_batch"
                    )
                )
            operator = self._bind(plan, shared)
            measurements = [b for _, b in acquired]
            results = solve_batch(
                plan.solver,
                operator,
                np.stack(measurements),
                **dict(plan.solver_options),
            )
            return [
                self._reconstruct(plan, operator, result, b, full_output)
                for result, b in zip(results, measurements)
            ]


def _solve_acquired_task(args):
    """Executor task body for one acquired system (picklable)."""
    plan, phi, measurements, full_output = args
    return get_engine().solve_acquired(plan, phi, measurements, full_output)


_engine = DecodeEngine()
_engine_lock = threading.Lock()


def get_engine() -> DecodeEngine:
    """The process-wide default engine every decode path routes through."""
    return _engine


def set_engine(engine: DecodeEngine) -> DecodeEngine:
    """Swap the process-wide engine; returns the previous one."""
    global _engine
    with _engine_lock:
        previous = _engine
        _engine = engine
    return previous


@contextmanager
def use_engine(engine: DecodeEngine):
    """Scope the process-wide engine to a ``with`` block (tests, benches)."""
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)
