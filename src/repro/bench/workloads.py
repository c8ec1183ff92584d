"""The standard workload matrix: datasets x shapes x sampling x faults.

A *workload* is everything about a benchmark cell except how it is
decoded: which synthetic dataset generates the frames, the frame shape,
the sampling ratio ``M/N``, the injected fault rate and how many frames
the cell decodes.  Decode *routes* (serial loop, executor fan-out,
shared-|Phi| batch, resilient/adaptive supervision) live in
:mod:`repro.bench.routes`; a (workload, route) pair is one cell of the
evaluation matrix.

The axes follow the adaptive-readout literature the ROADMAP cites
(activity level and fault rate matter as much as frame shape): three
modalities (thermal / tactile / ultrasound), shapes from 16 x 16 smoke
frames to 128 x 128 e-skin sheets, sampling ratios around the paper's
M/N ~ 0.5 operating point, and fault rates 0 / 10 / 20 % matching the
Fig. 6a error grid and the resilience sweeps.

Workloads are declarative and registered by name, so the pytest
benchmarks, the ``python -m repro.bench`` driver and the CI gate all
run *the same definitions* -- adding a workload here adds it
everywhere.  Suites (``tiny`` / ``smoke`` / ``full``) select subsets of
the matrix by name; the ``smoke`` suite is the tier-1 gated set whose
trajectory the CI ``bench-trend`` job thresholds, and its
:class:`Expectation` table holds the per-cell bounds that job also
applies (operator-cache speedup, process fan-out, journal overhead).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

__all__ = [
    "Expectation",
    "Workload",
    "cell_seed",
    "dataset_names",
    "get_workload",
    "make_frames",
    "register_workload",
    "suite_cells",
    "suite_expectations",
    "suite_names",
    "workload_names",
]


@dataclass(frozen=True)
class Workload:
    """One named point of the workload matrix (decode-route agnostic).

    Parameters
    ----------
    name:
        Registry key, by convention
        ``<dataset>-<rows>x<cols>-s<sampling%>-f<fault%>``.
    dataset:
        Generator family: ``"thermal"``, ``"tactile"`` or
        ``"ultrasound"`` (see :func:`make_frames`).
    shape:
        Frame shape ``(rows, cols)``.
    sampling_fraction:
        ``M / N`` of the sampling encoder.
    fault_rate:
        Combined solver-layer chaos rate injected while decoding
        (``0.0`` disables injection; only the supervised routes accept
        a non-zero rate).
    frames:
        Frames decoded per cell (more frames = less timer noise,
        linearly more runtime).
    solver:
        Decoder name for the engine routes and the head of the
        resilience fallback chain.
    measurement:
        Registered measurement-family name (see
        :mod:`repro.core.measurement`) the cell samples with; the
        default ``"row_sampling"`` keeps every pre-existing cell's
        trajectory comparable across PRs.  Validated at decode-plan
        time, keeping this module import-light.
    tier:
        ``1`` marks cells whose trajectory the CI regression gate
        thresholds; higher tiers are informational.
    """

    name: str
    dataset: str
    shape: tuple
    sampling_fraction: float
    fault_rate: float = 0.0
    frames: int = 4
    solver: str = "fista"
    measurement: str = "row_sampling"
    tier: int = 2

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        if len(shape) != 2 or any(s < 8 for s in shape):
            raise ValueError(f"workload shape must be >= 8x8, got {self.shape}")
        object.__setattr__(self, "shape", shape)
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError(
                f"sampling_fraction must be in (0, 1], got "
                f"{self.sampling_fraction}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1], got {self.fault_rate}"
            )
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.dataset not in _DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; expected one of "
                f"{dataset_names()}"
            )


def _thermal_factory(shape: tuple, seed: int):
    from ..datasets import ThermalHandGenerator

    return ThermalHandGenerator(shape=shape, seed=seed)


def _tactile_factory(shape: tuple, seed: int):
    from ..datasets import TactileObjectGenerator

    # Class 3 has a multi-patch signature, a representative mid-density
    # grasp; the per-cell seed still varies pose and pressure.
    return TactileObjectGenerator(class_index=3, shape=shape, seed=seed)


def _ultrasound_factory(shape: tuple, seed: int):
    from ..datasets import UltrasoundGenerator

    return UltrasoundGenerator(shape=shape, seed=seed)


_DATASETS = {
    "thermal": _thermal_factory,
    "tactile": _tactile_factory,
    "ultrasound": _ultrasound_factory,
}


def dataset_names() -> tuple[str, ...]:
    """The registered dataset families."""
    return tuple(sorted(_DATASETS))


def make_frames(workload: Workload, seed: int):
    """Generate the workload's frame stack (``(frames, rows, cols)``).

    Deterministic in ``(workload, seed)``: the dataset generator is
    seeded once and asked for ``workload.frames`` frames, so every
    route of the same workload decodes the identical scene.
    """
    generator = _DATASETS[workload.dataset](workload.shape, seed)
    return generator.frames(workload.frames)


def cell_seed(base_seed: int, workload_name: str) -> int:
    """Stable per-workload RNG seed derived from names, not run order.

    Cells must be re-runnable individually with the numbers they had
    inside a full suite run, so the derivation hashes the workload's
    name instead of advancing a shared generator.  The seed is shared
    by every *route* of the workload on purpose: routes then decode
    the identical scene from identical RNG state, so the engine routes
    reproduce each other bit-for-bit (the execution layer's
    determinism contract) and speedups compare identical work.
    """
    tag = workload_name.encode()
    return (int(base_seed) * 2654435761 + zlib.crc32(tag)) % (2**31)


def _matrix_name(
    dataset: str,
    shape: tuple,
    sampling: float,
    fault: float,
    measurement: str = "row_sampling",
) -> str:
    name = (
        f"{dataset}-{shape[0]}x{shape[1]}"
        f"-s{round(sampling * 100):02d}-f{round(fault * 100):02d}"
    )
    if measurement != "row_sampling":
        name += f"-{measurement}"
    return name


def _standard_matrix() -> dict[str, Workload]:
    """The standard matrix (see ``docs/BENCHMARKS.md`` for the table)."""
    matrix: dict[str, Workload] = {}

    def add(
        dataset,
        shape,
        sampling,
        fault=0.0,
        frames=4,
        tier=2,
        measurement="row_sampling",
    ) -> None:
        name = _matrix_name(dataset, shape, sampling, fault, measurement)
        matrix[name] = Workload(
            name=name,
            dataset=dataset,
            shape=shape,
            sampling_fraction=sampling,
            fault_rate=fault,
            frames=frames,
            measurement=measurement,
            tier=tier,
        )

    # Tier-1 gated cells (the smoke suite): one shape per modality at
    # the paper's M/N = 0.5 operating point, clean and 10 % faults.
    add("thermal", (32, 32), 0.5, 0.0, frames=4, tier=1)
    add("thermal", (32, 32), 0.5, 0.10, frames=4, tier=1)
    add("tactile", (32, 32), 0.5, 0.0, frames=4, tier=1)
    add("ultrasound", (32, 32), 0.5, 0.0, frames=4, tier=1)
    # Fault-rate axis (supervised routes only).
    add("thermal", (32, 32), 0.5, 0.20, frames=4)
    add("tactile", (32, 32), 0.5, 0.10, frames=4)
    add("ultrasound", (32, 32), 0.5, 0.10, frames=4)
    # Sampling-ratio axis.
    add("thermal", (32, 32), 0.35, 0.0, frames=4)
    add("tactile", (32, 32), 0.35, 0.0, frames=4)
    # Shape axis: 64 x 64 tiles and the 128 x 128 e-skin sheet.  The
    # thermal tile decodes 40 frames so the 4-worker process route has
    # many tasks per worker and a timing window long enough to average
    # host noise (the smoke fan-out expectation).
    add("thermal", (64, 64), 0.5, 0.0, frames=40)
    for dataset in ("tactile", "ultrasound"):
        add(dataset, (64, 64), 0.5, 0.0, frames=3)
    add("thermal", (128, 128), 0.5, 0.0, frames=2)
    add("tactile", (128, 128), 0.5, 0.0, frames=2)
    # The implicit-operator route keeps 256 x 256 under the smoke
    # budget (a dense A here would be 34 GB; the FFT route holds ~0).
    add("thermal", (256, 256), 0.5, 0.0, frames=2)
    # Measurement-family axis: the dense-code and block-sampling
    # families at the operating point, small shapes only (their Phi is
    # an explicit M x N matrix, so cells scale O(M N) in memory).
    add("thermal", (32, 32), 0.5, 0.0, frames=3, measurement="dense_codes")
    add(
        "thermal", (32, 32), 0.5, 0.0, frames=3, measurement="block_sampling"
    )
    add("tactile", (32, 32), 0.5, 0.0, frames=3, measurement="dense_codes")
    add(
        "thermal",
        (16, 16),
        0.5,
        0.0,
        frames=3,
        tier=3,
        measurement="dense_codes",
    )
    add(
        "thermal",
        (16, 16),
        0.5,
        0.0,
        frames=3,
        tier=3,
        measurement="block_sampling",
    )
    # A 40-frame 16 x 16 stream: small frames are where per-call basis
    # construction and power iteration dominate, so the operator-cache
    # expectation compares the cached and uncached serial loops here.
    add("tactile", (16, 16), 0.5, 0.0, frames=40)
    # Tiny cells for fast unit tests and local iteration.
    matrix["thermal-16x16-s50-f00"] = Workload(
        name="thermal-16x16-s50-f00",
        dataset="thermal",
        shape=(16, 16),
        sampling_fraction=0.5,
        frames=3,
        tier=3,
    )
    matrix["thermal-16x16-s50-f20"] = Workload(
        name="thermal-16x16-s50-f20",
        dataset="thermal",
        shape=(16, 16),
        sampling_fraction=0.5,
        fault_rate=0.20,
        frames=3,
        tier=3,
    )
    return matrix


_WORKLOADS: dict[str, Workload] = _standard_matrix()


def register_workload(workload: Workload) -> None:
    """Add (or replace) a workload in the registry.

    Anything registered here is immediately runnable by name through
    the driver and addressable from suite definitions; see
    ``docs/BENCHMARKS.md`` ("Adding a workload").
    """
    _WORKLOADS[workload.name] = workload


def get_workload(name: str) -> Workload:
    """Look up a registered workload by name."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: {workload_names()}"
        ) from None


def workload_names() -> tuple[str, ...]:
    """All registered workload names, sorted."""
    return tuple(sorted(_WORKLOADS))


@dataclass(frozen=True)
class _Suite:
    """A named subset of the matrix: (workload, routes) selections."""

    name: str
    cells: tuple = field(default_factory=tuple)


# Route vocabularies (resolved against repro.bench.routes at run time).
_ENGINE_ROUTES = ("serial", "thread", "batch_shared")
_ALL_ENGINE_ROUTES = ("serial", "thread", "process", "batch_shared")
_SUPERVISED_ROUTES = ("resilient", "adaptive")

_SUITES: dict[str, tuple[tuple[str, tuple], ...]] = {
    # One clean engine cell + one faulted supervised cell, 16x16:
    # seconds, not minutes -- what the tier-1 unit tests run end-to-end.
    "tiny": (
        ("thermal-16x16-s50-f00", ("serial", "batch_shared")),
        ("thermal-16x16-s50-f20", ("resilient",)),
    ),
    # The tier-1 gated set: every modality at the paper's operating
    # point through every cheap route, plus the faulted thermal cell
    # through the supervised routes.  The large-frame cells (128^2
    # serial + shared-Phi batch, 256^2 shared-Phi batch) ride along at
    # tier 2 to keep the FFT-path time and memory trajectory in every
    # BENCH_<n>.json.
    # ~1-2 minutes on a laptop.
    "smoke": (
        ("thermal-32x32-s50-f00", _ENGINE_ROUTES),
        ("tactile-32x32-s50-f00", _ENGINE_ROUTES),
        ("ultrasound-32x32-s50-f00", _ENGINE_ROUTES),
        ("thermal-32x32-s50-f10", _SUPERVISED_ROUTES + ("resilient_journal",)),
        ("thermal-128x128-s50-f00", ("serial", "batch_shared")),
        ("thermal-256x256-s50-f00", ("batch_shared",)),
        # Measurement-family smoke cells (tier 2: informational
        # trajectory for the dense-code and block-sampling families;
        # the gated row_sampling cells above are untouched).
        ("thermal-32x32-s50-f00-dense_codes", ("serial", "batch_shared")),
        ("thermal-32x32-s50-f00-block_sampling", ("serial", "batch_shared")),
        # The cells the smoke expectations below judge (tier 2: they
        # are bounded by ratios within one run, not by the trend).
        ("tactile-16x16-s50-f00", ("serial", "serial_uncached")),
        ("thermal-64x64-s50-f00", ("serial", "process")),
    ),
    # The whole matrix: every engine route (incl. the process pool) on
    # every clean cell, supervised routes on every faulted cell, plus
    # the supervised routes' clean-baseline on the tier-1 cells.
    "full": tuple(
        [
            (name, _ALL_ENGINE_ROUTES)
            for name, w in sorted(_WORKLOADS.items())
            if w.fault_rate == 0.0 and w.tier <= 2
        ]
        + [
            (name, _SUPERVISED_ROUTES)
            for name, w in sorted(_WORKLOADS.items())
            if (w.fault_rate > 0.0 or w.tier == 1) and w.tier <= 2
        ]
    ),
}


@dataclass(frozen=True)
class Expectation:
    """A bound one cell of a suite's newest run must meet.

    ``metric`` names a key of the cell's ``metrics`` block or one of
    the ratios :func:`repro.bench.trend.cell_metric` derives;
    ``comparison`` is ``">="`` or ``"<="``.  The ``--trend --gate``
    driver mode fails when the cell misses the bound or is absent.
    """

    workload: str
    route: str
    metric: str
    comparison: str
    bound: float
    reason: str


_EXPECTATIONS: dict[str, tuple[Expectation, ...]] = {
    "smoke": (
        Expectation(
            "tactile-16x16-s50-f00", "serial_uncached", "wall_vs_serial",
            ">=", 1.5,
            "the operator cache must make the serial loop at least 1.5x "
            "faster than per-call rebuilds; a silent bypass reads ~1.0",
        ),
        Expectation(
            "thermal-64x64-s50-f00", "process", "speedup_vs_serial",
            ">=", 1.5,
            "4 process workers must decode the 64x64 stream at least 1.5x "
            "faster than the serial loop; a pool that serialises reads ~1.0",
        ),
        Expectation(
            "thermal-32x32-s50-f10", "resilient_journal", "journal_fraction",
            "<=", 0.10,
            "journal appends and flushes must stay within 10% of the "
            "supervised decode's wall-clock (typically 2-6%)",
        ),
    ),
}


def suite_expectations(suite: str) -> tuple[Expectation, ...]:
    """The expectations a ``suite`` document is gated on (may be empty)."""
    return _EXPECTATIONS.get(suite, ())


def suite_names() -> tuple[str, ...]:
    """The defined suite names."""
    return tuple(sorted(_SUITES))


def suite_cells(suite: str) -> list[tuple[Workload, str]]:
    """Expand a suite into its ``(workload, route name)`` cells.

    Routes are returned as names (resolved by the runner) so suite
    expansion stays import-light; unknown workload names fail here,
    at definition time, rather than mid-run.
    """
    try:
        selections = _SUITES[suite]
    except KeyError:
        raise KeyError(
            f"unknown suite {suite!r}; defined: {suite_names()}"
        ) from None
    cells = []
    for workload_name, route_names in selections:
        workload = get_workload(workload_name)
        for route_name in route_names:
            cells.append((workload, route_name))
    return cells
