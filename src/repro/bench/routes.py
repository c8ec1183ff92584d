"""Decode routes: the "how" axis of the evaluation matrix.

A route takes the workload's frame stack and decodes it through one of
the repo's decode paths, returning the reconstructions plus
route-specific extras.  The registered routes cover every layer the
recent PRs added:

========================  ==============================================
route                     decode path
========================  ==============================================
``serial``                per-frame :meth:`DecodeEngine.decode` loop
                          (the reference arm every speedup is against)
``process``               :meth:`DecodeEngine.decode_batch` with a
                          4-worker :class:`ProcessExecutor`
``batch_shared``          :meth:`DecodeEngine.decode_batch` with
                          ``shared_phi=True`` (one sampling pattern, N
                          readouts: one operator bind, then one solve
                          per frame against it)
``resilient``             :class:`ResilientDecoder` under the static
                          default :class:`ResiliencePolicy`, with
                          solver-layer chaos at the workload's
                          ``fault_rate``
``adaptive``              :class:`ResilientDecoder` with an
                          :class:`AdaptivePolicy` feedback controller,
                          same chaos mix
``resilient_journal``     the ``resilient`` path with a
                          :class:`~repro.serve.durability.VerdictJournal`
                          recording every admit + verdict (same decoder,
                          RNG and chaos seeds, so reconstructions are
                          bit-identical to ``resilient``; the journal
                          time is accumulated separately and reported
                          as ``extras["journal_wall_s"]`` -- the
                          ``journal_wall_s / wall_s`` fraction is the
                          overhead the smoke expectations bound)
========================  ==============================================

Engine routes refuse workloads with ``fault_rate > 0`` (an unsupervised
solve would simply raise on an injected fault -- that is the point of
the supervised routes); :meth:`Route.supports` encodes the rule so
suite definitions fail fast instead of mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.executor import ProcessExecutor
from .workloads import Workload

__all__ = [
    "Route",
    "RouteResult",
    "close_pools",
    "get_route",
    "register_route",
    "route_names",
]

_EXECUTOR_WORKERS = 4
"""Pool size of the ``process`` route."""

_POOL = ProcessExecutor(_EXECUTOR_WORKERS)
"""The ``process`` route's executor, shared across a suite run.

Its pool is built on first use, so the process fork and per-worker
import storm land in the warm-up decode of the first cell that uses
the route, not in a timed repeat.  The runner calls
:func:`close_pools` when the suite finishes.
"""


def close_pools() -> None:
    """Shut down the suite-lifetime process pool (idempotent)."""
    _POOL.close()


@dataclass(frozen=True)
class RouteResult:
    """What a route hands back to the runner.

    ``reconstructions`` aligns with the input frame stack;
    ``delivered`` / ``ok`` count frames that arrived at all vs arrived
    healthy on the first try (identical to ``len(frames)`` for the
    unsupervised engine routes, which either succeed or raise);
    ``extras`` carries route-specific JSON-safe diagnostics.
    """

    reconstructions: list
    delivered: int
    ok: int
    extras: dict


@dataclass(frozen=True)
class Route:
    """A named decode route plus its workload-applicability rule."""

    name: str
    description: str
    runner: Callable[[np.ndarray, Workload, int], RouteResult]
    supervised: bool = False

    def supports(self, workload: Workload) -> bool:
        """Whether this route can run ``workload`` at all."""
        return self.supervised or workload.fault_rate == 0.0

    def run(
        self, frames: np.ndarray, workload: Workload, seed: int
    ) -> RouteResult:
        """Decode ``frames`` under ``workload``; see :class:`RouteResult`."""
        if not self.supports(workload):
            raise ValueError(
                f"route {self.name!r} cannot run workload "
                f"{workload.name!r} (fault_rate={workload.fault_rate}); "
                "only supervised routes accept injected faults"
            )
        return self.runner(frames, workload, seed)


def _plan(workload: Workload):
    from ..core import DecodeContext

    return DecodeContext(
        shape=workload.shape,
        sampling_fraction=workload.sampling_fraction,
        solver=workload.solver,
        measurement=workload.measurement,
    )


def _run_serial(frames, workload: Workload, seed: int) -> RouteResult:
    """A per-frame :meth:`DecodeEngine.decode` loop over one ``rng``."""
    from ..core import get_engine

    engine = get_engine()
    plan = _plan(workload)
    rng = np.random.default_rng(seed)
    recons = [engine.decode(frame, plan, rng) for frame in frames]
    return RouteResult(recons, len(recons), len(recons), {})


def _run_process(frames, workload: Workload, seed: int) -> RouteResult:
    from ..core import get_engine

    plan = _plan(workload)
    rng = np.random.default_rng(seed)
    recons = get_engine().decode_batch(
        list(frames), plan, rng, executor=_POOL
    )
    return RouteResult(
        recons,
        len(recons),
        len(recons),
        {"executor": "process", "workers": _EXECUTOR_WORKERS},
    )


def _run_batch_shared(frames, workload: Workload, seed: int) -> RouteResult:
    from ..core import get_engine

    plan = _plan(workload)
    rng = np.random.default_rng(seed)
    recons = get_engine().decode_batch(
        list(frames), plan, rng, shared_phi=True
    )
    return RouteResult(recons, len(recons), len(recons), {"shared_phi": True})


def _run_supervised(adaptive: bool):
    def runner(frames, workload: Workload, seed: int) -> RouteResult:
        from ..resilience import (
            AdaptivePolicy,
            ResilientDecoder,
            chaos,
            default_taxonomy,
        )

        decoder = ResilientDecoder(
            adaptive=AdaptivePolicy() if adaptive else None
        )
        plan = _plan(workload)
        rng = np.random.default_rng(seed)
        statuses: list[str] = []
        faults: set[str] = set()
        recons = []

        def decode_all() -> None:
            for frame in frames:
                outcome = decoder.decode(frame, plan, rng)
                recons.append(outcome.frame)
                statuses.append(outcome.status)
                faults.update(outcome.faults_seen)

        if workload.fault_rate > 0.0:
            injectors = default_taxonomy(workload.fault_rate, seed=seed)
            with chaos(*injectors):
                decode_all()
        else:
            decode_all()
        delivered = sum(1 for s in statuses if s in ("ok", "degraded"))
        ok = sum(1 for s in statuses if s == "ok")
        return RouteResult(
            recons,
            delivered,
            ok,
            {
                "adaptive": adaptive,
                "statuses": statuses,
                "faults_seen": sorted(faults),
            },
        )

    return runner


def _run_resilient_journal(frames, workload: Workload, seed: int) -> RouteResult:
    from tempfile import TemporaryDirectory
    from time import perf_counter

    from ..resilience import ResilientDecoder, chaos, default_taxonomy
    from ..serve.durability import VerdictJournal, pack_frame

    decoder = ResilientDecoder()
    plan = _plan(workload)
    rng = np.random.default_rng(seed)
    statuses: list[str] = []
    faults: set[str] = set()
    recons = []
    # Journal time is accumulated around every journal touch so the
    # cell can report the overhead *fraction* directly: journal_wall_s /
    # wall_s is measured within one pass, so decode noise inflates both
    # sides together.
    journal_wall = 0.0
    with TemporaryDirectory() as tmp:
        journal_path = f"{tmp}/bench_journal.jsonl"
        # Group-commit batching mirrors the service's once-per-cycle
        # flush; per-record fsync would swamp the 10% overhead budget.
        tick = perf_counter()
        journal = VerdictJournal(journal_path, sync_every=32)
        journal_wall += perf_counter() - tick

        def decode_all() -> None:
            nonlocal journal_wall
            for index, frame in enumerate(frames):
                seq = index + 1
                tick = perf_counter()
                journal.append(
                    "admit",
                    {
                        "seq": seq,
                        "stream": "bench",
                        "tenant": "bench",
                        "priority": 0,
                        "submitted_at": 0.0,
                        "deadline": None,
                        "frame": pack_frame(frame),
                    },
                )
                journal_wall += perf_counter() - tick
                outcome = decoder.decode(frame, plan, rng)
                recons.append(outcome.frame)
                statuses.append(outcome.status)
                faults.update(outcome.faults_seen)
                tick = perf_counter()
                journal.append(
                    "verdict",
                    {
                        "seq": seq,
                        "stream": "bench",
                        "tenant": "bench",
                        "priority": 0,
                        "status": outcome.status,
                        "reason": None,
                        "cycle": seq,
                        "deadline_missed": False,
                        "recovered": False,
                        "solver": outcome.solver,
                    },
                )
                journal_wall += perf_counter() - tick

        try:
            if workload.fault_rate > 0.0:
                injectors = default_taxonomy(workload.fault_rate, seed=seed)
                with chaos(*injectors):
                    decode_all()
            else:
                decode_all()
            tick = perf_counter()
            journal.flush()
            journal_wall += perf_counter() - tick
            journal_bytes = journal.path.stat().st_size
        finally:
            journal.close()
    delivered = sum(1 for s in statuses if s in ("ok", "degraded"))
    ok = sum(1 for s in statuses if s == "ok")
    return RouteResult(
        recons,
        delivered,
        ok,
        {
            "journalled": True,
            "journal_records": 2 * len(frames),
            "journal_bytes": journal_bytes,
            "journal_wall_s": journal_wall,
            "statuses": statuses,
            "faults_seen": sorted(faults),
        },
    )


_ROUTES: dict[str, Route] = {
    route.name: route
    for route in (
        Route(
            "serial",
            "per-frame engine decode loop (speedup reference)",
            _run_serial,
        ),
        Route(
            "process",
            f"decode_batch over a {_EXECUTOR_WORKERS}-worker process pool",
            _run_process,
        ),
        Route(
            "batch_shared",
            "decode_batch(shared_phi=True): one Phi and one operator "
            "bind per batch",
            _run_batch_shared,
        ),
        Route(
            "resilient",
            "ResilientDecoder under the static default policy",
            _run_supervised(adaptive=False),
            supervised=True,
        ),
        Route(
            "adaptive",
            "ResilientDecoder with the AdaptivePolicy controller",
            _run_supervised(adaptive=True),
            supervised=True,
        ),
        Route(
            "resilient_journal",
            "the resilient route with a write-ahead verdict journal "
            "(bit-identical reconstructions; the delta is journal "
            "overhead)",
            _run_resilient_journal,
            supervised=True,
        ),
    )
}


def register_route(route: Route) -> None:
    """Add (or replace) a decode route in the registry."""
    _ROUTES[route.name] = route


def get_route(name: str) -> Route:
    """Look up a registered route by name."""
    try:
        return _ROUTES[name]
    except KeyError:
        raise KeyError(
            f"unknown route {name!r}; registered: {route_names()}"
        ) from None


def route_names() -> tuple[str, ...]:
    """All registered route names, sorted."""
    return tuple(sorted(_ROUTES))
