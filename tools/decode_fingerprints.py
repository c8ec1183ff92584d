#!/usr/bin/env python
"""Fingerprint the outputs of every supervised and tiled decode entry point.

Runs a fixed set of seeded scenarios through the streaming imager, the
block processor, the resilient decoder and strategy, the decode
service, the burst decoder, the theory experiments and the temperature
example, and prints one ``name frame_hash verdict_hash`` line per
scenario.  The frame hash
covers the delivered frames bit for bit plus the per-frame status and
solver, so two checkouts that print the same lines decode identically.
The verdict hash covers only the per-frame status and solver, so a
change that moves frames on purpose (a solver's stopping rule) can
show that no verdict moved; the four solve-step scenarios have no
verdicts and print ``-``.

Usage (compare two checkouts)::

    PYTHONPATH=src python tools/decode_fingerprints.py > after.txt
    PYTHONPATH=../other/src python tools/decode_fingerprints.py > before.txt
    diff before.txt after.txt
    diff <(cut -d' ' -f1,3 before.txt) <(cut -d' ' -f1,3 after.txt)

The second ``diff`` compares verdicts only.

The process-pool service stream runs only without chaos: pool workers
start with no fault hooks, so an injector would not reach its solves.
Plain service streams run only without faults: their per-frame fallback
after a faulted batch is a containment path, not a decode route.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.array import (
    ActiveMatrix,
    FlexibleEncoder,
    ReadoutChain,
    StreamingImager,
)
from repro.core import NaiveStrategy, OracleExclusionStrategy
from repro.core.blocks import BlockProcessor
from repro.core.engine import DecodeContext
from repro.core.errors import SparseErrorModel
from repro.core.executor import ProcessExecutor
from repro.core.video import reconstruct_burst
from repro.experiments.theory_checks import (
    run_eq1_phase_transition,
    run_eq2_bound,
)
from repro.resilience import (
    AdaptivePolicy,
    ResiliencePolicy,
    ResilientDecoder,
    ResilientStrategy,
    RetryPolicy,
    chaos,
    default_taxonomy,
)
from repro.resilience.array_chaos import (
    AdcBitFlipInjector,
    StuckPixelRowInjector,
)
from repro.serve import DecodeService, StreamConfig, TenantConfig, VirtualClock

#: The checkout whose ``repro`` is imported (its examples run too).
CHECKOUT = Path(repro.__file__).resolve().parents[2]


def _digest(items) -> str:
    """SHA-256 over arrays (bytes + shape) and strings, in order."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(repr(item.shape).encode())
            h.update(np.ascontiguousarray(item, dtype=float).tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def _scene(count=6, shape=(16, 16)):
    r, c = np.mgrid[0:shape[0], 0:shape[1]]
    frames = []
    for k in range(count):
        cy = shape[0] * (0.45 + 0.1 * np.sin(0.25 * k))
        cx = shape[1] * (0.5 + 0.12 * np.cos(0.2 * k))
        blob = np.exp(-((r - cy) ** 2 + (c - cx) ** 2) / 12.0)
        frames.append(np.clip(0.15 + 0.8 * blob, 0.0, 1.0))
    return np.stack(frames)


def _solver_chaos():
    return chaos(*default_taxonomy(0.3, seed=4))


def _array_chaos():
    return chaos(
        StuckPixelRowInjector(rate=0.2, seed=100),
        AdcBitFlipInjector(rate=0.2, seed=101),
    )


def _one_pass_policy():
    """One pass over the chain, no breaker: the default policy's chain
    and health checks without its retry rounds and breaker."""
    return ResiliencePolicy(retry=RetryPolicy(max_rounds=1), breaker=None)


def _imager(
    policy=None, adaptive=None, rpca=False, measurement="row_sampling"
):
    encoder = FlexibleEncoder(
        ActiveMatrix((16, 16)),
        readout=ReadoutChain(noise_sigma_v=0.0, sh_droop=0.0, adc_bits=12),
    )
    extra = {}
    if rpca:
        extra = dict(
            error_model=SparseErrorModel(transient_rate=0.06, seed=7),
            rpca_window=4,
        )
    return StreamingImager(
        encoder,
        sampling_fraction=0.55,
        policy=policy,
        adaptive=adaptive,
        measurement=measurement,
        seed=0,
        **extra,
    )


def _hashes(frames, verdicts) -> tuple[str, str]:
    """``(frame_hash, verdict_hash)`` over per-frame outputs and verdicts.

    ``verdicts`` holds one ``(status, solver)`` pair per frame; the
    frame hash interleaves them with the frames.
    """
    items = []
    for frame, (status, solver) in zip(frames, verdicts):
        items += [np.asarray(frame), status, solver]
    return _digest(items), _digest(v for pair in verdicts for v in pair)


def _records(records) -> tuple[str, str]:
    return _hashes(
        [r.reconstructed for r in records],
        [(r.status, r.solver) for r in records],
    )


def _outcomes(outcomes) -> tuple[str, str]:
    return _hashes(
        [o.frame for o in outcomes],
        [(o.status, o.solver) for o in outcomes],
    )


def imager_scenarios():
    """The streaming imager: clean, RPCA, chaos, static/adaptive."""
    scene = _scene()
    cases = {
        "imager/clean": lambda: _imager().stream(scene),
        "imager/rpca": lambda: _imager(rpca=True).stream(scene),
        "imager/policy": lambda: _imager(ResiliencePolicy()).stream(scene),
        "imager/policy/rpca": lambda: _imager(
            ResiliencePolicy(), rpca=True
        ).stream(scene),
        "imager/policy/dense_codes": lambda: _imager(
            ResiliencePolicy(), measurement="dense_codes"
        ).stream(scene[:3]),
        "imager/adaptive": lambda: _imager(adaptive=AdaptivePolicy()).stream(
            scene
        ),
    }
    for name, run in cases.items():
        yield name, _records(run())
    for label, make_chaos in (
        ("solver-chaos", _solver_chaos),
        ("array-chaos", _array_chaos),
    ):
        with make_chaos():
            records = _imager(ResiliencePolicy()).stream(scene)
        yield f"imager/policy/{label}", _records(records)
        with make_chaos():
            records = _imager(_one_pass_policy()).stream(scene)
        yield f"imager/one-pass-policy/{label}", _records(records)
        with make_chaos():
            records = _imager(adaptive=AdaptivePolicy()).stream(scene)
        yield f"imager/adaptive/{label}", _records(records)


def _tiles(strategy=None, mask=None):
    processor = BlockProcessor(
        block_shape=(16, 16),
        overlap=4,
        sampling_fraction=0.6,
        strategy=strategy,
    )
    frame = _scene(1, (40, 36))[0]
    out = processor.reconstruct(
        frame, np.random.default_rng(3), exclude_mask=mask
    )
    outcomes = processor.last_outcomes or []
    verdicts = [o.status for _, o in outcomes] + [o.solver for _, o in outcomes]
    return _digest([out] + verdicts), _digest(verdicts)


def block_scenarios():
    """BlockProcessor with and without a strategy, masked, under chaos."""
    mask = np.zeros((40, 36), dtype=bool)
    mask[3, :] = True
    mask[:16, :16] = True
    yield "blocks/engine/none", _tiles()
    yield "blocks/engine/none/masked", _tiles(mask=mask)
    yield "blocks/strategy/none", _tiles(
        ResilientStrategy(NaiveStrategy(sampling_fraction=0.6))
    )
    with _solver_chaos():
        digest = _tiles(
            ResilientStrategy(NaiveStrategy(sampling_fraction=0.6))
        )
    yield "blocks/strategy/none/solver-chaos", digest


def supervised_scenarios():
    """The resilient decoder and strategy, clean and under chaos."""
    frames = _scene(6, (12, 12))
    plan = DecodeContext(shape=(12, 12), sampling_fraction=0.6)
    for label, context in (
        ("clean", contextlib.nullcontext),
        ("solver-chaos", _solver_chaos),
    ):
        decoder = ResilientDecoder()
        rng = np.random.default_rng(5)
        with context():
            outcomes = [decoder.decode(f, plan, rng) for f in frames]
        yield f"decoder/{label}", _outcomes(outcomes)
        for inner in (
            NaiveStrategy(sampling_fraction=0.6),
            OracleExclusionStrategy(sampling_fraction=0.6),
        ):
            strategy = ResilientStrategy(inner)
            rng = np.random.default_rng(6)
            outcomes = []
            with context():
                for f in frames:
                    strategy.reconstruct(f, rng)
                    outcomes.append(strategy.last_outcome)
            yield (
                f"strategy/{type(inner).__name__}/{label}",
                _outcomes(outcomes),
            )
    # A strict policy delivers only converged solves, so a fallback link
    # counts only if it stops at a tolerance it reaches.
    decoder = ResilientDecoder(
        policy=ResiliencePolicy(accept_nonconverged=False)
    )
    rng = np.random.default_rng(5)
    with chaos(*default_taxonomy(0.2)):
        outcomes = [decoder.decode(f, plan, rng) for f in frames]
    yield "decoder/strict-policy/solver-chaos", _outcomes(outcomes)


def _serve(
    executor=None, journal=None, plan_fields=None, **stream
) -> tuple[str, str]:
    """24 frames of 16x16 through one service stream, 8 per cycle.

    ``plan_fields`` adds :class:`DecodeContext` fields to the stream's
    plan.
    """
    service = DecodeService(
        executor=executor, clock=VirtualClock(), journal=journal
    )
    service.register_tenant(TenantConfig("fp"))
    plan = DecodeContext(
        shape=(16, 16),
        sampling_fraction=0.55,
        noise_sigma=0.01,
        **(plan_fields or {}),
    )
    service.register_stream(
        StreamConfig(name="fp/s", tenant="fp", plan=plan, seed=9, **stream)
    )
    scene = _scene(24)
    for start in range(0, len(scene), 8):
        for frame in scene[start:start + 8]:
            service.submit("fp/s", frame)
        service.run_cycle()
    if service.executor is not None:
        service.executor.close()
    verdicts = service.verdicts()
    return _hashes(
        [v.delivered_frame for v in verdicts],
        [(v.status, v.outcome and v.outcome.solver) for v in verdicts],
    )


def serve_scenarios():
    """The decode service: plain, shared-Phi, supervised, journalled."""
    yield "serve/plain", _serve()
    # Block codes state no norm: the one service stream whose FISTA
    # solves backtrack their step.
    yield "serve/plain/block_sampling", _serve(
        plan_fields={"measurement": "block_sampling"}
    )
    # One dense Bernoulli code per frame, as perfbench's dense_codes
    # workload serves them.
    yield "serve/plain/dense_codes", _serve(
        plan_fields={"measurement": "dense_codes"}
    )
    yield "serve/plain/process", _serve(executor=ProcessExecutor(2))
    yield "serve/shared-phi", _serve(shared_phi=True)
    yield "serve/policy", _serve(policy=ResiliencePolicy())
    # Centre-weighted sampling in the Haar basis: a supervised stream
    # must decode under these plan fields too.
    r, c = np.mgrid[0:16, 0:16]
    weights = 1.0 + np.exp(-((r - 7.5) ** 2 + (c - 7.5) ** 2) / 32.0)
    yield "serve/policy/haar2-weighted", _serve(
        policy=ResiliencePolicy(),
        plan_fields={"basis": "haar2", "weights": weights},
    )
    with _solver_chaos():
        digest = _serve(policy=ResiliencePolicy())
    yield "serve/policy/solver-chaos", digest
    with _solver_chaos():
        digest = _serve(adaptive=AdaptivePolicy())
    yield "serve/adaptive/solver-chaos", digest
    with tempfile.TemporaryDirectory() as tmp, _solver_chaos():
        journal = Path(tmp) / "verdicts.journal"
        digest = _serve(journal=journal, policy=ResiliencePolicy())
    yield "serve/policy/solver-chaos/journalled", digest


def solve_step_scenarios():
    """Callers of the engine's solve step outside the supervised loops."""
    burst = _scene(4, (8, 8))
    yield "video/burst", (
        _digest([reconstruct_burst(burst, 0.5, np.random.default_rng(2))]),
        "-",
    )
    eq1 = run_eq1_phase_transition(
        shape=(8, 8), sparsities=(4,), m_grid=(0.4, 0.7), trials=2
    )
    yield "theory/eq1", (_digest([p.success_rate for p in eq1]), "-")
    eq2 = run_eq2_bound(shape=(8, 8), sparsity=8)
    yield "theory/eq2", (_digest([p.observed_rmse_l2 for p in eq2]), "-")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(
            str(CHECKOUT / "examples" / "temperature_imaging.py"),
            run_name="__main__",
        )
    yield "example/temperature_imaging", (_digest([out.getvalue()]), "-")


#: Scenario groups in the order ``main`` prints them.
GROUPS = (
    imager_scenarios,
    block_scenarios,
    supervised_scenarios,
    serve_scenarios,
    solve_step_scenarios,
)


def main() -> int:
    """Print ``name frame_hash verdict_hash`` per scenario; returns 0."""
    for group in GROUPS:
        for name, (frame_hash, verdict_hash) in group():
            print(f"{name} {frame_hash} {verdict_hash}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
