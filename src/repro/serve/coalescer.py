"""Batch coalescing: turn dispatched frames into ``decode_batch`` calls.

The throughput half of the decode service.  Each stream owns one frozen
:class:`~repro.core.engine.DecodeContext` plan, so every frame of a
stream is same-shape/same-plan by construction -- exactly the regime
:meth:`~repro.core.engine.DecodeEngine.decode_batch` amortises (one
cached operator template, one operator bind per shared-``Phi`` batch,
fan-out over the shared executor).  The coalescer groups one dispatch
cycle's frames back into per-stream runs (preserving per-stream
submission order, which preserves each stream's RNG consumption order)
and chops them into batches of at most ``max_batch``.

Decode routing per batch:

* **supervised streams** (a ``ResilientDecoder`` attached): one
  :meth:`~repro.resilience.runtime.ResilientDecoder.decode_batch` call
  decodes the frames in order under the stream's plan, unchanged (the
  fallback chain picks each attempt's solver), each frame yielding its
  genuine :class:`~repro.resilience.runtime.DecodeOutcome`;
* **plain streams**: the whole batch goes through ``decode_batch`` on
  the shared executor; each reconstruction is wrapped in a minimal
  ``ok`` outcome so every response speaks the same
  ``DecodeOutcome.to_dict()`` schema;
* **fault containment**: a supervised batch that raises (it validates
  every frame before its first draw) yields a ``"failed"`` outcome per
  frame; a plain batch that raises (chaos injector, a poisoned frame
  that slipped validation) is retried frame-by-frame, and a frame that
  still raises yields a ``"failed"`` outcome carrying the error string
  -- the service never loses a frame to an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import instrument
from ..core.engine import DecodeContext, get_engine
from ..resilience.runtime import DecodeOutcome
from .queueing import PendingFrame

__all__ = ["CoalescedBatch", "Coalescer", "decode_pending"]


@dataclass(frozen=True)
class CoalescedBatch:
    """One same-plan run of pending frames headed for a single decode call."""

    stream: str
    pendings: tuple[PendingFrame, ...]


class Coalescer:
    """Groups a dispatch cycle's frames into per-stream batches.

    Parameters
    ----------
    max_batch:
        Upper bound on frames per ``decode_batch`` call.  Large batches
        amortise better; small ones bound the latency a frame can pick
        up waiting for its batch to finish.
    """

    def __init__(self, max_batch: int = 8):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)

    def coalesce(self, dispatched: list[PendingFrame]) -> list[CoalescedBatch]:
        """Split dispatched frames into per-stream, size-capped batches.

        Frames are grouped by stream with their relative (seq) order
        preserved, then chunked at ``max_batch``.  Group order follows
        first appearance in ``dispatched``, so higher-priority streams
        decode first.
        """
        runs: dict[str, list[PendingFrame]] = {}
        order: list[str] = []
        for pending in dispatched:
            if pending.stream not in runs:
                runs[pending.stream] = []
                order.append(pending.stream)
            runs[pending.stream].append(pending)
        batches: list[CoalescedBatch] = []
        for stream in order:
            frames = runs[stream]
            for start in range(0, len(frames), self.max_batch):
                chunk = tuple(frames[start:start + self.max_batch])
                batches.append(CoalescedBatch(stream=stream, pendings=chunk))
                instrument.incr("serve.coalescer.batches")
                instrument.observe("serve.coalescer.batch_size", len(chunk))
        return batches


def _failed_outcome(shape: tuple, error: Exception) -> DecodeOutcome:
    """A terminal ``failed`` outcome for a frame whose decode raised."""
    return DecodeOutcome(
        frame=np.zeros(shape),
        status="failed",
        solver=None,
        faults_seen=(type(error).__name__,),
    )


def _plain_outcome(reconstruction: np.ndarray, solver: str) -> DecodeOutcome:
    """Wrap a bare engine reconstruction in the shared outcome schema."""
    return DecodeOutcome(frame=reconstruction, status="ok", solver=solver)


def decode_pending(
    batch: CoalescedBatch,
    plan: DecodeContext,
    rng: np.random.Generator,
    decoder=None,
    executor=None,
    shared_phi: bool = False,
) -> list[DecodeOutcome]:
    """Decode one coalesced batch; one terminal outcome per frame.

    ``decoder`` (a :class:`~repro.resilience.runtime.ResilientDecoder`)
    decodes the batch under ``plan`` in one supervised ``decode_batch``
    call, each frame with its own ``Phi_M`` (``shared_phi`` applies to
    plain streams only); without one the batch runs through the
    engine's ``decode_batch`` on ``executor``.  Exceptions never escape
    (see the module docstring).  The plain per-frame fallback replays the
    batch's draws, so a frame the fault did not touch decodes as it
    would have in the batch -- except on a ``shared_phi`` stream, whose
    fallback draws one ``Phi_M`` per frame.
    """
    frames = [p.frame for p in batch.pendings]
    with instrument.span(
        "serve.decode_batch",
        stream=batch.stream,
        frames=len(frames),
        supervised=decoder is not None,
    ):
        if decoder is not None:
            try:
                return decoder.decode_batch(frames, plan, rng)
            except Exception as exc:  # noqa: BLE001 - containment
                instrument.incr("serve.decode_errors", len(frames))
                return [_failed_outcome(plan.shape, exc) for _ in frames]
        engine = get_engine()
        start_state = rng.bit_generator.state
        try:
            reconstructions = engine.decode_batch(
                frames, plan, rng, executor=executor, shared_phi=shared_phi
            )
            return [
                _plain_outcome(r, plan.solver) for r in reconstructions
            ]
        except Exception:  # noqa: BLE001 - retry frame-by-frame
            instrument.incr("serve.batch_retries")
        rng.bit_generator.state = start_state
        outcomes = []
        for frame in frames:
            try:
                outcomes.append(
                    _plain_outcome(
                        engine.decode(frame, plan, rng), plan.solver
                    )
                )
            except Exception as exc:  # noqa: BLE001 - containment
                instrument.incr("serve.decode_errors")
                outcomes.append(_failed_outcome(plan.shape, exc))
        return outcomes
