"""Tests for batch coalescing and decode routing (repro.serve.coalescer)."""

import numpy as np
import pytest

from repro.core.engine import DecodeContext
from repro.serve import CoalescedBatch, Coalescer, PendingFrame, decode_pending


def _pending(seq, stream="s", frame=None):
    return PendingFrame(
        seq=seq,
        stream=stream,
        tenant="t",
        priority=0,
        frame=np.zeros((6, 6)) if frame is None else frame,
        submitted_at=0.0,
    )


def _plan():
    return DecodeContext(
        shape=(6, 6),
        sampling_fraction=0.6,
        solver_options={"max_iterations": 40},
    )


class TestCoalescer:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            Coalescer(max_batch=0)

    def test_groups_by_stream_preserving_order(self):
        dispatched = [
            _pending(1, "a"), _pending(2, "b"),
            _pending(3, "a"), _pending(4, "b"),
        ]
        batches = Coalescer(max_batch=8).coalesce(dispatched)
        assert [(b.stream, [p.seq for p in b.pendings]) for b in batches] == [
            ("a", [1, 3]),
            ("b", [2, 4]),
        ]

    def test_chunks_at_max_batch(self):
        dispatched = [_pending(s, "a") for s in range(1, 6)]
        batches = Coalescer(max_batch=2).coalesce(dispatched)
        assert [len(b.pendings) for b in batches] == [2, 2, 1]

    def test_empty_dispatch(self):
        assert Coalescer().coalesce([]) == []


class TestDecodePending:
    def test_plain_batch_yields_ok_outcomes(self):
        rng = np.random.default_rng(0)
        frames = np.random.default_rng(1).random((3, 6, 6))
        batch = CoalescedBatch(
            stream="s", pendings=tuple(
                _pending(i + 1, frame=frames[i]) for i in range(3)
            ),
        )
        outcomes = decode_pending(batch, _plan(), rng)
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        assert all(o.frame.shape == (6, 6) for o in outcomes)

    def test_plain_batch_matches_engine_decode_batch_bitwise(self):
        from repro.core.engine import get_engine

        frames = list(np.random.default_rng(1).random((3, 6, 6)))
        batch = CoalescedBatch(
            stream="s",
            pendings=tuple(
                _pending(i + 1, frame=f) for i, f in enumerate(frames)
            ),
        )
        outcomes = decode_pending(batch, _plan(), np.random.default_rng(0))
        reference = get_engine().decode_batch(
            frames, _plan(), np.random.default_rng(0)
        )
        for outcome, ref in zip(outcomes, reference):
            np.testing.assert_array_equal(outcome.frame, ref)

    def test_supervised_streams_decode_through_the_decoder(self):
        """One ``decode_batch`` call equals per-frame ``decode`` bit for
        bit, chaos and all: outcomes, attempts and RNG position."""
        from repro.resilience import (
            ResiliencePolicy,
            chaos,
            default_taxonomy,
        )
        from repro.resilience.health import FrameGuard
        from repro.resilience.runtime import ResilientDecoder

        plan = _plan()
        frames = list(np.random.default_rng(1).random((8, 6, 6)))
        batch = CoalescedBatch(
            stream="s",
            pendings=tuple(
                _pending(i + 1, frame=f) for i, f in enumerate(frames)
            ),
        )

        def run(per_frame):
            decoder = ResilientDecoder(
                policy=ResiliencePolicy(), guard=FrameGuard()
            )
            rng = np.random.default_rng(0)
            with chaos(*default_taxonomy(0.2, seed=3)):
                if not per_frame:
                    return decode_pending(batch, plan, rng, decoder), rng
                return [decoder.decode(f, plan, rng) for f in frames], rng

        outcomes, rng = run(per_frame=False)
        reference, ref_rng = run(per_frame=True)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert any(o.faults_seen for o in reference)  # chaos did land
        for got, ref in zip(outcomes, reference):
            np.testing.assert_array_equal(got.frame, ref.frame)
            assert (got.status, got.solver) == (ref.status, ref.solver)
            assert [(a.solver, a.status) for a in got.attempts] == [
                (a.solver, a.status) for a in ref.attempts
            ]

    def test_supervised_batch_that_raises_fails_every_frame(self):
        """``decode_batch`` validates every frame before its first draw,
        so a poisoned frame fails the batch with nothing decoded.  (The
        service's admission rejects such frames before they queue.)"""
        from repro.resilience.runtime import ResilientDecoder

        poisoned = np.zeros((6, 6))
        poisoned[2, 3] = np.nan
        batch = CoalescedBatch(
            stream="s",
            pendings=(_pending(1), _pending(2, frame=poisoned), _pending(3)),
        )
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        outcomes = decode_pending(
            batch, _plan(), rng, decoder=ResilientDecoder()
        )
        assert [o.status for o in outcomes] == ["failed"] * 3
        assert all(o.faults_seen == ("ValueError",) for o in outcomes)
        assert rng.bit_generator.state == before

    def test_plain_fallback_replays_the_batch_draws(self):
        """A solve fault in one batch moves no delivered frame: the
        per-frame fallback starts from the RNG state the batch did."""
        from repro.resilience.chaos import chaos

        class FailOnce:
            def __init__(self, call):
                self.call, self.calls = call, 0

            def before_solve(self, name, operator, b):
                self.calls += 1
                if self.calls == self.call:
                    raise RuntimeError("one injected solve fault")
                return b

        frames = np.random.default_rng(1).random((12, 6, 6))
        batches = [
            CoalescedBatch(
                stream="s",
                pendings=tuple(
                    _pending(4 * b + i + 1, frame=frames[4 * b + i])
                    for i in range(4)
                ),
            )
            for b in range(3)
        ]

        def run(*hooks):
            rng = np.random.default_rng(0)
            with chaos(*hooks):
                return [
                    o for b in batches for o in decode_pending(b, _plan(), rng)
                ]

        clean = run()
        hook = FailOnce(call=2)  # the second frame of the first batch
        faulted = run(hook)
        assert hook.calls > 12  # the first batch was re-decoded
        assert [o.status for o in faulted] == ["ok"] * 12
        for got, ref in zip(faulted, clean):
            np.testing.assert_array_equal(got.frame, ref.frame)

    def test_total_failure_is_contained_as_failed_outcomes(self):
        from repro.resilience.chaos import SolverExceptionInjector, chaos

        batch = CoalescedBatch(
            stream="s", pendings=(_pending(1), _pending(2)),
        )
        with chaos(SolverExceptionInjector(rate=1.0, seed=0)):
            outcomes = decode_pending(
                batch, _plan(), np.random.default_rng(0)
            )
        assert [o.status for o in outcomes] == ["failed", "failed"]
        assert all(o.faults_seen == ("InjectedFault",) for o in outcomes)
        assert all(np.all(o.frame == 0.0) for o in outcomes)
