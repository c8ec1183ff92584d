"""Tests for the deterministic service core (repro.serve.service)."""

import json

import numpy as np
import pytest

from repro.core.engine import DecodeContext, DecodeEngine
from repro.core.measurement import DenseCodeMatrix
from repro.resilience import AdaptivePolicy, ResiliencePolicy
from repro.serve import (
    DecodeService,
    Quota,
    StreamConfig,
    TenantConfig,
    VirtualClock,
)
from repro.serve.admission import REJECTION_REASONS
from repro.serve.service import SERVE_SCHEMA


def _plan(shape=(6, 6)):
    return DecodeContext(
        shape=shape,
        sampling_fraction=0.6,
        solver_options={"max_iterations": 40},
    )


def _service(**kwargs):
    clock = kwargs.pop("clock", VirtualClock())
    service = DecodeService(clock=clock, **kwargs)
    service.register_tenant(TenantConfig("lab", priority=0))
    service.register_stream(
        StreamConfig(name="lab/s0", tenant="lab", plan=_plan())
    )
    return service, clock


def _frame(seed=0, shape=(6, 6)):
    return np.random.default_rng(seed).random(shape)


class TestRegistration:
    def test_stream_requires_registered_tenant(self):
        service = DecodeService(clock=VirtualClock())
        with pytest.raises(KeyError, match="unknown tenant"):
            service.register_stream(
                StreamConfig(name="s", tenant="ghost", plan=_plan())
            )

    def test_duplicate_stream_rejected(self):
        service, _ = _service()
        with pytest.raises(ValueError, match="already registered"):
            service.register_stream(
                StreamConfig(name="lab/s0", tenant="lab", plan=_plan())
            )

    def test_unknown_stream_submit_is_a_caller_bug(self):
        service, _ = _service()
        with pytest.raises(KeyError, match="unknown stream"):
            service.submit("ghost", _frame())

    def test_supervised_stream_samples_with_the_plan_family(
        self, monkeypatch
    ):
        drawn = []
        draw = DecodeEngine.__dict__["_draw_phi"].__func__

        def spy(*args, **kwargs):
            phi = draw(*args, **kwargs)
            drawn.append(phi)
            return phi

        monkeypatch.setattr(DecodeEngine, "_draw_phi", staticmethod(spy))
        plan = DecodeContext(
            shape=(6, 6),
            sampling_fraction=0.6,
            measurement="dense_codes",
        )
        service = DecodeService(clock=VirtualClock())
        service.register_tenant(TenantConfig("lab"))
        service.register_stream(
            StreamConfig(
                name="lab/s0",
                tenant="lab",
                plan=plan,
                policy=ResiliencePolicy(),
            )
        )
        service.submit("lab/s0", _frame())
        (verdict,) = service.run_cycle()
        assert verdict.status in ("decoded", "degraded")
        assert drawn
        assert all(isinstance(phi, DenseCodeMatrix) for phi in drawn)

    @pytest.mark.parametrize(
        "supervision",
        [{"policy": ResiliencePolicy()}, {"adaptive": AdaptivePolicy()}],
    )
    def test_shared_phi_rejected_on_supervised_streams(self, supervision):
        service = DecodeService(clock=VirtualClock())
        service.register_tenant(TenantConfig("lab"))
        with pytest.raises(ValueError, match="shared_phi"):
            service.register_stream(
                StreamConfig(
                    name="lab/s0",
                    tenant="lab",
                    plan=_plan(),
                    shared_phi=True,
                    **supervision,
                )
            )
        # Plain streams keep the shared pattern.
        service.register_stream(
            StreamConfig(
                name="lab/s1", tenant="lab", plan=_plan(), shared_phi=True
            )
        )

    @pytest.mark.parametrize(
        "supervision", [{}, {"policy": ResiliencePolicy()}]
    )
    def test_plan_that_excludes_every_pixel_rejected(self, supervision):
        # The plan itself builds; no frame could ever decode under it,
        # so the stream must not register (and then admit frames only
        # to fail each one).
        plan = DecodeContext(
            shape=(6, 6),
            sampling_fraction=0.6,
            exclude_mask=np.ones((6, 6), dtype=bool),
        )
        service = DecodeService(clock=VirtualClock())
        service.register_tenant(TenantConfig("lab"))
        with pytest.raises(ValueError, match="no pixels to sample"):
            service.register_stream(
                StreamConfig(
                    name="lab/s0", tenant="lab", plan=plan, **supervision
                )
            )
        with pytest.raises(KeyError, match="unknown stream"):
            service.submit("lab/s0", _frame())
        # One pixel left to sample is enough to register.
        mask = np.ones((6, 6), dtype=bool)
        mask[0, 0] = False
        service.register_stream(
            StreamConfig(
                name="lab/s1",
                tenant="lab",
                plan=DecodeContext(
                    shape=(6, 6), sampling_fraction=0.6, exclude_mask=mask
                ),
                **supervision,
            )
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="cycle_budget"):
            DecodeService(cycle_budget=0)
        with pytest.raises(ValueError, match="backlog_limit"):
            DecodeService(backlog_limit=-1)


class TestSubmission:
    def test_accepted_ticket(self):
        service, _ = _service()
        ticket = service.submit("lab/s0", _frame())
        assert ticket.status == "accepted"
        assert ticket.admitted
        assert ticket.reason is None
        assert ticket.queue_depth == 1

    def test_backpressure_signal_past_high_water(self):
        service = DecodeService(clock=VirtualClock())
        service.register_tenant(TenantConfig("lab"))
        service.register_stream(
            StreamConfig(
                name="lab/s0", tenant="lab", plan=_plan(), queue_limit=4
            )
        )
        statuses = [
            service.submit("lab/s0", _frame()).status for _ in range(5)
        ]
        assert statuses == [
            "accepted", "queued", "queued", "queued", "rejected",
        ]

    def test_queue_full_rejection(self):
        service = DecodeService(clock=VirtualClock())
        service.register_tenant(TenantConfig("lab"))
        service.register_stream(
            StreamConfig(
                name="lab/s0", tenant="lab", plan=_plan(), queue_limit=1
            )
        )
        assert service.submit("lab/s0", _frame()).admitted
        ticket = service.submit("lab/s0", _frame())
        assert (ticket.status, ticket.reason) == ("rejected", "queue_full")

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((3, 3)),  # wrong shape
            np.full((6, 6), np.nan),
            np.full((6, 6), np.inf),
        ],
    )
    def test_invalid_frames_rejected(self, bad):
        service, _ = _service()
        ticket = service.submit("lab/s0", bad)
        assert (ticket.status, ticket.reason) == ("rejected", "invalid_frame")

    def test_unsatisfiable_deadline_rejected_upfront(self):
        service, _ = _service()
        ticket = service.submit("lab/s0", _frame(), deadline_s=0.0)
        assert ticket.reason == "deadline_unsatisfiable"

    def test_quota_rejections_carry_the_reason(self):
        service = DecodeService(clock=VirtualClock())
        service.register_tenant(
            TenantConfig("lab", quota=Quota(rate=0.0, burst=2))
        )
        service.register_stream(
            StreamConfig(name="lab/s0", tenant="lab", plan=_plan())
        )
        tickets = [service.submit("lab/s0", _frame()) for _ in range(3)]
        assert [t.status for t in tickets] == [
            "accepted", "accepted", "rejected",
        ]
        assert tickets[2].reason == "tenant_rate_exceeded"

    def test_ticket_to_dict_is_schema_tagged_json(self):
        service, _ = _service()
        payload = json.loads(
            json.dumps(service.submit("lab/s0", _frame()).to_dict())
        )
        assert payload["schema"] == SERVE_SCHEMA
        assert payload["status"] == "accepted"


class TestDispatch:
    def test_plain_decode_verdict(self):
        service, _ = _service()
        ticket = service.submit("lab/s0", _frame())
        (verdict,) = service.run_cycle()
        assert verdict.seq == ticket.seq
        assert verdict.status == "decoded"
        assert verdict.reason is None
        assert verdict.delivered_frame.shape == (6, 6)
        assert not verdict.deadline_missed

    def test_verdict_to_dict_nests_the_outcome_schema(self):
        service, _ = _service()
        service.submit("lab/s0", _frame())
        (verdict,) = service.run_cycle()
        payload = json.loads(json.dumps(verdict.to_dict()))
        assert payload["schema"] == SERVE_SCHEMA
        assert payload["outcome"]["schema"] == "repro.outcome/v1"
        assert payload["outcome"]["status"] == "ok"

    def test_deadline_expiry_cancels_instead_of_decoding(self):
        service, clock = _service()
        ticket = service.submit("lab/s0", _frame(), deadline_s=1.0)
        clock.advance(2.0)
        (verdict,) = service.run_cycle()
        assert verdict.seq == ticket.seq
        assert (verdict.status, verdict.reason) == ("shed", "deadline_expired")
        assert verdict.deadline_missed
        assert verdict.outcome is None

    def test_overload_shed_answers_every_frame(self):
        service = DecodeService(
            clock=VirtualClock(), cycle_budget=2, backlog_limit=1
        )
        service.register_tenant(TenantConfig("lab"))
        service.register_stream(
            StreamConfig(
                name="lab/s0", tenant="lab", plan=_plan(), queue_limit=16
            )
        )
        tickets = [service.submit("lab/s0", _frame(i)) for i in range(5)]
        assert all(t.admitted for t in tickets)
        verdicts = service.run_cycle()
        by_status = {}
        for v in verdicts:
            by_status.setdefault(v.status, []).append(v.seq)
        # 2 decoded (the budget), 2 shed (backlog 3 > limit 1), 1 queued.
        assert len(by_status["decoded"]) == 2
        assert by_status["shed"] == [3, 4]  # stalest excess first
        assert all(
            v.reason == "overload_shed" for v in verdicts if v.status == "shed"
        )
        assert service.backlog == 1

    def test_breaker_opens_on_faulting_stream_and_alerts(self):
        from repro.resilience.chaos import SolverExceptionInjector, chaos

        service, _ = _service()
        with chaos(SolverExceptionInjector(rate=1.0, seed=0)):
            for i in range(4):
                service.submit("lab/s0", _frame(i))
                service.run_cycle()
        # Four failed verdicts tripped the stream breaker.
        assert [v.status for v in service.verdicts()] == ["failed"] * 4
        ticket = service.submit("lab/s0", _frame())
        assert (ticket.status, ticket.reason) == ("rejected", "breaker_open")
        kinds = [a.kind for a in service.pop_alerts()]
        assert "breaker_open" in kinds

    def test_supervised_batches_decode_in_one_call_each(self):
        """Each coalesced batch of a supervised stream is one
        ``ResilientDecoder.decode_batch`` call."""
        from repro import instrument

        service = DecodeService(
            clock=VirtualClock(), cycle_budget=8, max_batch=4
        )
        service.register_tenant(TenantConfig("lab"))
        service.register_stream(
            StreamConfig(
                name="lab/s0",
                tenant="lab",
                plan=_plan(),
                policy=ResiliencePolicy(),
            )
        )
        with instrument.profiled() as session:
            for i in range(12):
                service.submit("lab/s0", _frame(i))
            verdicts = service.drain()
        counters = session.report()["metrics"]["counters"]
        assert len(verdicts) == 12
        assert counters["serve.coalescer.batches"] == 3
        assert counters["resilience.batch_decodes"] == 3
        assert counters["resilience.decodes"] == 12

    def test_every_reason_is_in_the_taxonomy(self):
        service, clock = _service()
        service.submit("lab/s0", _frame(), deadline_s=1.0)
        clock.advance(2.0)
        service.run_cycle()
        reasons = {
            v.reason for v in service.verdicts() if v.reason is not None
        }
        assert reasons <= REJECTION_REASONS


class TestLifecycle:
    def test_drain_answers_the_whole_backlog(self):
        service = DecodeService(
            clock=VirtualClock(), cycle_budget=2, backlog_limit=64
        )
        service.register_tenant(TenantConfig("lab"))
        service.register_stream(
            StreamConfig(
                name="lab/s0", tenant="lab", plan=_plan(), queue_limit=16
            )
        )
        for i in range(6):
            service.submit("lab/s0", _frame(i))
        verdicts = service.drain()
        assert len(verdicts) == 6
        assert service.backlog == 0

    def test_stop_rejects_new_but_answers_admitted(self):
        service, _ = _service()
        admitted = service.submit("lab/s0", _frame())
        assert admitted.admitted
        verdicts = service.stop()
        assert [v.seq for v in verdicts] == [admitted.seq]
        ticket = service.submit("lab/s0", _frame())
        assert (ticket.status, ticket.reason) == (
            "rejected", "service_stopped",
        )

    def test_report_accounting_is_consistent_and_json(self):
        service, _ = _service()
        service.submit("lab/s0", _frame())
        service.submit("lab/s0", np.zeros((3, 3)))  # invalid
        service.drain()
        report = json.loads(json.dumps(service.report()))
        lab = report["tenants"]["lab"]
        assert report["schema"] == SERVE_SCHEMA
        assert lab["submitted"] == 2
        assert lab["admitted"] == 1
        assert lab["rejected"] == {"invalid_frame": 1}
        assert lab["verdicts"] == {"decoded": 1}
        assert report["streams"]["lab/s0"]["breaker"] == "closed"
        assert report["backlog"] == 0


class TestDeterminism:
    def test_identical_traffic_yields_identical_verdicts(self):
        def run():
            service = DecodeService(
                clock=VirtualClock(), cycle_budget=2, backlog_limit=2
            )
            service.register_tenant(TenantConfig("lab"))
            service.register_stream(
                StreamConfig(
                    name="lab/s0", tenant="lab", plan=_plan(),
                    queue_limit=8, seed=3,
                )
            )
            trace = []
            for tick in range(4):
                for i in range(4):
                    ticket = service.submit(
                        "lab/s0", _frame(tick * 4 + i), deadline_s=3.0
                    )
                    trace.append((ticket.seq, ticket.status, ticket.reason))
                service.run_cycle()
            for verdict in service.drain():
                pass
            trace.extend(
                (v.seq, v.status, v.reason) for v in service.verdicts()
            )
            return trace

        assert run() == run()


class TestDrainExhaustion:
    def _backlogged_service(self, frames=5):
        from repro.serve import DecodeService

        service = DecodeService(
            clock=VirtualClock(), cycle_budget=1, backlog_limit=64
        )
        service.register_tenant(TenantConfig("lab"))
        service.register_stream(
            StreamConfig(
                name="lab/s0", tenant="lab", plan=_plan(), queue_limit=16
            )
        )
        for i in range(frames):
            service.submit("lab/s0", _frame(i))
        return service

    def test_exhaustion_raises_by_default_with_partial_verdicts(self):
        from repro.serve import DrainExhausted

        service = self._backlogged_service(frames=5)
        with pytest.raises(DrainExhausted, match="after 2 drain cycles"):
            service.drain(max_cycles=2)
        try:
            service.drain(max_cycles=1)
        except DrainExhausted as exc:
            # The partial answer rides on the exception.
            assert len(exc.verdicts) == 1
            assert exc.backlog == 2
        else:  # pragma: no cover - assertion path
            pytest.fail("expected DrainExhausted")

    def test_successful_drain_is_marked_drained(self):
        service = self._backlogged_service(frames=2)
        verdicts = service.drain()
        assert isinstance(verdicts, list)
        assert len(verdicts) == 2
