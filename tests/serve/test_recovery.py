"""Crash-recovery acceptance tests: journal + recover + replay audit.

The deterministic scenario the ISSUE pins down: seeded worker chaos
kills decode workers mid-cycle, the process "dies" with frames admitted
but undecided (plus a torn tail on the journal), and a freshly
configured service recovers from the journal alone.  After recovery:

* every admitted frame has exactly one terminal verdict in the journal;
* replayed frames' verdicts carry ``recovered=True``;
* the replay CLI re-renders the per-tenant report bit-identically from
  the journal file, with no service state.
"""

import json

import numpy as np
import pytest

from repro.core.engine import DecodeContext
from repro.core.executor import SupervisedExecutor
from repro.resilience import chaos, default_taxonomy
from repro.serve import (
    DecodeService,
    StreamConfig,
    TenantConfig,
    VerdictJournal,
    VirtualClock,
    read_journal,
    replay_report,
    render_report,
)
from repro.serve.durability import JournalError
from repro.serve.replay import main as replay_main

SHAPE = (6, 6)


def _plan():
    return DecodeContext(
        shape=SHAPE,
        sampling_fraction=0.6,
        solver_options={"max_iterations": 40},
    )


def _build(journal_path, **kwargs):
    service = DecodeService(
        clock=VirtualClock(),
        cycle_budget=3,
        backlog_limit=16,
        journal=str(journal_path),
        **kwargs,
    )
    service.register_tenant(TenantConfig("icu", priority=2))
    service.register_tenant(TenantConfig("lab", priority=0))
    service.register_stream(
        StreamConfig(
            name="icu/s0", tenant="icu", plan=_plan(), queue_limit=16, seed=1
        )
    )
    service.register_stream(
        StreamConfig(
            name="lab/s0", tenant="lab", plan=_plan(), queue_limit=16, seed=2
        )
    )
    return service


def _crash_scenario(tmp_path, n_frames=8, cycles=1):
    """Admit frames, decode ``cycles`` under worker chaos, die torn."""
    journal = tmp_path / "journal.jsonl"
    service = _build(journal, executor=SupervisedExecutor())
    rng = np.random.default_rng(7)
    tickets = []
    with chaos(*default_taxonomy(0.8, seed=3, layer="executor")):
        for index in range(n_frames):
            stream = "icu/s0" if index % 2 == 0 else "lab/s0"
            tickets.append(service.submit(stream, rng.random(SHAPE)))
        for _ in range(cycles):
            service.run_cycle()
    pre_crash = [v.seq for v in service.verdicts()]
    # The crash: abandon the service, leave a torn half-record behind.
    service.journal.close()
    with open(journal, "ab") as fh:
        fh.write(b'{"type": "verdict", "seq": 999, "status')
    return journal, tickets, pre_crash


class TestCrashRecovery:
    def test_every_admitted_frame_gets_exactly_one_verdict(self, tmp_path):
        journal, tickets, pre_crash = _crash_scenario(tmp_path)
        admitted = sorted(t.seq for t in tickets if t.admitted)
        assert admitted, "scenario must admit frames"
        assert len(pre_crash) < len(admitted), (
            "scenario must crash with undecided frames"
        )

        recovered_service = _build(journal)
        recovered_seqs = recovered_service.recover()
        assert recovered_seqs == sorted(set(admitted) - set(pre_crash))
        verdicts = recovered_service.stop()
        assert sorted(v.seq for v in verdicts) == recovered_seqs
        assert all(v.recovered for v in verdicts)
        recovered_service.journal.flush()

        # The journal is the source of truth: one terminal verdict per
        # admitted seq, no duplicates, none missing.
        records = read_journal(journal)
        verdict_seqs = [
            r["seq"] for r in records if r["type"] == "verdict"
        ]
        assert sorted(verdict_seqs) == admitted
        assert len(verdict_seqs) == len(set(verdict_seqs))

    def test_replayed_verdicts_carry_recovered_flag(self, tmp_path):
        journal, tickets, pre_crash = _crash_scenario(tmp_path)
        recovered_service = _build(journal)
        recovered_seqs = recovered_service.recover()
        recovered_service.stop()
        recovered_service.journal.flush()
        report = replay_report(journal)
        flagged = sorted(
            v["seq"] for v in report["timeline"] if v["recovered"]
        )
        assert flagged == recovered_seqs
        unflagged = [
            v["seq"] for v in report["timeline"] if not v["recovered"]
        ]
        assert sorted(unflagged) == sorted(pre_crash)
        assert report["outstanding"] == []

    def test_recovery_restores_accounting_and_counters(self, tmp_path):
        journal, tickets, _ = _crash_scenario(tmp_path)
        recovered_service = _build(journal)
        recovered_service.recover()
        report = recovered_service.report()
        submitted = sum(
            t["submitted"] for t in report["tenants"].values()
        )
        assert submitted == len(tickets)
        # The sequence counter resumes past every journalled seq, so
        # post-recovery submissions can never collide.
        ticket = recovered_service.submit(
            "icu/s0", np.random.default_rng(0).random(SHAPE)
        )
        assert ticket.seq > max(t.seq for t in tickets)

    def test_replay_cli_is_bit_identical(self, tmp_path, capsys):
        journal, _, _ = _crash_scenario(tmp_path)
        recovered_service = _build(journal)
        recovered_service.recover()
        recovered_service.stop()
        recovered_service.journal.flush()

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert replay_main([str(journal), "--output", str(out_a)]) == 0
        assert replay_main([str(journal), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        # And the library renders identically to the CLI.
        assert (
            out_a.read_text().rstrip("\n")
            == render_report(replay_report(journal))
        )

    def test_replay_tenant_filter(self, tmp_path):
        journal, _, _ = _crash_scenario(tmp_path)
        service = _build(journal)
        service.recover()
        service.stop()
        service.journal.flush()
        report = replay_report(journal, tenant="icu")
        assert set(report["tenants"]) == {"icu"}
        assert all(v["tenant"] == "icu" for v in report["timeline"])

    def test_recovered_accounting_counts_rejections(self, tmp_path):
        """Live, recovered and replayed tenant accounting agree after a
        crash whose journal holds ``queue_full`` rejections."""
        journal = tmp_path / "journal.jsonl"
        service = DecodeService(clock=VirtualClock(), journal=str(journal))
        service.register_tenant(TenantConfig("icu"))
        service.register_stream(
            StreamConfig(
                name="icu/s0", tenant="icu", plan=_plan(), queue_limit=2
            )
        )
        rng = np.random.default_rng(3)
        tickets = [
            service.submit("icu/s0", rng.random(SHAPE)) for _ in range(5)
        ]
        assert [t.status for t in tickets].count("rejected") == 3
        live = service.report()["tenants"]
        service.journal.close()

        recovered = DecodeService(clock=VirtualClock(), journal=str(journal))
        recovered.register_tenant(TenantConfig("icu"))
        recovered.register_stream(
            StreamConfig(
                name="icu/s0", tenant="icu", plan=_plan(), queue_limit=2
            )
        )
        recovered.recover()
        assert live["icu"]["submitted"] == 5
        assert recovered.report()["tenants"] == live
        assert replay_report(journal)["tenants"] == live
        recovered.journal.close()

    def test_recover_requires_matching_configuration(self, tmp_path):
        journal, _, _ = _crash_scenario(tmp_path)
        half_configured = DecodeService(
            clock=VirtualClock(), journal=str(journal)
        )
        half_configured.register_tenant(TenantConfig("icu", priority=2))
        half_configured.register_stream(
            StreamConfig(name="icu/s0", tenant="icu", plan=_plan())
        )
        with pytest.raises(JournalError, match="unregistered tenant"):
            half_configured.recover()

    def test_recover_refuses_a_tenant_named_before_a_checkpoint(
        self, tmp_path
    ):
        """A tenant the journal names only before a checkpoint that
        dropped it is still refused by name."""
        journal = tmp_path / "journal.jsonl"
        with VerdictJournal(journal) as writer:
            writer.append(
                "reject",
                {
                    "seq": 1,
                    "stream": "ghost/s0",
                    "tenant": "ghost",
                    "reason": "queue_full",
                    "submitted_at": 0.0,
                },
            )
            writer.append(
                "checkpoint",
                {"seq": 1, "cycle": 0, "accounts": {}, "pending": []},
            )
        service = DecodeService(clock=VirtualClock(), journal=str(journal))
        service.register_tenant(TenantConfig("icu"))
        report = service.report()
        with pytest.raises(JournalError, match="unregistered tenant 'ghost'"):
            service.recover()
        assert service.report() == report

    def test_failed_recovery_changes_nothing_and_can_be_retried(
        self, tmp_path
    ):
        journal, tickets, pre_crash = _crash_scenario(tmp_path)
        service = DecodeService(
            clock=VirtualClock(), cycle_budget=3, journal=str(journal)
        )
        service.register_tenant(TenantConfig("icu", priority=2))
        service.register_tenant(TenantConfig("lab", priority=0))
        service.register_stream(
            StreamConfig(
                name="icu/s0", tenant="icu", plan=_plan(), queue_limit=16
            )
        )
        report = service.report()
        with pytest.raises(JournalError, match="unregistered stream"):
            service.recover()
        assert service.backlog == 0
        assert service.report() == report
        service.register_stream(
            StreamConfig(
                name="lab/s0", tenant="lab", plan=_plan(), queue_limit=16
            )
        )
        admitted = {t.seq for t in tickets if t.admitted}
        assert service.recover() == sorted(admitted - set(pre_crash))

    def test_recover_requires_a_journal(self):
        service = DecodeService(clock=VirtualClock())
        with pytest.raises(JournalError, match="requires a journal"):
            service.recover()
        with pytest.raises(JournalError, match="requires a journal"):
            service.checkpoint()


class TestDuplicateReplay:
    def test_replaying_duplicated_records_is_idempotent(self, tmp_path):
        """A journal whose records repeat (at-least-once double-journal)
        must produce the same report as the original."""
        journal, _, _ = _crash_scenario(tmp_path)
        service = _build(journal)
        service.recover()
        service.stop()
        service.journal.flush()
        original = replay_report(journal)

        records = journal.read_bytes().splitlines(keepends=True)
        doubled = tmp_path / "doubled.jsonl"
        # header once, then every event record twice.
        doubled.write_bytes(records[0] + b"".join(
            line + line for line in records[1:]
        ))
        duplicated = replay_report(doubled)
        for key in ("tenants", "timeline", "outstanding"):
            assert duplicated[key] == original[key], key

    def test_recover_twice_yields_nothing_new(self, tmp_path):
        journal, _, _ = _crash_scenario(tmp_path)
        service = _build(journal)
        first = service.recover()
        assert first
        backlog, report = service.backlog, service.report()
        second = service.recover()
        # Recovery runs once per service: the second call re-enqueues
        # nothing and changes no queue or account.
        assert second == []
        assert service.backlog == backlog
        assert service.report() == report
        service.stop()
        verdict_seqs = [
            r["seq"] for r in read_journal(journal) if r["type"] == "verdict"
        ]
        assert len(verdict_seqs) == len(set(verdict_seqs))


class TestCheckpoint:
    def test_checkpoint_preserves_replay_report(self, tmp_path):
        journal, _, _ = _crash_scenario(tmp_path)
        service = _build(journal)
        service.recover()
        service.stop()
        before = replay_report(journal)["tenants"]
        service.checkpoint(compact=True)
        after = replay_report(journal)["tenants"]
        assert after == before
        service.journal.close()

    def test_recovery_resumes_from_checkpoint(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        service = _build(journal)
        rng = np.random.default_rng(5)
        for _ in range(4):
            service.submit("icu/s0", rng.random(SHAPE))
        service.checkpoint(compact=True)  # 4 frames pending, none decided
        service.journal.close()

        fresh = _build(journal)
        recovered = fresh.recover()
        assert len(recovered) == 4
        verdicts = fresh.stop()
        assert len(verdicts) == 4
        assert all(v.recovered for v in verdicts)
