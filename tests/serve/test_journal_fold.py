"""The one journal fold (``fold_journal``) and the record shapes it reads.

Crash recovery and the replay audit both read a journal through
:func:`repro.serve.durability.fold_journal`.  These tests pin the fold
on hand-built record lists, the conversions between a queued frame or
a tenant account and their journal form, and the exact records a small
journalled scenario writes.
"""

import numpy as np
import pytest

from repro.core.engine import DecodeContext
from repro.resilience import ResiliencePolicy
from repro.serve import (
    DecodeService,
    PendingFrame,
    StreamConfig,
    TenantConfig,
    VerdictJournal,
    VirtualClock,
    read_journal,
)
from repro.serve.durability import (
    JOURNAL_SCHEMA,
    TenantAccount,
    fold_journal,
    pack_frame,
    pending_from_record,
    pending_record,
)

OPEN = {"type": "open", "schema": JOURNAL_SCHEMA}


def _admit(seq, tenant="icu"):
    return {
        "type": "admit",
        "seq": seq,
        "stream": f"{tenant}/s0",
        "tenant": tenant,
        "priority": 1,
        "submitted_at": float(seq),
        "deadline": None,
        "frame": pack_frame(np.full((2, 2), float(seq))),
    }


def _reject(seq, tenant="icu", reason="queue_full"):
    return {
        "type": "reject",
        "seq": seq,
        "stream": f"{tenant}/s0",
        "tenant": tenant,
        "reason": reason,
        "submitted_at": float(seq),
    }


def _verdict(seq, tenant="icu", status="decoded", cycle=1, recovered=False):
    return {
        "type": "verdict",
        "seq": seq,
        "stream": f"{tenant}/s0",
        "tenant": tenant,
        "priority": 1,
        "status": status,
        "reason": None,
        "cycle": cycle,
        "deadline_missed": False,
        "recovered": recovered,
        "queue_latency_s": 0.0,
        "decode_s": 0.0,
        "solver": "fista",
    }


def _checkpoint(seq, cycle, accounts, pending=()):
    return {
        "type": "checkpoint",
        "seq": seq,
        "cycle": cycle,
        "accounts": accounts,
        "pending": [
            {k: v for k, v in _admit(s).items() if k != "type"}
            for s in pending
        ],
    }


class TestFold:
    @pytest.mark.parametrize("repeat", [1, 2, 3])
    def test_a_duplicated_record_counts_once(self, repeat):
        records = [OPEN, _admit(1), _reject(2), _verdict(1, recovered=True)]
        once = fold_journal(records)
        twice = fold_journal(records + [records[repeat]])
        assert twice.accounts == once.accounts
        assert twice.accounts["icu"] == TenantAccount(
            submitted=2,
            admitted=1,
            rejected={"queue_full": 1},
            verdicts={"decoded": 1},
            recovered=1,
        )
        assert twice.timeline == once.timeline
        assert [entry["seq"] for entry in twice.timeline] == [1]
        assert twice.decided == {1}

    def test_a_checkpoint_reseeds_accounts_and_admits(self):
        lab = {
            "submitted": 3,
            "admitted": 2,
            "rejected": {"queue_full": 1},
            "verdicts": {"shed": 1},
            "recovered": 0,
        }
        fold = fold_journal(
            [
                OPEN,
                _admit(1),
                _admit(2),
                _reject(3),
                _verdict(1),
                _checkpoint(5, 2, {"lab": lab}, pending=[4]),
                _reject(3, tenant="lab"),
                _admit(6, tenant="lab"),
            ]
        )
        # Only the checkpoint's account survives, plus what follows it.
        assert set(fold.accounts) == {"lab"}
        assert fold.accounts["lab"].to_dict() == {
            "submitted": 5,
            "admitted": 3,
            "rejected": {"queue_full": 2},
            "verdicts": {"shed": 1},
            "recovered": 0,
        }
        assert sorted(fold.admits) == [4, 6]
        assert fold.decided == set()
        assert fold.timeline == []
        # The superseded tenant is still named, in first-mention order.
        assert fold.tenants == ("icu", "lab")
        # The checkpoint's own dict is not the live account.
        assert lab["rejected"] == {"queue_full": 1}

    def test_outstanding_means_admitted_without_a_verdict(self):
        fold = fold_journal(
            [
                OPEN,
                _admit(3),
                _admit(1),
                _reject(2),
                _admit(4),
                _verdict(3),
                _verdict(7),
            ]
        )
        assert fold.outstanding == [1, 4]
        assert fold.decided == {3, 7}

    def test_highest_seq_and_cycle_are_reported(self):
        fold = fold_journal(
            [
                OPEN,
                _admit(1),
                {"type": "dispatch", "cycle": 4, "seqs": [1]},
                _verdict(1, cycle=3),
                _reject(7),
            ]
        )
        assert (fold.max_seq, fold.max_cycle) == (7, 4)
        assert (fold.dispatches, fold.checkpoints) == (1, 0)
        checkpointed = fold_journal(
            [OPEN, _admit(1), _checkpoint(9, 6, {}), _verdict(1, cycle=5)]
        )
        assert (checkpointed.max_seq, checkpointed.max_cycle) == (9, 6)
        assert (checkpointed.dispatches, checkpointed.checkpoints) == (0, 1)

    def test_timeline_is_in_seq_order(self):
        fold = fold_journal(
            [OPEN, _admit(2), _admit(1), _verdict(2, status="shed"), _verdict(1)]
        )
        assert [(v["seq"], v["status"]) for v in fold.timeline] == [
            (1, "decoded"),
            (2, "shed"),
        ]


class TestConversions:
    def test_pending_frame_round_trips_through_its_record(self):
        pending = PendingFrame(
            seq=4,
            stream="icu/s0",
            tenant="icu",
            priority=2,
            frame=np.arange(6.0).reshape(2, 3),
            submitted_at=1.5,
            deadline=2.5,
        )
        record = pending_record(pending)
        back = pending_from_record(record, priority=0)
        assert back.recovered
        assert np.array_equal(back.frame, pending.frame)
        assert (back.seq, back.stream, back.tenant, back.priority) == (
            4,
            "icu/s0",
            "icu",
            2,
        )
        assert (back.submitted_at, back.deadline) == (1.5, 2.5)
        assert pending_from_record(
            {k: v for k, v in record.items() if k != "priority"}, priority=7
        ).priority == 7

    def test_account_round_trips_and_copies(self):
        account = TenantAccount(submitted=2, admitted=1)
        account.record_rejection("queue_full")
        account.record_verdict("decoded", recovered=True)
        data = account.to_dict()
        back = TenantAccount.from_dict(data)
        assert back == account
        back.record_rejection("queue_full")
        assert data["rejected"] == {"queue_full": 1}


def _shape_service(path):
    service = DecodeService(
        clock=VirtualClock(),
        cycle_budget=2,
        journal=VerdictJournal(path, sync_every=1, fsync=False),
    )
    plan = DecodeContext(shape=(6, 6), sampling_fraction=0.6)
    service.register_tenant(TenantConfig("plain"))
    service.register_tenant(TenantConfig("sup"))
    service.register_stream(
        StreamConfig(name="plain/s", tenant="plain", plan=plan, seed=1)
    )
    service.register_stream(
        StreamConfig(
            name="sup/s",
            tenant="sup",
            plan=plan,
            policy=ResiliencePolicy(),
            seed=2,
        )
    )
    return service


ADMIT_KEYS = {
    "seq",
    "stream",
    "tenant",
    "priority",
    "submitted_at",
    "deadline",
    "frame",
}
ACCOUNT_KEYS = {"submitted", "admitted", "rejected", "verdicts", "recovered"}
RECORD_KEYS = {
    "open": {"type", "schema"},
    "admit": {"type"} | ADMIT_KEYS,
    "reject": {"type", "seq", "stream", "tenant", "reason", "submitted_at"},
    "dispatch": {"type", "cycle", "seqs"},
    "verdict": {
        "type",
        "seq",
        "stream",
        "tenant",
        "priority",
        "status",
        "reason",
        "cycle",
        "deadline_missed",
        "recovered",
        "queue_latency_s",
        "decode_s",
        "solver",
    },
    "checkpoint": {"type", "seq", "cycle", "accounts", "pending"},
}


def test_journalled_record_shapes(tmp_path):
    """A plain and a supervised stream, one rejection, one shed and one
    appended checkpoint journal exactly these records and keys."""
    path = tmp_path / "journal.jsonl"
    service = _shape_service(path)
    rng = np.random.default_rng(0)
    service.submit("plain/s", rng.random((6, 6)))
    service.submit("sup/s", rng.random((6, 6)))
    assert service.submit("plain/s", np.full((6, 6), np.nan)).reason == (
        "invalid_frame"
    )
    service.submit("plain/s", rng.random((6, 6)), deadline_s=0.5)
    service.submit("sup/s", rng.random((6, 6)))
    service.clock.advance(1.0)
    verdicts = service.run_cycle()
    assert [(v.seq, v.status, v.reason) for v in verdicts][0] == (
        4,
        "shed",
        "deadline_expired",
    )
    service.checkpoint()
    service.journal.close()

    records = read_journal(path)
    assert [r["type"] for r in records] == [
        "open",
        "admit",
        "admit",
        "reject",
        "admit",
        "admit",
        "dispatch",
        "verdict",
        "verdict",
        "verdict",
        "checkpoint",
    ]
    for record in records:
        assert set(record) == RECORD_KEYS[record["type"]], record["type"]
    for record in records:
        if record["type"] == "admit":
            assert set(record["frame"]) == {"b64", "dtype", "shape"}
    checkpoint = records[-1]
    assert set(checkpoint["accounts"]) == {"plain", "sup"}
    for account in checkpoint["accounts"].values():
        assert set(account) == ACCOUNT_KEYS
    assert [entry["seq"] for entry in checkpoint["pending"]] == [5]
    assert set(checkpoint["pending"][0]) == ADMIT_KEYS
    assert set(service.report()["tenants"]["plain"]) == ACCOUNT_KEYS
