"""Generated operation sequences over a journalled ``DecodeService``.

A Hypothesis state machine submits frames to two streams (one plain,
one supervised) with small queues so ``queue_full`` rejections occur,
runs dispatch cycles, checkpoints (appended or compacted), crashes --
abandoning the service, optionally leaving a torn half-record on the
journal -- and recovers a fresh, identically configured service, and
calls ``recover()`` a second time.  The journal flushes every record,
so every acknowledged record survives a crash.  A recovery re-enqueues
exactly the seqs the replay report lists as outstanding just before it.

After every step the live tenant accounting must equal the accounting
replayed from the journal alone, and no seq may carry two verdict
records.  At teardown, after ``stop()``, nothing is outstanding, every
tenant's verdicts plus rejections equal its submissions, and two
renders of the replay report are identical.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.engine import DecodeContext
from repro.resilience import ResiliencePolicy
from repro.serve import (
    DecodeService,
    StreamConfig,
    TenantConfig,
    VerdictJournal,
    VirtualClock,
    read_journal,
    render_report,
    replay_report,
)

SHAPE = (6, 6)
STREAMS = ("plain/s", "supervised/s")


def _submitted_only(tenants: dict) -> dict:
    """Tenant accounting without tenants that never submitted."""
    return {
        name: account
        for name, account in tenants.items()
        if account["submitted"]
    }


class JournalledService(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.path = Path(self._tmp.name) / "journal.jsonl"
        self.frame_rng = np.random.default_rng(0)
        self.service = self._build()

    def _build(self) -> DecodeService:
        service = DecodeService(
            clock=VirtualClock(),
            journal=VerdictJournal(self.path, sync_every=1, fsync=False),
        )
        plan = DecodeContext(shape=SHAPE, sampling_fraction=0.6)
        for seed, name in enumerate(STREAMS):
            tenant = name.split("/")[0]
            service.register_tenant(TenantConfig(tenant))
            service.register_stream(
                StreamConfig(
                    name=name,
                    tenant=tenant,
                    plan=plan,
                    policy=(
                        ResiliencePolicy() if tenant == "supervised" else None
                    ),
                    queue_limit=3,
                    seed=seed,
                )
            )
        return service

    @rule(stream=st.sampled_from(STREAMS), count=st.integers(1, 4))
    def submit(self, stream, count):
        for _ in range(count):
            self.service.submit(stream, self.frame_rng.random(SHAPE))

    @rule()
    def run_cycle(self):
        self.service.run_cycle()

    @rule(compact=st.booleans())
    def checkpoint(self, compact):
        self.service.checkpoint(compact=compact)

    @rule(torn=st.booleans())
    def crash_and_recover(self, torn):
        self.service.journal.close()
        if torn:
            with open(self.path, "ab") as fh:
                fh.write(b'{"type": "verdict", "seq": 1, "sta')
        self.service = self._build()
        outstanding = replay_report(self.path)["outstanding"]
        assert self.service.recover() == outstanding

    @rule()
    def recover_again(self):
        backlog, report = self.service.backlog, self.service.report()
        assert self.service.recover() == []
        assert self.service.backlog == backlog
        assert self.service.report() == report

    @invariant()
    def live_accounting_equals_replay(self):
        live = _submitted_only(self.service.report()["tenants"])
        replayed = _submitted_only(replay_report(self.path)["tenants"])
        assert live == replayed

    @invariant()
    def one_verdict_record_per_seq(self):
        seqs = [
            record["seq"]
            for record in read_journal(self.path)
            if record["type"] == "verdict"
        ]
        assert len(seqs) == len(set(seqs))

    def teardown(self):
        try:
            self.service.stop()
            report = replay_report(self.path)
            assert report["outstanding"] == []
            live = self.service.report()["tenants"]
            for tenants in (report["tenants"], live):
                for account in tenants.values():
                    answered = sum(account["verdicts"].values()) + sum(
                        account["rejected"].values()
                    )
                    assert answered == account["submitted"]
            assert render_report(report) == render_report(
                replay_report(self.path)
            )
        finally:
            self.service.journal.close()
            self._tmp.cleanup()


JournalledService.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
TestJournalledService = JournalledService.TestCase
