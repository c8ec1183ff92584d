"""Generated operation sequences over a journalled ``DecodeService``.

A Hypothesis state machine submits frames to two streams (one plain,
one supervised) with small queues so ``queue_full`` rejections occur,
submits a frame with a deadline and advances the virtual clock past it,
runs dispatch cycles -- some under solver-layer chaos, so a plain batch
can raise part-way and be retried frame by frame -- checkpoints
(appended or compacted), crashes --
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

A second machine runs the same rules and checks on services that
dispatch through a supervised serial executor, plus cycles under
worker-crash chaos.  The serial backend runs the worker hooks in this
process and keeps the runs deterministic; process-pool workers start
with empty hook registries, so chaos would not reach them.
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
from repro.core.executor import SerialExecutor, SupervisedExecutor
from repro.resilience import (
    ResiliencePolicy,
    WorkerCrashInjector,
    chaos,
    default_taxonomy,
)
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

    def _executor(self):
        """The executor each built service dispatches through."""
        return None

    def _build(self) -> DecodeService:
        service = DecodeService(
            executor=self._executor(),
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

    @rule(
        stream=st.sampled_from(STREAMS),
        deadline_s=st.sampled_from((0.5, 2.0)),
    )
    def submit_past_deadline(self, stream, deadline_s):
        self.service.submit(
            stream, self.frame_rng.random(SHAPE), deadline_s=deadline_s
        )
        self.service.clock.advance(deadline_s + 0.5)

    @rule()
    def run_cycle(self):
        self.service.run_cycle()

    @rule(rate=st.sampled_from((0.5, 1.0)), seed=st.integers(0, 2**16))
    def run_cycle_under_chaos(self, rate, seed):
        with chaos(*default_taxonomy(rate, seed=seed)):
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


class JournalledServiceOnExecutor(JournalledService):
    """:class:`JournalledService` on a supervised serial executor."""

    def _executor(self):
        return SupervisedExecutor(SerialExecutor())

    @rule(rate=st.sampled_from((0.5, 1.0)), seed=st.integers(0, 2**16))
    def run_cycle_under_worker_chaos(self, rate, seed):
        with chaos(WorkerCrashInjector(rate, seed=seed)):
            self.service.run_cycle()


for machine in (JournalledService, JournalledServiceOnExecutor):
    machine.TestCase.settings = settings(
        max_examples=50, stateful_step_count=30, deadline=None
    )
TestJournalledService = JournalledService.TestCase
TestJournalledServiceOnExecutor = JournalledServiceOnExecutor.TestCase
