"""Kill a journalled decode service mid-cycle, recover it, audit the journal.

Drives the :mod:`repro.serve` durability layer through the scenario its
acceptance tests pin down -- and that CI's ``crash-smoke`` job replays
on every push:

* a journalled service (write-ahead :class:`~repro.serve.VerdictJournal`)
  runs two tenants under **seeded worker chaos**
  (``chaos(layer="executor")`` crash/hang/slow-start injectors) with a
  :class:`~repro.core.executor.SupervisedExecutor` retrying lost
  workers;
* one NaN frame is rejected at admission (a journalled
  ``invalid_frame`` rejection);
* mid-run the process "dies": the service object is abandoned with
  frames admitted but undecided, and a torn half-record is appended to
  the journal (the classic power-loss artifact);
* a **fresh service** opens the same journal, truncates the torn tail,
  :meth:`~repro.serve.DecodeService.recover`\\ s -- re-enqueueing every
  admitted-but-undecided frame with ``recovered=True`` -- and drains;
* the **replay CLI** (:mod:`repro.serve.replay`) then re-renders the
  per-tenant verdict timeline from the journal alone, twice, and the
  two renders must be bit-identical.

The checks assert the at-least-once contract: after recovery every
admitted frame has exactly one terminal verdict in the journal, every
replayed verdict carries the ``recovered=True`` honesty flag, the
audit report shows zero outstanding frames, and the recovered
service's tenant accounting (rejections included) equals the replayed
one.

Run:  PYTHONPATH=src python examples/crash_recovery.py --report out.json
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.engine import DecodeContext
from repro.core.executor import SupervisedExecutor
from repro.resilience import chaos, default_taxonomy
from repro.serve import (
    DecodeService,
    StreamConfig,
    TenantConfig,
    VirtualClock,
    replay_report,
    render_report,
)

SHAPE = (8, 8)
CYCLE_BUDGET = 4
PRE_CRASH_SUBMITS = 10
PRE_CRASH_CYCLES = 1
WORKER_FAULT_RATE = 0.8
SEED = 9


def build_service(journal_path: str) -> tuple[DecodeService, VirtualClock]:
    """A journalled, worker-supervised two-tenant service."""
    clock = VirtualClock()
    service = DecodeService(
        clock=clock,
        cycle_budget=CYCLE_BUDGET,
        backlog_limit=PRE_CRASH_SUBMITS,
        journal=journal_path,
        executor=SupervisedExecutor(),
    )
    plan = DecodeContext(
        shape=SHAPE,
        sampling_fraction=0.6,
        solver_options={"max_iterations": 60},
    )
    service.register_tenant(TenantConfig("icu", priority=2))
    service.register_tenant(TenantConfig("lab", priority=0))
    service.register_stream(StreamConfig(
        name="icu/skin", tenant="icu", plan=plan, queue_limit=16, seed=11,
    ))
    service.register_stream(StreamConfig(
        name="lab/skin", tenant="lab", plan=plan, queue_limit=16, seed=22,
    ))
    return service, clock


def run_until_crash(journal_path: str) -> list:
    """Admit frames, decode one cycle under worker chaos, then 'die'.

    The service object is abandoned with backlog still queued, and a
    torn half-record is appended to the journal -- the on-disk state a
    real power loss leaves behind.
    """
    service, clock = build_service(journal_path)
    frame_rng = np.random.default_rng(SEED)
    tickets = []
    injectors = default_taxonomy(
        WORKER_FAULT_RATE, seed=SEED, layer="executor"
    )
    with chaos(*injectors):
        for index in range(PRE_CRASH_SUBMITS):
            stream = "icu/skin" if index % 2 == 0 else "lab/skin"
            tickets.append(service.submit(stream, frame_rng.random(SHAPE)))
        # A poisoned frame: rejected at admission, journalled as such.
        tickets.append(service.submit("lab/skin", np.full(SHAPE, np.nan)))
        for _ in range(PRE_CRASH_CYCLES):
            service.run_cycle()
            clock.advance(1.0)
    worker_trips = sum(injector.trips for injector in injectors)
    print(f"  pre-crash: {len(tickets)} submitted, "
          f"{len(service.verdicts())} decided, backlog {service.backlog}, "
          f"{worker_trips} worker faults injected")
    # Simulate the crash: no stop(), no drain -- just a torn tail.
    service.journal.close()
    with open(journal_path, "ab") as fh:
        fh.write(b'{"type": "verdict", "seq": 99')  # torn mid-write
    return tickets


def recover_and_drain(journal_path: str) -> tuple[DecodeService, list]:
    """Open the crashed journal in a fresh service and finish the work."""
    service, _clock = build_service(journal_path)
    recovered_seqs = service.recover()
    verdicts = service.stop()
    print(f"  recovery: re-enqueued {len(recovered_seqs)} frame(s), "
          f"drained {len(verdicts)} verdict(s)")
    service.journal.flush()
    return service, recovered_seqs


def check_contract(
    journal_path: str, tickets: list, recovered_seqs, service: DecodeService
) -> list:
    """Assert the at-least-once contract; returns the check lines."""
    report = replay_report(journal_path)
    checks = []

    admitted = sorted(t.seq for t in tickets if t.admitted)
    answered = sorted(v["seq"] for v in report["timeline"])
    assert answered == admitted, (
        f"journal must show one terminal verdict per admitted frame: "
        f"admitted {admitted} vs answered {answered}"
    )
    checks.append(
        f"zero silent loss across the crash: {len(admitted)} admitted = "
        f"{len(answered)} journalled verdicts"
    )

    assert report["outstanding"] == [], report["outstanding"]
    checks.append("no outstanding frames after recovery")

    replayed = [v for v in report["timeline"] if v["recovered"]]
    assert sorted(v["seq"] for v in replayed) == sorted(recovered_seqs), (
        "every re-enqueued frame's verdict must carry recovered=True"
    )
    checks.append(
        f"at-least-once honesty: {len(replayed)} replayed verdict(s) "
        "flagged recovered=True"
    )

    live = service.report()["tenants"]
    assert live == report["tenants"], (
        f"recovered accounting {live} must equal the replayed "
        f"{report['tenants']}"
    )
    rejected = sum(
        sum(account["rejected"].values()) for account in live.values()
    )
    checks.append(
        f"recovered accounting equals the replayed accounting "
        f"({len(tickets)} submitted, {rejected} rejected)"
    )

    first = render_report(replay_report(journal_path))
    second = render_report(replay_report(journal_path))
    assert first == second, "replay must be bit-identical"
    checks.append("replay CLI output is bit-identical across invocations")
    return checks


def main(argv=None) -> int:
    """Run the crash demo; write the replayed report; non-zero on breach."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the replayed-journal JSON audit report here",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal file location (default: a temp directory)",
    )
    args = parser.parse_args(argv)

    tmp = None
    if args.journal is None:
        tmp = tempfile.TemporaryDirectory()
        journal_path = str(Path(tmp.name) / "service_journal.jsonl")
    else:
        journal_path = args.journal

    print("== crash a journalled decode service, recover, audit ==")
    tickets = run_until_crash(journal_path)
    service, recovered_seqs = recover_and_drain(journal_path)
    checks = check_contract(journal_path, tickets, recovered_seqs, service)

    report = replay_report(journal_path)
    report["contract_checks"] = checks
    report["service_report"] = service.report()

    for line in checks:
        print("  ok:", line)
    for tenant, account in report["tenants"].items():
        print(f"  {tenant}: {account}")

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"  report written to {args.report}")
    if tmp is not None:
        tmp.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
