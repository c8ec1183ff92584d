"""Replay/audit a verdict journal: re-render tenant timelines offline.

The journal (:mod:`repro.serve.durability`) is the service's durable
source of truth; this module renders it as the per-tenant accounting
and verdict timeline a tenant would ask for after the fact -- **from
the journal alone**, with no service state, through the same
:func:`~repro.serve.durability.fold_journal` that crash recovery
applies.  The report is a pure, deterministic function of the journal
bytes -- it does not name the file it was read from -- so two replays
of the same bytes are bit-identical wherever they live (the
crash-recovery acceptance tests pin this), and an auditor can verify a
tenant's claim ("frame 41 was shed") without ever having run the
service.

Command line::

    python -m repro.serve.replay journal.jsonl            # full report
    python -m repro.serve.replay journal.jsonl --tenant icu
    python -m repro.serve.replay journal.jsonl --output report.json

The report schema (``repro.journal/v1`` riding on the journal's own
version tag):

* ``schema`` / ``tenant_filter`` -- the version tag and the
  ``--tenant`` restriction (``None`` for the full report);
* ``tenants`` -- per-tenant ``submitted`` / ``admitted`` / ``rejected``
  (by reason) / ``verdicts`` (by status) counts plus the count of
  ``recovered`` verdicts (frames replayed after a crash, the
  at-least-once honesty flag);
* ``timeline`` -- every verdict in sequence order: seq, stream,
  tenant, status, reason, cycle and the ``recovered`` and
  ``deadline_missed`` flags;
* ``outstanding`` -- admitted seqs with **no** terminal verdict (after
  a clean drain this must be empty; non-empty means the journal
  captured a crash whose recovery has not run yet);
* ``checkpoints`` / ``dispatches`` -- audit counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .durability import JOURNAL_SCHEMA, fold_journal, read_journal

__all__ = ["main", "render_report", "replay_report"]


def replay_report(path: str | Path, tenant: str | None = None) -> dict:
    """Build the audit report for ``path`` (optionally one tenant only).

    The report is :func:`~repro.serve.durability.fold_journal` over the
    journal's valid records -- the same fold crash recovery applies --
    so it is idempotent by ``seq``: duplicated ``admit`` or
    ``verdict`` records (a journal replayed into itself, or an
    at-least-once recovery that re-journals) count once, and the report
    is a function of the *set* of events, not of how many times the
    log repeats them.
    """
    fold = fold_journal(read_journal(path))
    accounts = fold.accounts
    timeline = fold.timeline
    outstanding = fold.outstanding
    if tenant is not None:
        timeline = [v for v in timeline if v["tenant"] == tenant]
        outstanding = [
            seq
            for seq in outstanding
            if fold.admits[seq].get("tenant") == tenant
        ]
        accounts = {
            name: acct for name, acct in accounts.items() if name == tenant
        }
    return {
        "schema": JOURNAL_SCHEMA,
        "tenant_filter": tenant,
        "tenants": {
            name: accounts[name].to_dict() for name in sorted(accounts)
        },
        "timeline": timeline,
        "outstanding": outstanding,
        "dispatches": fold.dispatches,
        "checkpoints": fold.checkpoints,
    }


def render_report(report: dict) -> str:
    """Serialise a replay report deterministically (bit-identical)."""
    return json.dumps(report, indent=2, sort_keys=True)


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.serve.replay <journal>``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.replay",
        description="Re-render a tenant's verdict timeline from a "
        "durable verdict journal.",
    )
    parser.add_argument("journal", help="path to the journal JSONL file")
    parser.add_argument(
        "--tenant",
        default=None,
        help="restrict the report to one tenant's timeline",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the JSON report here instead of stdout",
    )
    args = parser.parse_args(argv)
    report = replay_report(args.journal, tenant=args.tenant)
    rendered = render_report(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered + "\n")
    else:
        try:
            print(rendered)
        except BrokenPipeError:
            # Downstream closed early (e.g. piped into head); the
            # render already succeeded, so exit quietly.
            sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
