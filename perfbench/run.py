"""End-to-end benchmark of the frame-decode service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shared_batch --seed 1 --seconds 35 --trace 0

Each run drives one :class:`repro.serve.DecodeService`, built with its
defaults, the way a sensor front end would: a closed loop of 8 clients
(the service's default ``cycle_budget`` and ``max_batch``), each
submitting its next frame as soon as the verdict for its previous one
arrives.  Every frame goes the whole path -- submit, admission, queue,
coalesced dispatch, Phi draw, acquisition, operator bind, L1 solve,
supervision and health checks where configured, verdict, journal where
configured.

Each workload (``service_bench.WORKLOADS``) is one cell of the
repository bench matrix (``repro.bench.workloads``) and stresses a
different layer.  Inputs come from the repository's synthetic dataset
generators, seeded with ``--seed``; the service only ever sees the
generated frames.

``--trace 0`` measures with the program untouched and reports:

* ``throughput_fps`` -- verdicts per second over the timed window;
* ``setup_s`` -- median of many set-ups spread over the run, each a
  fresh engine (cold operator cache), a fresh service with its tenant
  and stream, the journal opened where configured, and the stream's
  first operator bind for a drawn Phi, with no solve.

There is no latency metric.  In this closed loop every cycle resolves
all 8 clients, so no queue forms and each frame's latency is one cycle,
8 / ``throughput_fps``.  An open loop at a fixed rate would measure
queue wait, but queue wait grows faster than service time as a server
slows, so it would amplify the host's speed swings (the shared hosts
this runs on change speed by up to ~1.6x for seconds at a time).

``--trace 1`` repeats the run with ``layers.LayerTracer`` wrapping each
layer's entry point and reports per-frame self time per layer plus work
counters; ``traced_ms_per_frame`` against ``1000 / throughput_fps`` of
an untraced run is the tracing overhead.

Every verdict is checked: each admitted frame gets exactly one verdict,
plain streams must deliver ``decoded`` frames, every delivered frame
must be finite, and decoded reconstructions must stay within the
workload's RMSE bounds against the clean frame.  A per-run summary goes to standard
error; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS is pinned to one thread: the frames are small, and thread
contention with other processes on the host otherwise dominates the
run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    """CLI entry point; prints the result JSON as the last line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {src}; run from the root "
            "of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Before NumPy loads, so its BLAS starts with one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    from service_bench import WORKLOADS, measure

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    result, summary = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT
    )
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
