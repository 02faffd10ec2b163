"""Benchmark of putboundary on three seeded workloads.

    python3 bench/run.py --workload long-horizon --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src/` directory next
to this one, never from an installed copy, and the run fails without it.

Workloads (inputs come from the seed; the program only sees those inputs):

* long-horizon: the paper's five-year comparison table for one market per
  request: ssch, psor, zhu at the 15 table taus and the relative errors.
* near-expiry: the mispricing sweep of the five closed forms against the
  ssch truth curve over the last trading days, plus both price-gap routes.
* param-scan: one in-process `putboundary compare` per request over a wide
  parameter space, with fixed shares near gamma0, at gamma = 1 and gamma >= 5.

The load is one client in a closed loop, in one thread of one process.
Workload processes run with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 and a
fixed PYTHONHASHSEED.

--trace 0 prints the end-to-end metrics: set-up time (median over several
fresh processes), goodput, the median and the tail of request latency,
the failure ratio, the cross-check error, the share of requests with an
expected n/a part and peak memory.  --trace 1 runs the same requests
untraced and then traced, and prints the per-layer metrics with the
tracing overhead.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the exit code is 1 when an output check fails, 2 when the run could not
be made.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import median, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("long-horizon", "near-expiry", "param-scan")

#: fresh processes timed for set-up, besides the measuring one
SETUP_PROBES = 8

#: end-to-end metrics in the result line (BENCHMARK.json "end_to_end").
#: The report also prints fail_ratio, xcheck_err and na_ratio (requests
#: with an expected n/a part), which are 0 on some workloads.
RESULT_METRICS = ("setup_s", "goodput_rps", "req_ms.p50", "req_ms.tail", "peak_rss_mb")

#: the whole run, children included, ends well inside three minutes
BUDGET_S = 170.0

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def window_shares(starts_s, latencies_ms, seconds):
    """Share of each request done inside the measuring window: 1 for those
    that ended in it, the completed fraction for the one in flight at its
    end.  Rates over the window then move smoothly with speed instead of
    jumping by one request, which matters when a run holds only a dozen."""
    shares = []
    for start, ms in zip(starts_s, latencies_ms):
        dur = ms / 1e3
        shares.append(min(1.0, max(0.0, (seconds - start) / dur)) if dur > 0 else 1.0)
    return shares


class BenchError(Exception):
    """The run could not be made; no result is printed."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **PINS)

    def spawn(self, *extra: str) -> dict:
        a = self.args
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget spent")
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), *extra, "--t0", repr(time.time())]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("workload process overran the time budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload process exited with {proc.returncode}")
        return json.loads(lines[-1])

    def end_to_end(self):
        a = self.args
        setups = [self.spawn("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        res = self.spawn("--seconds", repr(a.seconds))
        setups.append(res["setup_s"])
        lat = res["latencies_ms"]
        t = tail(lat)
        done = window_shares(res["starts_s"], lat, a.seconds)
        metrics = {
            "setup_s": (median(setups), "s"),
            "goodput_rps": (sum(done[k] for k in res["succeeded"]) / a.seconds, "1/s"),
            "req_ms.p50": (median(lat), "ms"),
            "req_ms.tail": (t.value, "ms"),
            "fail_ratio": (res["failed"] / res["attempted"], "ratio"),
            "na_ratio": (res["with_na"] / res["attempted"], "ratio"),
            "xcheck_err": (res["xcheck_err"], "ratio"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        notes = {"req_ms.tail": t.describe(),
                 "setup_s": f"median of {len(setups)} processes: " + " ".join(f"{x:.3f}" for x in setups)}
        return res, metrics, RESULT_METRICS, notes

    def per_layer(self):
        a = self.args
        base = self.spawn("--seconds", repr(a.seconds / 2.0))
        res = self.spawn("--requests", str(base["attempted"]), "--trace", "1")
        if res["inputs_sha256"] != base["inputs_sha256"]:
            raise BenchError("traced and untraced runs saw different inputs")
        layers = res["layers"]
        metrics = {k: tuple(v) for k, v in layers["metrics"].items()}
        metrics["trace.overhead_s"] = (res["wall_s"] - base["wall_s"], "s")
        return res, metrics, tuple(metrics), layers["notes"]


def report(args, res, metrics, notes):
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['attempted']} requests in {res['wall_s']:.2f} s, {res['failed']} failed")
    for kind in res["failure_kinds"]:
        print(f"  failure kind: {kind}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": res["environment"],
        "notes": notes,
        "first_failures": res["first_failures"],
        "inputs_sha256": res["inputs_sha256"],
    }
    print("report " + json.dumps(stamp))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "putboundary" / "__init__.py").is_file():
        print(f"bench: no putboundary sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    # a terminated runner unwinds through subprocess.run, which kills and
    # reaps the workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args)
    try:
        res, metrics, keep, notes = runner.per_layer() if args.trace else runner.end_to_end()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(args, res, metrics, notes)
    correct = res["wrong"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keep},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
