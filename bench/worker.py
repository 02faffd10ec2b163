"""Workload process: set up, run requests in a closed loop, report as JSON.

run.py starts this file with the thread pins and PYTHONPATH it needs; it is
not meant to be run by hand.  One client sends the next request only after
the previous one has completed, in one thread.  The last line on stdout is
one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import inputs
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "pins": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONHASHSEED")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.REQUESTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--requests", type=int, default=0, help="run exactly this many instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True, help="wall time at process spawn")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, summarise

        tracer = Tracer()
        tracer.install()
    pb = importlib.import_module("putboundary")
    if Path(pb.__file__).resolve().parent.parent != SRC:
        print(f"worker: putboundary imported from {pb.__file__}, not {SRC}", file=sys.stderr)
        return 3
    workloads.warm_up(args.workload)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gen = inputs.GENERATORS[args.workload](args.seed)
    request = workloads.REQUESTS[args.workload]
    typed = workloads.typed_failures()
    digest = hashlib.sha256()
    latencies, starts, succeeded, reasons = [], [], [], []
    failed = wrong = with_na = 0
    xcheck = 0.0
    if tracer is not None:
        tracer.reset()
    small_tau = getattr(importlib.import_module("putboundary.zhu"), "SmallTauSubstitution", None)
    with warnings.catch_warnings(record=True) as caught:
        # count every substitution, with the same filters traced and untraced
        if small_tau is not None:
            warnings.filterwarnings("always", category=small_tau)
        start = time.perf_counter()
        deadline = start + args.seconds
        while (len(latencies) < args.requests) if args.requests else (time.perf_counter() < deadline):
            req = next(gen)
            digest.update(repr(req).encode())
            t = time.perf_counter()
            starts.append(t - start)
            try:
                if tracer is None:
                    verdict = request(req)
                else:
                    verdict = tracer.run_request(len(latencies), request, req)
            except typed as exc:
                failed += 1
                reasons.append(f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # an untyped error is a defect: report, keep measuring
                traceback.print_exc()
                failed += 1
                wrong += 1
                reasons.append(f"untyped {type(exc).__name__}: {exc}")
            else:
                if verdict.ok:
                    succeeded.append(len(latencies))
                    xcheck = max(xcheck, verdict.xcheck)
                    with_na += verdict.na > 0
                else:
                    failed += 1
                    wrong += 1
                    reasons.append(f"check failed: {verdict.reason} for {req!r}")
            latencies.append(1e3 * (time.perf_counter() - t))
        wall_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "attempted": len(latencies),
        "failed": failed,
        "wrong": wrong,
        "with_na": with_na,
        "xcheck_err": xcheck,
        "wall_s": wall_s,
        "latencies_ms": latencies,
        "starts_s": starts,
        "succeeded": succeeded,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failure_kinds": sorted({r.split(":")[0] for r in reasons}),
        "first_failures": reasons[:3],
        "inputs_sha256": digest.hexdigest(),
        "environment": environment(),
    }
    if tracer is not None:
        subs = sum(1 for w in caught if small_tau is not None and issubclass(w.category, small_tau))
        result["layers"] = summarise(tracer, subs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
