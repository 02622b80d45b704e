"""Benchmark for chebzeros: seeded verification workloads through the
public library API.

    python3 bench/run.py --workload falsify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  With `--trace 0` the workload's fixed record set is
run in passes, one record after another, until `--seconds` have passed
and at least three passes are done, and the end-to-end metrics are
printed.  With `--trace 1` the benchmark runs untraced and traced passes
in turn and prints the per-layer metrics.  Either way every record goes through a
correctness gate that recomputes its claim with plain numpy, and the last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

BLAS is pinned to one thread so that runs on a shared machine compare.
See NOTES.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 15
# per-record timings are the fastest of at least this many passes (50-100
# in a 30-s run).  The host switches between a fast and a 1.7x
# slower state within seconds, in proportions that change from minute to
# minute; each record's fastest run reads the fast state once a run has
# enough passes, where a median or mean follows the proportion
MIN_PASSES = 3
# untraced and traced passes each in a --trace 1 run
TRACE_PASSES = 5
WORKLOAD_NAMES = ("falsify", "synth", "oscillation")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    """Import the benchmark's workload module against the checkout's
    library sources, never an installed copy."""
    if not (SRC / "chebzeros" / "__init__.py").is_file():
        raise SystemExit(f"bench: library sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import chebzeros
    if not Path(chebzeros.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported chebzeros from {chebzeros.__file__}, not {SRC}")
    import workloads
    return workloads


def setup_seconds(args) -> float:
    """One set-up time (import plus instance generation), in a fresh
    interpreter so that the import is paid every time.  Like the records,
    set-up is reported as its fastest run: the median of nine moved by 29%
    between two ten-seed sets, the fastest by 14%."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _plain(x):
    if isinstance(x, (tuple, list)):
        return [_plain(i) for i in x]
    if hasattr(x, "item") and not isinstance(x, (str, bytes)):
        return x.item()
    return x


def one_pass(records):
    """Run every record once, closed loop.  Only the library calls are
    inside the clocks; exceptions are kept as the record's outcome."""
    outs, lat, cpu = [], [], []
    w0 = time.perf_counter()
    for rec in records:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, err = rec.run(), None
        except Exception as e:  # a failing record is counted, never fatal
            out, err = None, f"{type(e).__name__}: {e}"
        lat.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        outs.append((out, err))
    return time.perf_counter() - w0, lat, cpu, outs


def judge(records, outs, reference=None):
    """Verdicts of one pass, whether each record passed, and the names of
    failed records.  Without a reference every record goes through its
    correctness gate; with one (pass 1's verdicts and pass flags), a
    record passes when its verdict equals pass 1's and pass 1's passed."""
    verdicts, oks, failed = [], [], []
    for i, (rec, (out, err)) in enumerate(zip(records, outs)):
        if err is None:
            try:
                v = _plain(rec.verdict(out))
                ok = rec.check(out) if reference is None else v == reference[i][0] and reference[i][1]
            except Exception as e:  # a gate that cannot run is a failure
                v, ok, err = ["error", type(e).__name__], False, f"{type(e).__name__}: {e}"
        else:
            v, ok = ["error", err.split(":")[0]], False
        verdicts.append(v)
        oks.append(ok)
        if not ok:
            failed.append(f"{rec.name}: {err or 'check failed'}")
    return verdicts, oks, failed


def digest(records, verdicts) -> str:
    text = json.dumps([[r.name, v] for r, v in zip(records, verdicts)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_untraced(wl, args):
    records = wl.WORKLOADS[args.workload](args.seed)
    setups, walls, failed = [], [], []
    best_lat = [float("inf")] * len(records)
    best_cpu = [float("inf")] * len(records)
    reference, attempted = None, 0
    start = time.perf_counter()
    while True:
        # set-up probes go between passes, spread over the run
        if time.perf_counter() - start >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(setup_seconds(args))
        wall, lat, cpu, outs = one_pass(records)
        verdicts, oks, bad = judge(records, outs, reference)
        if reference is None:
            reference, ref_digest = list(zip(verdicts, oks)), digest(records, verdicts)
        walls.append(wall)
        best_lat = [min(a, b) for a, b in zip(best_lat, lat)]
        best_cpu = [min(a, b) for a, b in zip(best_cpu, cpu)]
        attempted += len(records)
        failed += bad
        if len(walls) >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
            break
    setups += [setup_seconds(args) for _ in range(SETUP_PROBES - len(setups))]
    # tail: the highest percentile with at least 10 records beyond it
    k = len(records) - 11
    tail, pct = sorted(best_lat)[k], 100.0 * (k + 1) / len(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per = f"each record's fastest of {len(walls)} passes"
    metrics = {
        "setup_s": (min(setups), "s", f"fastest of {len(setups)} fresh-process set-ups, "
                    f"slowest {max(setups):.3f} s"),
        "wall_s": (sum(best_lat), "s", f"{len(records)} records, {per}; "
                   f"raw pass times {min(walls):.3f}-{max(walls):.3f} s"),
        "cpu_s": (sum(best_cpu), "s", f"process CPU time, {per}"),
        "record_ms_p50": (1000.0 * statistics.median(best_lat), "ms",
                          f"n={len(records)} records, {per}"),
        "record_ms_tail": (1000.0 * tail, "ms", f"p{pct:.1f}, n={len(records)} records, "
                           f"10 beyond it, {per}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the workload process"),
    }
    lines = [f"digest {ref_digest} of pass 1; every later pass is checked against it"]
    return metrics, attempted, failed, lines


def run_traced(wl, args):
    """Untraced and traced passes in turn; the overhead compares each
    record's fastest run under either."""
    import spans
    tracer = spans.Tracer(extra_modules=[wl])
    with tracer:
        records = wl.WORKLOADS[args.workload](args.seed)
    best = {False: [float("inf")] * len(records), True: [float("inf")] * len(records)}
    reference, failed = None, []
    for i in range(2 * TRACE_PASSES):
        traced = i % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            _, lat, _, outs = one_pass(records)
        verdicts, oks, bad = judge(records, outs, reference)
        failed += bad
        if reference is None:
            reference, d0 = list(zip(verdicts, oks)), digest(records, verdicts)
        if traced:
            d1 = digest(records, verdicts)
        best[traced] = [min(a, b) for a, b in zip(best[traced], lat)]
    metrics = {k: (v["value"], v["unit"], "") for k, v in tracer.metrics().items()}
    t0, t1 = sum(best[False]), sum(best[True])
    metrics["trace.overhead_s"] = (t1 - t0, "s", f"traced {t1:.3f} s - untraced {t0:.3f} s, "
                                   f"each record's fastest of {TRACE_PASSES} passes")
    lines = [f"records {len(records)}; counts cover instance generation and "
             f"{TRACE_PASSES} traced passes",
             f"digest {d0} untraced, {d1} traced"]
    return metrics, 2 * TRACE_PASSES * len(records), failed, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        t0 = time.perf_counter()
        wl = import_workloads()
        wl.WORKLOADS[args.workload](args.seed)
        print(repr(time.perf_counter() - t0))
        return 0
    wl = import_workloads()
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, lines = runner(wl, args)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"attempted {attempted} failed {len(failed)} fail_frac {len(failed) / attempted:.6g}")
    for line in lines + failed[:20]:
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
