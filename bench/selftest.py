"""Self-test of the benchmark.

    python3 bench/selftest.py

For each workload in BENCHMARK.json:
  1. two traced runs at SEED report identical per-layer counts (every
     metric whose unit is not seconds), and inside each traced run the
     traced pass gives the untraced pass's verdict digest;
  2. an untraced run at SEED gives that same digest;
  3. an untraced run at the HELD_OUT seed passes the correctness gate;
  4. where baseline.json holds a digest for the workload and SEED, the
     digest still matches it: verdicts, trials_run and counts unchanged.
It also checks that the untraced run prints exactly the end-to-end
metrics BENCHMARK.json lists.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BASELINE = json.loads((HERE / "baseline.json").read_text())
SEED = 1
HELD_OUT = 1009


def bench(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True).stdout
    lines = out.strip().splitlines()
    digests = re.findall(r"^digest ([0-9a-f]+)(?:.*?, ([0-9a-f]+) traced)?", out, re.M)[0]
    return json.loads(lines[-1]), digests


def main() -> int:
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in (wl["name"] for wl in SPEC["workloads"]):
        t1, (u1, tr1) = bench(w, SEED, 1)
        t2, (u2, tr2) = bench(w, SEED, 1)
        plain, (d0, _) = bench(w, SEED, 0)
        held, _ = bench(w, HELD_OUT, 0)
        expect(set(plain["metrics"]) == e2e,
               f"{w}: untraced metrics match BENCHMARK.json end_to_end")
        counts = sorted(k for k, v in t1["metrics"].items() if v["unit"] != "s")
        diff = [k for k in counts if t1["metrics"][k] != t2["metrics"][k]]
        expect(not diff, f"{w}: {len(counts)} per-layer counts repeat across traced runs"
               + (f" (differ: {', '.join(diff)})" if diff else ""))
        expect(u1 == tr1 == u2 == tr2 == d0,
               f"{w}: digest {d0} equal untraced, traced and across runs")
        expect(t1["correct"] and t2["correct"] and plain["correct"],
               f"{w}: correctness gate at seed {SEED}")
        expect(held["correct"] and held["failed"] == 0,
               f"{w}: correctness gate at held-out seed {HELD_OUT}")
        stored = BASELINE["workloads"][w]["digests"].get(str(SEED))
        if stored is not None:
            expect(d0 == stored, f"{w}: digest matches baseline.json ({stored})")
    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
