#!/usr/bin/env python3
"""Short self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seconds 2]

Run it from the repository root. For every workload in BENCHMARK.json it
makes one untraced run and two traced runs with the same seed, then checks
that:

* every end-to-end and per-layer metric is printed, with its unit;
* the outputs were correct: `correct` is true and `ok_share` is 1.0;
* the same seed yields the same op sequence and identical exact counts
  (exec.sim_cycles_per_op, memhier.extrapolated_share, *.rpe_median_pct);
* every result carries its provenance.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["exec.sim_cycles_per_op", "memhier.extrapolated_share",
         "incore.rpe_median_pct", "mca.rpe_median_pct"]
PROVENANCE = ["commit", "source_digest", "nproc", "rustc", "profile", "seed"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def check(cond, what):
    if not cond:
        sys.exit("selfcheck FAILED: " + what)


def check_metrics(result, table, label):
    got = result["metrics"]
    check(set(got) == {m["name"] for m in table}, label + ": metric names differ from BENCHMARK.json")
    for m in table:
        check(got[m["name"]]["unit"] == m["unit"], "{}: {} has unit {!r}, expected {!r}".format(
            label, m["name"], got[m["name"]]["unit"], m["unit"]))


def main():
    seconds = sys.argv[sys.argv.index("--seconds") + 1] if "--seconds" in sys.argv else "2"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seed = 7
    for w in bench["workloads"]:
        name = w["name"]
        prov, e2e = run(name, seed, seconds, 0)
        check_metrics(e2e, bench["end_to_end"], name)
        check(e2e["correct"] and e2e["failed"] == 0, name + ": outputs not correct")
        check(e2e["metrics"]["ok_share"]["value"] == 1.0, name + ": ok_share is not 1.0")
        check(all(k in prov for k in PROVENANCE), name + ": provenance incomplete")
        check(prov["seed"] == str(seed), name + ": provenance names another seed")
        traced = [run(name, seed, seconds, 1) for _ in range(2)]
        for p, r in traced:
            check_metrics(r, bench["per_layer"], name + " traced")
            check(r["correct"], name + " traced: outputs not correct")
            check(p["op_digest"] == prov["op_digest"], name + ": same seed, different op sequence")
        for key in EXACT:
            a, b = (r["metrics"][key]["value"] for _, r in traced)
            check(a == b, "{}: {} differs between runs of one seed ({} vs {})".format(name, key, a, b))
        print("selfcheck ok: {} (op digest {}, {} ops)".format(name, prov["op_digest"], e2e["attempted"]))


if __name__ == "__main__":
    main()
