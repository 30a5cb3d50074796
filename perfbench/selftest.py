#!/usr/bin/env python3
"""The benchmark's own test.

Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload runs briefly, untraced and traced, and must pass: exit 0,
   "correct": true, the end-to-end or per-layer metrics BENCHMARK.json
   names, and no failed operation beyond the known library fault.
2. Every kind of check is sabotaged in turn (--inject): that check must
   report the failure, the run must count the sabotaged operations as
   failed, report "correct": false and exit nonzero.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark must exit nonzero without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SEED = 20261018
SECONDS = "0.5"

# Operations per round of each workload, and how many of them the known
# library fault fails on every seed (see README.md, "Known fault").
OPS_PER_ROUND = {"micro-detailed": 9, "kernels-detailed": 10,
                 "apps-sampled": 30, "accuracy-streams": 16}
KNOWN_PER_ROUND = {"micro-detailed": 1}

CHECKS = {
    "micro-detailed": ["micro-results", "micro-dist", "micro-markers",
                       "micro-insts", "micro-ipc", "micro-edges",
                       "micro-order", "micro-determinism"],
    "kernels-detailed": ["kernel-result", "kernel-insts",
                         "kernel-determinism"],
    "apps-sampled": ["app-total-insts", "app-counters", "app-lib-identity",
                     "app-determinism"],
    "accuracy-streams": ["acc-full-total", "acc-every-nth",
                         "acc-brr-binomial", "acc-range", "acc-resonance",
                         "acc-determinism"],
}


def run(workload, trace=0, inject="", cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    lines = res.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return res.returncode, result, res.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for w in OPS_PER_ROUND:
        for trace, names in ((0, e2e), (1, layers)):
            rc, res, _ = run(w, trace)
            expect(rc == 0 and res is not None and res["correct"],
                   f"{w} trace={trace}: clean run passes")
            if res is None:
                continue
            rounds = res["attempted"] // OPS_PER_ROUND[w]
            expect(res["attempted"] == rounds * OPS_PER_ROUND[w] and
                   res["failed"] == rounds * KNOWN_PER_ROUND.get(w, 0),
                   f"{w} trace={trace}: whole rounds, only known failures "
                   f"({res['failed']} of {res['attempted']})")
            expect(sorted(res["metrics"]) == sorted(names),
                   f"{w} trace={trace}: reports exactly the metrics of "
                   "BENCHMARK.json")

    for w, checks in CHECKS.items():
        for check in checks:
            rc, res, err = run(w, inject=check)
            known = 0
            if res is not None:
                rounds = res["attempted"] // OPS_PER_ROUND[w]
                known = rounds * KNOWN_PER_ROUND.get(w, 0)
            expect(rc != 0 and res is not None and not res["correct"] and
                   res["failed"] > known and f"FAIL [{check}]" in err,
                   f"{w}: sabotaged {check} check is counted as a failure")

    # Without the library sources the benchmark cannot build and must fail.
    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    env_dir = os.environ.pop("CARGO_TARGET_DIR", None)
    try:
        rc, res, _ = run("micro-detailed", cwd=bare)
    finally:
        if env_dir is not None:
            os.environ["CARGO_TARGET_DIR"] = env_dir
    expect(rc != 0 and res is None,
           "without src/ the benchmark exits nonzero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
