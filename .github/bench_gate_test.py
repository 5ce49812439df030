#!/usr/bin/env python3
"""Self-test of the paired benchmark gate: feed `bench_gate.py compare`
synthetic record sets and check each exit code.

    python3 .github/bench_gate_test.py

The spec is the repository's BENCHMARK.json, so the cases exercise the
metrics, directions and bounds the real gate reads.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "bench_gate.py")
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def runs(rate, wall, failed=0):
    return [{"exit": 0, "attempted": 10, "failed": failed,
             "metrics": {"setup_s": 0.1, "rate_per_s": rate * f, "wall_s": wall * f,
                         "latency_p50_us": 100.0}}
            for f in (0.95, 1.0, 1.05)]


BASE = {"check-full": runs(1e5, 5.0), "serve-saturated": runs(5e5, 0.2)}


def head(edit):
    h = copy.deepcopy(BASE)
    edit(h)
    return h


def halve_rate(h):
    for r in h["serve-saturated"]:
        r["metrics"]["rate_per_s"] /= 2


def double_wall(h):
    for r in h["check-full"]:
        r["metrics"]["wall_s"] *= 2


def drop_metric(h):
    for r in h["check-full"]:
        del r["metrics"]["latency_p50_us"]


def drop_workload(h):
    del h["serve-saturated"]


def add_head_only(h):
    h["new-workload"] = runs(1.0, 1e9)
    for r in h["check-full"]:
        r["metrics"]["new_metric"] = 1e9


def raise_fail_ratio(h):
    h["check-full"][0]["failed"] = 1


def nonzero_exit(h):
    h["check-full"][1]["exit"] = 1


CASES = [
    ("identical records pass", SPEC, BASE, 0),
    ("rate_per_s halved on one workload fails", SPEC, head(halve_rate), 1),
    ("wall_s doubled fails", SPEC, head(double_wall), 1),
    ("a metric missing on head fails", SPEC, head(drop_metric), 1),
    ("a workload missing on head fails", SPEC, head(drop_workload), 1),
    ("a metric or workload only on head is ignored", SPEC, head(add_head_only), 0),
    ("a higher fail ratio fails", SPEC, head(raise_fail_ratio), 1),
    ("a run that exited non-zero fails", SPEC, head(nonzero_exit), 1),
    ("an unreadable spec exits 2", "no-such-spec.json", BASE, 2),
    ("a bound-less spec exits 2", "boundless", BASE, 2),
]


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        with open(SPEC) as f:
            boundless = json.load(f)
        del boundless["end_to_end"][0]["bound"]
        specs = {"boundless": write("boundless.json", boundless),
                 "no-such-spec.json": os.path.join(tmp, "no-such-spec.json")}
        base_path = write("base.json", BASE)
        for i, (what, spec, h, want) in enumerate(CASES):
            cmd = [sys.executable, GATE, "compare", specs.get(spec, spec), base_path,
                   write("head%d.json" % i, h)]
            got = subprocess.run(cmd, stderr=subprocess.DEVNULL).returncode
            ok = got == want
            bad += not ok
            print("%s %s (exit %d, want %d)" % ("ok  " if ok else "FAIL", what, got, want))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
