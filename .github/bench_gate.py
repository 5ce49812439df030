#!/usr/bin/env python3
"""Paired benchmark gate: a head source tree against its base tree.

    python3 .github/bench_gate.py run BASE_TREE HEAD_TREE > gate.json
    python3 .github/bench_gate.py compare SPEC BASE_RECORDS HEAD_RECORDS

`run` reads HEAD_TREE/BENCHMARK.json and runs each of its workloads with
`perfbench/run.py --seconds <run_seconds> --trace 0` on both trees, PAIRS
pairs per workload with seeds 1..PAIRS, alternating which tree runs first.
It prints one JSON document: per workload and end-to-end metric the median
and quartiles of both sides, every run's values, the verdict, nproc and
the OCaml version.  `compare` judges two record sets saved earlier, each a
JSON object mapping a workload to a list of runs
{"exit": int, "attempted": int, "failed": int, "metrics": {name: value}}.

The gate fails (exit 1) when any run exited non-zero, when a workload's
fail ratio (failed / attempted over its runs) is higher on head, or when
an end-to-end metric's head median is worse than its base median by more
than the metric's `bound`, read in its `better` direction.  A workload or
metric measured on base but missing on head fails; one measured only on
head is ignored.  Exit 2: an unreadable spec or record file, or an
end-to-end metric without a bound or direction.  Every metric, direction
and bound comes from the spec; the script has no thresholds of its own.
"""

import json
import math
import os
import statistics
import subprocess
import sys

PAIRS = 5


def usage_error(msg):
    print("bench_gate: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        usage_error("cannot read %s: %s" % (path, e))


def load_spec(path):
    spec = load_json(path)
    metrics = spec.get("end_to_end") if isinstance(spec, dict) else None
    if not metrics:
        usage_error("%s declares no end_to_end metrics" % path)
    for m in metrics:
        bound = m.get("bound")
        if not isinstance(bound, (int, float)) or isinstance(bound, bool) or bound < 0:
            usage_error("%s: metric %s has no bound" % (path, m.get("name")))
        if m.get("better") not in ("lower", "higher"):
            usage_error("%s: metric %s has no better direction" % (path, m.get("name")))
    return spec


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summary(xs):
    q1, med, q3 = quartiles(xs)
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


def fail_ratio(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def compare(spec, base, head):
    """(per-workload summary, list of failure messages)"""
    failures = []
    result = {}
    for w, base_runs in base.items():
        head_runs = head.get(w)
        if not head_runs:
            failures.append("%s: missing on head" % w)
            continue
        for side, runs in (("base", base_runs), ("head", head_runs)):
            for r in runs:
                if r.get("exit", 0) != 0:
                    failures.append("%s: a %s run exited %d" % (w, side, r["exit"]))
        ratios = {"base": fail_ratio(base_runs), "head": fail_ratio(head_runs)}
        if ratios["head"] > ratios["base"]:
            failures.append("%s: fail ratio rose %.3g -> %.3g" % (w, ratios["base"], ratios["head"]))
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            bvals = [r["metrics"][name] for r in base_runs if name in r.get("metrics", {})]
            if not bvals:
                continue
            hvals = [r["metrics"][name] for r in head_runs if name in r.get("metrics", {})]
            if not hvals:
                failures.append("%s: %s missing on head" % (w, name))
                continue
            b, h = summary(bvals), summary(hvals)
            bm, hm = b["median"], h["median"]
            if bm:
                change = (hm - bm) / abs(bm)
            else:
                change = 0.0 if hm == bm else math.copysign(math.inf, hm - bm)
            worse = change if m["better"] == "lower" else -change
            ok = worse <= m["bound"]
            if not ok:
                failures.append("%s: %s %.4g -> %.4g (%+.1f%%, bound %.0f%%, %s is better)"
                                % (w, name, bm, hm, 100 * change, 100 * m["bound"], m["better"]))
            metrics[name] = {"better": m["better"], "bound": m["bound"], "base": b,
                             "head": h, "change": change, "ok": ok}
        result[w] = {"fail_ratio": ratios, "metrics": metrics}
    return result, failures


def report(result, failures):
    for w, r in result.items():
        for name, m in r["metrics"].items():
            b, h = m["base"], m["head"]
            print("%-16s %-15s base %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]  %+6.1f%%  %s"
                  % (w, name, b["median"], b["q1"], b["q3"], h["median"], h["q1"], h["q3"],
                     100 * m["change"], "ok" if m["ok"] else "WORSE"), file=sys.stderr)
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    print("bench gate: %s" % ("FAIL" if failures else "ok"), file=sys.stderr)


def run_once(tree, workload, seed, seconds):
    """one perfbench run: its record and the machine metadata it printed"""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    record = {"seed": seed, "exit": proc.returncode, "attempted": 0, "failed": 0, "metrics": {}}
    meta = {}
    lines = proc.stdout.strip().splitlines() or [""]
    try:
        for line in lines:
            if line.startswith("record "):
                meta = json.loads(line[len("record "):])["meta"]
        if proc.returncode == 0:
            last = json.loads(lines[-1])
            record["attempted"] = last["attempted"]
            record["failed"] = last["failed"]
            record["metrics"] = {k: v["value"] for k, v in last["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        record["exit"] = record["exit"] or 1
    print("%s %s seed %d: exit %d" % (os.path.basename(os.path.abspath(tree)), workload, seed,
                                      proc.returncode), file=sys.stderr)
    return record, meta


def run(base_tree, head_tree):
    spec = load_spec(os.path.join(head_tree, "BENCHMARK.json"))
    seconds = spec.get("run_seconds")
    if not isinstance(seconds, int) or not spec.get("workloads"):
        usage_error("%s/BENCHMARK.json needs run_seconds and workloads" % head_tree)
    records = {"base": {}, "head": {}}
    meta = {}
    for w in (x["name"] for x in spec["workloads"]):
        records["base"][w], records["head"][w] = [], []
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                tree = base_tree if side == "base" else head_tree
                rec, m = run_once(tree, w, i + 1, seconds)
                records[side][w].append(rec)
                meta = meta or m
    result, failures = compare(spec, records["base"], records["head"])
    report(result, failures)
    doc = {"pairs": PAIRS, "seconds": seconds, "nproc": meta.get("nproc"),
           "ocaml": meta.get("ocaml"), "ok": not failures, "failures": failures,
           "workloads": result}
    print(json.dumps(doc, indent=1))
    return not failures


def main(argv):
    if len(argv) == 3 and argv[0] == "run":
        ok = run(argv[1], argv[2])
    elif len(argv) == 4 and argv[0] == "compare":
        spec = load_spec(argv[1])
        base, head = load_json(argv[2]), load_json(argv[3])
        if not isinstance(base, dict) or not isinstance(head, dict):
            usage_error("a record set is a JSON object of workload -> runs")
        result, failures = compare(spec, base, head)
        report(result, failures)
        ok = not failures
    else:
        usage_error("usage: bench_gate.py run BASE_TREE HEAD_TREE\n"
                    "       bench_gate.py compare SPEC BASE_RECORDS HEAD_RECORDS")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
