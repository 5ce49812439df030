#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe from source
(release profile, into .bench_build/), runs one workload and passes its
output through; the last line of standard output is the result object.
Exits non-zero on a failed build, a failed output check, a result whose
metrics do not match BENCHMARK.json, or a run over the time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["check-full", "space-cert", "serve-saturated"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def flambda():
    for cmd in (["ocamlfind", "ocamlopt", "-config"], ["ocamlopt", "-config"]):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout
        except (OSError, subprocess.TimeoutExpired):
            continue
        for line in out.splitlines():
            if line.startswith("flambda:"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def expected_metrics(root, trace):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("cannot build: %s is missing from %s" % (needed, root))

    build_dir = os.path.join(root, ".bench_build")
    events_dir = os.path.join(build_dir, "events")
    os.makedirs(events_dir, exist_ok=True)
    build = dune_command() + [
        "build", "--root", root, "--build-dir", build_dir,
        "--profile", "release", "./perfbench/bench.exe",
    ]
    try:
        done = subprocess.run(build, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed (exit %d)" % done.returncode)

    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    env = dict(os.environ)
    env["OCAML_RUNTIME_EVENTS_DIR"] = events_dir
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--counts-dir", os.path.join(build_dir, "counts"),
        "--profile", "release", "--flambda", flambda(),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("%s exited %d" % (args.workload, proc.returncode), 1)

    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expected = expected_metrics(root, args.trace == 1)
    if expected is not None and sorted(result.get("metrics", {})) != sorted(expected):
        fail("reported metrics differ from BENCHMARK.json", 1)


if __name__ == "__main__":
    main()
