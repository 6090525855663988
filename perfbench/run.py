#!/usr/bin/env python3
"""Build the program from source and run one perfbench workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; its metric
names and units are checked against BENCHMARK.json before it is printed.
Exits non-zero, printing no result, when the sources, the build or the
run fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

EXE = "_build/default/perfbench/main.exe"
PATHCTL = "_build/default/bin/pathctl.exe"
WORKDIR = "perfbench/_work"
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """A digest of the sources the program is built from: the commit
    when the checkout is a git repository, else a hash of the files."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            if not os.path.basename(d).startswith(("_", ".")) for f in files)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, expected):
    try:
        res = json.loads(line)
    except ValueError:
        die("last output line is not JSON")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        die("result keys: %s" % sorted(res))
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != expected:
        die("metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(expected.items())))
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            die("metric %s has no numeric value" % k)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            die("no %s here: run from the root of a full checkout" % need)
    expected = expected_metrics(args.trace)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/pathctl.exe"],
        capture_output=True, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        die("build failed")

    shutil.rmtree(WORKDIR, ignore_errors=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_digest(), "--workdir", WORKDIR, "--pathctl", PATHCTL]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1]:
        sys.stderr.write(run.stdout)
        die("run failed with exit code %d" % run.returncode)
    check_result(lines[-1], expected)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
