#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the benchmark program and `ponet` from source with
dune, runs one workload and passes its output through: the last line of
stdout is the result object.  The exit code is the program's: non-zero
when an output check failed.  `--smoke` is the benchmark's own test: every
workload at a tiny size, in both modes, with the metric names and units
checked against BENCHMARK.json, and once more with a corrupted output that
the checks must catch.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "perfbench", "pobench.exe")
PONET = os.path.join("_build", "default", "bin", "ponet.exe")
OUT = os.path.join("perfbench", "out")
SOURCES = ("dune-project", "bin/ponet.ml", "lib/serve/engine.ml")
BUILD_TIMEOUT_S = 700


def run_timeout_s(seconds):
    """Set-ups, output checks and the traced replay come after the timed phase."""
    return max(170, 3 * seconds + 80)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("not a checkout of the repository (missing %s)" % ", ".join(missing))
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/pobench.exe", "./bin/ponet.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def describe():
    """`git describe` when this is a git checkout, else a digest of lib/ and bin/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              capture_output=True, text=True, env=env, timeout=30)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "no git; lib+bin sha256 " + h.hexdigest()[:16]


def run(workload, seed, seconds, trace, extra=(), version="unknown"):
    """Run the benchmark program; return (exit code, stdout lines)."""
    cmd = [BENCH, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--ponet", PONET, "--out", OUT, "--describe", version]
    cmd += list(extra)
    # Its own session, so a timeout can stop the program and any daemon it
    # started in one signal.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timeout = run_timeout_s(seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: %s timed out after %d s" % (workload, timeout), file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return r


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    modes = ((0, {m["name"]: m["unit"] for m in spec["end_to_end"]}),
             (1, {m["name"]: m["unit"] for m in spec["per_layer"]}))
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, want in modes:
            rc, lines = run(w, 1, 1, trace, ["--smoke"])
            r = result_of(lines)
            tag = "%s trace=%d" % (w, trace)
            if rc != 0 or r is None or not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append("%s: exit %d, result %s" % (tag, rc, r))
                continue
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                problems.append("%s: metrics %s, BENCHMARK.json wants %s" % (tag, got, want))
            if trace == 0 and not all(v["value"] > 0 for v in r["metrics"].values()):
                problems.append("%s: an end-to-end metric reads 0" % tag)
            print("smoke: %s ok" % tag, file=sys.stderr)
        rc, lines = run(w, 1, 1, 0, ["--smoke", "--corrupt"])
        r = result_of(lines)
        if rc == 0 or r is None or r["correct"]:
            problems.append("%s: a corrupted output went unnoticed (exit %d)" % (w, rc))
        else:
            print("smoke: %s catches a corrupted output" % w, file=sys.stderr)
    for p in problems:
        print("smoke: FAIL " + p, file=sys.stderr)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        fail("--workload is required")
    rc, lines = run(args.workload, args.seed, args.seconds, args.trace, version=describe())
    for line in lines:
        print(line)
    if result_of(lines) is None:
        print("run.py: %s printed no result" % args.workload, file=sys.stderr)
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
