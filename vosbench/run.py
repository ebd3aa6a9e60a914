#!/usr/bin/env python3
"""Build and run vosbench from the root of a checkout of this repository.

    python3 vosbench/run.py --workload miner|fsmix|mario --seed N \
        --seconds S --trace 0|1

Builds vosbench/vosbench.exe with dune into .bench_build/ (the dune
cache is disabled, so nothing is written outside the checkout), takes
extra cold set-up samples in fresh processes, runs the measured episodes,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the traced run's span log is written under
.bench_build/vosbench/. Exits non-zero without a result when the
checkout cannot be built or a run fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "vosbench", "vosbench.exe")
OUT_DIR = os.path.join(ROOT, BUILD_DIR, "vosbench")

# Cold set-up is sampled in this many extra processes, besides the
# measured process's own; setup_s is the median of all of them.
EXTRA_SETUPS = 2

# Every child gets a deadline so a wedged build or run cannot hang us.
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_S = 120


def fail(msg):
    print("vosbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture):
    """Run [cmd] in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail("not a checkout of the repository: %s has no dune-project or lib/" % ROOT)
    code, _ = run(
        [
            "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
            "--cache=disabled", "--profile", "release", "-j", "2",
            "./vosbench/vosbench.exe",
        ],
        BUILD_TIMEOUT_S,
        capture=False,
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["miner", "fsmix", "mario"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if args.trace == 0:
        for _ in range(EXTRA_SETUPS):
            code, out = run([EXE] + common + ["--setup-only"], SETUP_TIMEOUT_S, True)
            res = last_json(out)
            if code != 0 or res is None:
                fail("set-up sample failed")
            setups.append(res["setup_s"])

    os.makedirs(OUT_DIR, exist_ok=True)
    code, out = run(
        [EXE] + common
        + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR],
        RUN_TIMEOUT_S,
        True,
    )
    lines = out.splitlines()
    res = last_json(out)
    if code != 0 or res is None:
        sys.stderr.write(out)
        fail("run failed with exit code %d" % code)
    # the run's log lines first, then the result as the last line
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        setups.append(res["metrics"]["setup_s"]["value"])
        print("setup samples: " + " ".join("%.4f" % s for s in setups))
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
