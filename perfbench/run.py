#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe and the barracuda CLI (whose daemon the
daemon-fleet workload runs) with dune (the first build compiles the
whole library stack), runs the workload in a scratch directory under
_perfbench/ that is removed afterwards, checks the result line against
BENCHMARK.json and prints it as the last line of standard output.
Exits non-zero without a result when the sources are missing, the build
fails, the run fails or the result line is malformed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
# dune targets, built under _build/default
BENCH = "perfbench/bench.exe"
CLI = "bin/barracuda_cli.exe"


def built(target):
    return os.path.join("_build", "default", target)

# Single-threaded workloads run pinned to one CPU, the highest-numbered
# one allowed (interrupts tend to land on CPU 0): a run that migrates, or
# lands on a busier CPU than the last run, reads tens of percent slower.
# The daemon workload spreads over processes and domains and runs
# unpinned.
PINNED = {"check-corpus", "replay-table1"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            fail("%s not found: run from the root of a source checkout" % path)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    try:
        subprocess.run(
            # the shared dune cache lives outside the checkout
            [dune, "build", "--root", ".", "--cache=disabled", "./" + BENCH, "./" + CLI],
            stdout=sys.stderr,
            check=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.CalledProcessError as e:
        fail("build failed (exit %d)" % e.returncode)
    except subprocess.TimeoutExpired:
        fail("build timed out")


def run(args):
    os.makedirs("_perfbench", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir="_perfbench")
    cmd = [
        built(BENCH),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--dir", scratch,
        "--barracuda", built(CLI),
    ]
    pin = None
    if args.workload in PINNED and hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    # A session of its own, so that on a timeout the workload and any
    # daemon it started go down together.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, preexec_fn=pin, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s timed out" % args.workload)
    finally:
        # the workload stops its daemon itself; this catches one left
        # behind by a crash
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir("_perfbench")
        except OSError:
            pass
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("workload %s exited %d" % (args.workload, proc.returncode))
    return lines[-1]


def check(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("malformed result line: %r" % line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation attempted")
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (got, want))
    return line


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    print(check(run(args), args.trace == 1))


if __name__ == "__main__":
    main()
