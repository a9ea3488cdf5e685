#!/usr/bin/env python3
"""Build the benchmark suite and run one workload.

Usage (from the repository root):

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench/suite/suite.exe with dune (a no-op when it is up to date),
runs the workload and passes its output through.  The last line printed
is one JSON object with the keys correct, attempted, failed and
metrics; the metrics are exactly the end_to_end set of BENCHMARK.json
with --trace 0 and exactly its per_layer set with --trace 1.  A layer
that the workload never calls is reported as 0.  With --trace 1 the
Chrome trace-event file is written to .bench_trace/NAME-seedN.json.

Exits nonzero, without a result line, when the repository (dune-project
and lib/) is missing, the build fails, or the suite fails or times out.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXE = os.path.join(ROOT, "_build", "default", "bench", "suite", "suite.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout.
    Returns (returncode, captured stdout or None); returncode None on
    timeout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    return proc.returncode, out


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no repository around %s: dune-project or lib/ is missing" % HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail("unknown workload %r" % args.workload)

    code, _ = run(["dune", "build", "--root", ".", "./bench/suite/suite.exe"],
                  BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        fail("build failed" if code is not None else "build timed out")

    cmd = [EXE, args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        fail("suite timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    # On any failure below, pass the suite's lines through but never a
    # result line.
    body = [l for l in lines if not l.startswith("{")]
    if code != 0 or not lines[-1].startswith("{"):
        print("\n".join(body))
        fail("suite exited with code %d" % code)

    result = json.loads(lines[-1])
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in declared:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif args.trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            print("\n".join(body))
            fail("suite did not report %s" % m["name"])
    result["metrics"] = metrics
    print("\n".join(body))
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
