#!/usr/bin/env python3
"""Build vzbench from source and run it.

    python3 bench/vzbench/run.py --workload conv_noise --seed 1 --seconds 15 --trace 0
    python3 bench/vzbench/run.py --workload all --runs 5          # repeatability
    python3 bench/vzbench/run.py --list

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build): bench/vzbench/CMakeLists.txt adds the repository's own CMake
project and builds vzbench and the three daemons from the checkout's
sources. Then the vzbench binary runs, and its last stdout line, the result
JSON, is passed through after its metric names are checked against
BENCHMARK.json.

--runs N runs each selected workload N times with seeds seed..seed+N-1. It
reports the median and quartiles of every metric the runs produced: untraced,
the gated end-to-end metrics plus the chain's throughput and latency. It
flags any metric whose quartile spread, as a share of its median, exceeds its
bound in BENCHMARK.json. --trajectory FILE appends those medians as one JSONL
row.
"""

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures and builds vzbench and its daemons (both no-ops when current)."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # FETCHCONTENT_FULLY_DISCONNECTED: the root project falls back to
    # downloading GoogleTest when it is not installed; a benchmark build must
    # fail instead of reaching the network.
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
              "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"],
             ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 4), "--target", "vzbench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def run_binary(bdir, workload, seed, seconds, trace):
    """One vzbench run; returns (exit code, stdout lines, path of its --json file)."""
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-s%d-t%d" % (workload, seed, trace))
    cmd = [os.path.join(bdir, "bench", "vzbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--json", stem + ".json",
           "--ledger", stem + ".ledger.jsonl"]
    # vzbench runs in its own process group, and this process adopts orphans,
    # so a timeout or a crash can never leave a daemon running.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: vzbench exceeded %d s and was killed" % RUN_TIMEOUT_S)
        stdout = ""
        proc.returncode = 1
    reap_group(proc)
    return proc.returncode, stdout.splitlines(), stem + ".json"


def become_subreaper():
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # without it, leftovers are still killed, just not waited for


def reap_group(proc):
    """SIGKILLs whatever is left of vzbench's process group and waits for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def expected_metrics(bench, trace, workloads):
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    if len(workloads) == 1:
        return set(names)
    return {"%s.%s" % (w, n) for w in workloads for n in names}


def workloads_of(bench, workload):
    names = [w["name"] for w in bench["workloads"]]
    return names if workload == "all" else [workload]


def single(args, bench, bdir):
    code, lines, _ = run_binary(bdir, args.workload, args.seed, args.seconds, args.trace)
    if not lines:
        return code or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("run.py: last line is not the result JSON")
        return 1
    want = expected_metrics(bench, args.trace, workloads_of(bench, args.workload))
    got = set(result.get("metrics", {}))
    if got != want:
        log("run.py: metrics differ from BENCHMARK.json; missing %s, unexpected %s"
            % (sorted(want - got), sorted(got - want)))
        return 1
    print(lines[-1], flush=True)
    return code


def repeat(args, bench, bdir):
    """--runs N: per workload, median and quartiles of every metric."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    summary = {}
    for workload in workloads_of(bench, args.workload):
        values = {}
        for i in range(args.runs):
            code, lines, json_path = run_binary(bdir, workload, args.seed + i, args.seconds,
                                                args.trace)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct"):
                log("run.py: %s seed %d failed (exit %d)" % (workload, args.seed + i, code))
                failed = True
                continue
            with open(json_path) as f:
                for name, value in json.load(f)[0]["metrics"].items():
                    values.setdefault(name, []).append(value)
        summary[workload] = {}
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf") if q3 > q1 else 0.0
            bound = bounds.get(name)
            flag = bound is not None and spread > bound
            summary[workload][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
            print("%-12s %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%%s" % (
                workload, name, q2, q1, q3, 100 * spread,
                "" if bound is None else "  bound %4.1f%%%s" % (100 * bound,
                                                              "  FLAG" if flag else "")))
    if args.trajectory and not args.trace:
        append_trajectory(args, summary)
    return 1 if failed else 0


def append_trajectory(args, summary):
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    row = {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu, "runs": args.runs,
           "seed": args.seed, "seconds": args.seconds,
           "medians": {w: {n: s["median"] for n, s in ms.items()} for w, ms in summary.items()},
           "spreads": {w: {n: s["spread"] for n, s in ms.items()} for w, ms in summary.items()}}
    with open(args.trajectory, "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trajectory")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args()

    if args.list:
        for w in bench["workloads"]:
            print("workload   %-14s %s" % (w["name"], w["why"]))
        for kind in ("end_to_end", "per_layer"):
            for m in bench[kind]:
                print("%-10s %-34s %s" % (kind, m["name"], m["unit"]))
        return 0
    if args.workload != "all" and args.workload not in workloads_of(bench, "all"):
        log("run.py: unknown workload %r (see --list)" % args.workload)
        return 2

    become_subreaper()
    bdir = build_dir()
    if not build(bdir):
        return 1
    return repeat(args, bench, bdir) if args.runs > 1 else single(args, bench, bdir)


if __name__ == "__main__":
    sys.exit(main())
