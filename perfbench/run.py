#!/usr/bin/env python3
"""NewsWire end-to-end benchmark.

Builds the benchmark (Release, sequential simulator engine) from the
program's sources and runs it:

  python3 perfbench/run.py --workload steady_1023 --seed 1 --trace 0
      one run of one workload; the last stdout line is one JSON object
      {"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
      per-layer metrics of a traced run instead of the end-to-end metrics.
  python3 perfbench/run.py --workload all
      every workload, untraced then traced, as one table.
  python3 perfbench/run.py --steadiness 10 [--workload NAME|all]
      N runs per workload with seeds 1..N; prints the median and quartiles
      of every end-to-end metric and its spread against BENCHMARK.json.
  python3 perfbench/run.py --self-test
      builds and runs the benchmark's own tests.

--seconds defaults to run_seconds of BENCHMARK.json. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build), under the repository
root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["steady_1023", "fanout_255", "churn_1023"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures once and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "newswire", "system.cc")):
        log("perfbench: program sources not found under %s/src" % ROOT)
        sys.exit(2)
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another source tree cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(out)
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload in a process of its own; returns (code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cmd_all(binary, seed, seconds):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run_once(binary, w, seed, seconds, trace)
            res = last_json(out) if code == 0 else None
            if res is None:
                print("%s trace=%d: failed (exit %d)" % (w, trace, code))
                ok = False
                continue
            ok = ok and res["correct"]
            print("%s trace=%d: correct=%s attempted=%d failed=%d"
                  % (w, trace, res["correct"], res["attempted"],
                     res["failed"]))
            for name, m in sorted(res["metrics"].items()):
                print("  %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


def cmd_steadiness(binary, workloads, n, seconds):
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    ok = True
    for w in workloads:
        values, shares, correct = {}, set(), True
        for i in range(n):
            code, out = run_once(binary, w, i + 1, seconds, 0)
            res = last_json(out) if code == 0 else None
            if res is None:
                log("%s seed %d: failed (exit %d)" % (w, i + 1, code))
                return 1
            correct = correct and res["correct"]
            shares.add((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        ratios = {f / a for f, a in shares}
        print("%s: %d runs, correct=%s, failed/attempted=%s"
              % (w, n, correct, sorted("%d/%d" % s for s in shares)))
        if len(ratios) != 1:
            print("  failed share differs between runs")
            ok = False
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
                ok = False
            print("  %-26s median %14.6f  q1 %14.6f  q3 %14.6f  spread %.4f"
                  "  bound %s%s" % (name, med, q1, q3, spread, bound, flag))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="N")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        binary = build("newswire_perfbench_test")
        return subprocess.run([binary]).returncode

    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    if args.steadiness > 0:
        binary = build("newswire_perfbench")
        names = WORKLOADS if args.workload in (None, "all") else [args.workload]
        return cmd_steadiness(binary, names, args.steadiness, seconds)
    if args.workload in (None, "all"):
        binary = build("newswire_perfbench")
        return cmd_all(binary, args.seed, seconds)

    binary = build("newswire_perfbench")
    code, out = run_once(binary, args.workload, args.seed, seconds,
                         args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
