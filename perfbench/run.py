#!/usr/bin/env python3
"""Repository benchmark launcher.

Builds the benchmark program (perfbench/, which compiles the treecode library
from the repository sources with the repository's own build file) and runs
one workload in a child process:

    python3 perfbench/run.py --workload paper_uniform --seed 1 --seconds 25 --trace 0

The last line of standard output is the program's JSON result. With
``--self-test`` it instead runs every workload at smoke size, traced and
untraced, and checks that each metric named in BENCHMARK.json is emitted,
finite and carries its unit, and that the correctness gate rejects a
perturbed potential.

Build products and reports go to ``$CARGO_TARGET_DIR`` (default
``.bench_build``) under the repository root.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# OpenMP threads per workload: every workload keeps at most 4 threads busy
# (4 OpenMP threads; 4 ranks x 1 thread; 4 serve workers x 1 thread).
WORKLOAD_THREADS = {
    "paper_uniform": 4,
    "plummer_md": 4,
    "serve_storm": 1,
    "dist_gpusim": 1,
}
RUN_TIMEOUT_S = 170


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configure and build the program; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: the repository sources are missing; nothing to "
                 "benchmark")
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("run.py: build failed (see %s)" % log_path)
    return os.path.join(build_dir, "perfbench")


def run_program(binary, args, threads):
    """Run the program; returns (exit code, stdout lines)."""
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(threads)
    env["OMP_DYNAMIC"] = "false"
    try:
        proc = subprocess.run([binary] + args, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("run.py: perfbench exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    code, lines = run_program(binary, ["--gate-selftest"], 1)
    print("\n".join(lines))
    if code != 0:
        problems.append("the correctness gate accepted a perturbed potential")
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            args = ["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            code, lines = run_program(binary, args, WORKLOAD_THREADS[name])
            tag = "%s trace %d" % (name, trace)
            if code != 0 or not lines:
                problems.append("%s: perfbench failed (exit %d)" % (tag, code))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: result not correct" % tag)
            got = result["metrics"]
            for metric, unit in expected[trace].items():
                entry = got.get(metric)
                if entry is None:
                    problems.append("%s: %s missing" % (tag, metric))
                elif entry["unit"] != unit:
                    problems.append("%s: %s unit %r, expected %r" %
                                    (tag, metric, entry["unit"], unit))
                elif not math.isfinite(entry["value"]):
                    problems.append("%s: %s not finite" % (tag, metric))
            extra = set(got) - set(expected[trace])
            if extra:
                problems.append("%s: unexpected metrics %s" %
                                (tag, sorted(extra)))
            print("%-26s ok=%s attempted=%d metrics=%d" %
                  (tag, result["correct"], result["attempted"], len(got)))
    for p in problems:
        print("FAIL:", p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_THREADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    out_dir = os.path.join(build_root(), "out")
    code, lines = run_program(
        binary,
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", out_dir],
        WORKLOAD_THREADS[args.workload])
    if code != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        run = "--workload %s --seed %d --trace %d" % (
            args.workload, args.seed, args.trace)
        if code < 0:
            sys.stderr.write("run.py: perfbench %s was killed by signal %d\n"
                             % (run, -code))
        else:
            sys.stderr.write("run.py: perfbench %s exited with code %d\n"
                             % (run, code))
        return 1
    json.loads(lines[-1])  # the result line must parse
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
