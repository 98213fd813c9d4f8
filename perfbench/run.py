#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
ccd libraries plus the binary (Release) into .bench_build/; later calls
only re-check the build. The binary's standard output is passed through,
and its last line is the result JSON. Build output goes to stderr.

--self-test runs all three workloads at tiny scale, traced and untraced,
and checks that --corrupt-digest makes each of them fail, naming the
campaign or trace; it takes a few seconds after the build.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bin", "perfbench")
WORKLOADS = ("sim_serve", "ingest_durable", "design_offline")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def scratch_env():
    """Environment whose temporary files (compiler scratch included) stay
    inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("ccd sources not found at %s/src; run from a repository checkout"
             % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True, env=scratch_env())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True,
                   env=scratch_env())


def commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources; stands in for the
    commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(args, capture=False):
    command = [BINARY] + args + ["--commit", commit(),
                                 "--source-digest", source_digest()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=capture,
                              env=scratch_env())
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 124)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--tiny"]
        for trace in (0, 1):
            r = run_binary(base + ["--trace", str(trace)], capture=True)
            label = "%s trace=%d" % (workload, trace)
            if r.returncode != 0:
                problems.append("%s exited %d: %s" % (label, r.returncode,
                                                      r.stderr.strip()))
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(label + " reported a failure")
            if sorted(result["metrics"]) != sorted(expected[trace]):
                problems.append(label + " printed the wrong metric names")
            print("ok   %s (%d metrics)" % (label, len(result["metrics"])))
        r = run_binary(base + ["--trace", "0", "--corrupt-digest"],
                       capture=True)
        named = "campaign " in r.stderr or "trace " in r.stderr
        if r.returncode == 0 or not named:
            problems.append("%s --corrupt-digest was not caught (exit %d)"
                            % (workload, r.returncode))
        else:
            print("ok   %s --corrupt-digest fails: %s" % (
                workload, r.stderr.strip().splitlines()[0]))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny-scale inputs (seconds per run)")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="corrupt one digest; the run must fail")
    parser.add_argument("--force", action="store_true",
                        help="measure a non-Release build anyway")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and opts.workload is None:
        parser.error("--workload is required")

    build()
    if opts.self_test:
        return self_test()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace)]
    args += ["--tiny"] if opts.tiny else []
    args += ["--corrupt-digest"] if opts.corrupt_digest else []
    args += ["--force"] if opts.force else []
    return run_binary(args).returncode


if __name__ == "__main__":
    sys.exit(main())
