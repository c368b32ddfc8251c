#!/usr/bin/env python3
"""OpenBG benchmark driver.

Builds the benchmark binary from the sources in this checkout (its own CMake
project in perfbench/, build tree under .bench_build/), then runs one
workload and passes its output through. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload lp-wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("lp-wire", "graph-mix-live", "kge-train-eval")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


class StrictParser(argparse.ArgumentParser):
    """Exits 2 with the usage text on any unknown flag or missing value."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(2)


def parse_args(argv):
    p = StrictParser(prog="perfbench/run.py", allow_abbrev=False,
                     description="Build and run one OpenBG benchmark workload.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="run the oracles' hand-checked self-test and exit")
    args = p.parse_args(argv)
    if args.selftest:
        if any(v is not None for v in (args.workload, args.seed, args.seconds,
                                       args.trace)):
            p.error("--selftest takes no other flag")
        return args
    missing = [f for f in ("workload", "seed", "seconds", "trace")
               if getattr(args, f) is None]
    if missing:
        p.error("missing " + ", ".join("--" + f for f in missing))
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


def source_stamp(root):
    """The revision stamp: the git revision when the checkout is a git
    repository, and always a sha256 over the library and benchmark sources
    (a checkout need not be a git repository)."""
    stamp = ""
    if os.path.isdir(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=False)
        if rev.returncode == 0:
            stamp = "git:" + rev.stdout.strip() + " "
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return stamp + "sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    """Configures and builds the benchmark; build output goes to stderr.

    Configures on every run (cheap when nothing changed), so the build tree
    always compiles this checkout's sources."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release", "-DOPENBG_ROOT=" + root],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no OpenBG sources at %s/src\n" % root)
        return 2
    out_base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_base):
        out_base = os.path.join(root, out_base)
    # One build tree per checkout path: a build directory shared between
    # checkouts (or left by a moved one) never builds another tree's sources.
    root_tag = hashlib.sha256(root.encode()).hexdigest()[:12]
    build_dir = os.path.join(out_base, "perfbench-" + root_tag)
    if not build(root, build_dir):
        return 3
    binary = os.path.join(build_dir, "perfbench")
    if args.selftest:
        return subprocess.run([binary, "--selftest"], check=False).returncode

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           # One file per workload, overwritten: a traced graph-mix-live
           # run writes about 100 MB of spans.
           "--trace-out", os.path.join(trace_dir, args.workload + ".jsonl")]
    env = dict(os.environ, PERFBENCH_SOURCE=source_stamp(root))
    # A terminated driver still stops and reaps the benchmark (see finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, env=env, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
