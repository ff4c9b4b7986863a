#!/usr/bin/env python3
"""Builds and runs the DynFD benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (perfbench/)
and the `dynfd` server binary from source into $CARGO_TARGET_DIR
(default .bench_build), then runs one workload. The last line of
standard output is the JSON result; the exit code is non-zero when the
build fails, the run fails, or the correctness gate fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    if not (cargo_build(os.path.join(HERE, "Cargo.toml"))
            and cargo_build(os.path.join(ROOT, "Cargo.toml"), "--bin", "dynfd")):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    bench = os.path.join(target, "release", "dynfd-perfbench")
    server = os.path.join(target, "release", "dynfd")
    cmd = [bench, *sys.argv[1:], "--dynfd-bin", server]
    # A session of its own, so a timeout can stop the benchmark and the
    # server it spawned together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
