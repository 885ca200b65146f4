#!/usr/bin/env python3
"""Build and run the hentt repository benchmark.

Usage (from the root of a hentt checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library from the
checkout's sources) into .bench_build/perfbench, runs the harness
self-test, then runs one benchmark pass. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Reports, the
self-time table and the Chrome trace land in .bench_build/out.
"""

import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Under the 180 s a run may take: the binary's own watchdog fires first.
RUN_TIMEOUT_S = 175

_child = None


def _stop(signum, _frame):
    """Take the running child down with us, and wait for it."""
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def run(cmd, timeout=None, **kwargs):
    """Run cmd to completion; returns its exit code."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        return _child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        sys.stderr.write(f"perfbench/run.py: {cmd[0]} timed out after "
                         f"{timeout} s\n")
        return 1
    finally:
        _child = None


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        compile_ = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]
        for cmd in (configure, compile_):
            if run(cmd, stdout=sys.stderr) != 0:
                return False
    return True


def main():
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    if not build():
        sys.stderr.write("perfbench/run.py: build failed\n")
        return 1
    if run([os.path.join(BUILD, "perfbench_selftest")], stdout=sys.stderr) != 0:
        return 1
    return run([os.path.join(BUILD, "perfbench"), *sys.argv[1:],
                "--out", os.path.join(".bench_build", "out")],
               timeout=RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
