#!/usr/bin/env python3
"""Build the selcache benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test   # the oracle catches a wrong cell
    python3 perfbench/run.py --freeze      # rewrite the oracle (known-good
                                           # builds only)

Run from the root of a checkout. The selcache libraries, the selcache CLI
and the benchmark driver are built into .bench_build/ (configured on the
first run, brought up to date on every run); build output goes to stderr.
The driver's last line on stdout is the result as one JSON object. The exit
code is non-zero, with no result printed, when the build or the driver
fails.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
# A workload run must end within 180 s; the driver keeps well inside that.
DRIVER_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    # Configure until a configure has generated the Makefile; a failed one
    # leaves a cache behind but no Makefile.
    if not (CMAKE_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                  "--target", "perfbench_driver", "selcache"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--freeze", action="store_true")
    a = ap.parse_args()
    if not (a.self_test or a.freeze) and None in (a.workload, a.seed,
                                                  a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    paths = ["--cli", str(CMAKE_DIR / "tools" / "selcache"),
             "--oracle", str(HERE / "oracle"),
             "--work", str(BUILD / "work")]
    if a.self_test:
        cmd = ["--self-test"] + paths
    elif a.freeze:
        cmd = ["--freeze"] + paths
    else:
        cmd = ["--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace)] + paths
    # Own process group, so a driver that overruns is stopped together with
    # any selcache child it started.
    proc = subprocess.Popen([str(CMAKE_DIR / "perfbench_driver")] + cmd,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=None if a.freeze else DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: the driver ran longer than %d s" %
                 DRIVER_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
