#!/usr/bin/env python3
"""Entry point of the repository's benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt, which builds the simdts
library from this checkout) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is the
separate traced run that reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --describe     # workloads, metrics, layer map
    python3 perfbench/run.py --self-test    # the benchmark's own unit tests

Everything is built and written under perfbench/ (.build, .work).  Build
output goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / ".build"
WORK = HERE / ".work"
JOBS = str(min(4, os.cpu_count() or 1))
# Every workload ends in well under three minutes; a wedged run is killed
# rather than left hanging.
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over every file that goes into the build, path and content."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("cmake", "src", "tools", "perfbench/src"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    files.append(HERE / "CMakeLists.txt")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(*targets):
    """Configures (once) and builds the default targets, then `targets`;
    returns False if the build failed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: no simdts checkout around perfbench/ "
              "(missing CMakeLists.txt or src/)", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    # The default build comes first: it regenerates the build files when a
    # CMakeLists.txt changed, so that a target added there is known.
    steps.append(["cmake", "--build", str(BUILD), "-j", JOBS])
    if targets:
        steps.append(steps[-1] + ["--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def self_test():
    # perfbench_tests exists only where CMake found GTest.
    if not build("perfbench_tests"):
        return 1
    rc = subprocess.run([str(BUILD / "perfbench_tests")]).returncode
    rc2 = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         str(HERE / "tests"), "-p", "test_*.py"],
        env={**os.environ, "PERFBENCH_BIN": str(BUILD / "perfbench")},
    ).returncode
    return 1 if rc or rc2 else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--describe", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.describe and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    binary = str(BUILD / "perfbench")
    if args.describe:
        return subprocess.run([binary, "--describe"]).returncode
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK), "--commit", commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
