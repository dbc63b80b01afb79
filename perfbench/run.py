#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
rhsd library and the benchmark binary (Release) into .bench_build/;
later calls only re-check the build.  Build output goes to stderr; the
binary's last stdout line is the JSON result.  See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "rhsd_perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no rhsd sources at %s/src; run from a full checkout"
                 % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % PACKAGE
                            not in cache.read_text()):
        shutil.rmtree(BUILD)  # configured for another checkout
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    result = subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
