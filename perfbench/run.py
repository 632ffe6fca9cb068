#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload census|monitor_read|monitor_ingest \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library sources under src/) into
.bench_build/perfbench with CMake in Release mode, then runs one
workload with .bench_run/<workload> as its work directory. Build
output goes to stderr; the benchmark's stdout is passed through, so the
last line of stdout is its JSON result. Exits non-zero when the build
fails, the sources are missing, or the run fails an output oracle.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("census", "monitor_read", "monitor_ingest")
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> bool:
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources under {root / 'src'}", file=sys.stderr)
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workdir = root / ".bench_run" / args.workload
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--workdir", str(workdir)]
    sys.stdout.flush()
    with subprocess.Popen(command) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
