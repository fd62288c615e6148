#!/usr/bin/env python3
"""Build Tero's outside-in benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --seed <n> [--seconds <s>] [--trace <0|1>]

Without --workload, every workload of BENCHMARK.json runs in turn. Run from
the root of a checkout. The benchmark program (perfbench/src) and Tero's
libraries (src/) are built into .bench_build/perfbench with CMake; build
output goes to stderr, so the program's last stdout line stays the JSON
result. A traced run also writes its Chrome-trace JSON to
.bench_build/trace-<workload>.json. Exits nonzero, printing no result, when
the sources are missing or the build fails, and nonzero when an output
check fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
PROGRAM = BUILD_DIR / "tero_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_step(command, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(command)}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: Tero sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if not run_step(configure, BUILD_TIMEOUT_S):
            return False
    return run_step(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                     "--target", "tero_perfbench"],
                    BUILD_TIMEOUT_S)


def program_args(argv):
    args = list(argv)
    if "--trace" in args and "--trace-out" not in args:
        at = args.index("--trace")
        if at + 1 < len(args) and args[at + 1] == "1":
            workload = "run"
            if "--workload" in args and args.index("--workload") + 1 < len(args):
                workload = args[args.index("--workload") + 1]
            args += ["--trace-out", str(BUILD_ROOT / f"trace-{workload}.json")]
    return args


def main(argv):
    if not build():
        return 2
    if "--workload" in argv:
        return run_program(argv)
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    codes = [run_program(["--workload", w["name"]] + argv) for w in workloads]
    return max(codes)


def run_program(argv):
    sys.stdout.flush()
    proc = subprocess.Popen([str(PROGRAM)] + program_args(argv))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: benchmark program exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
