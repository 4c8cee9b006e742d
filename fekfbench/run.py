#!/usr/bin/env python3
"""Build and run the fekf repository benchmark.

    python3 fekfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds `fekfbench/CMakeLists.txt` (the fekf libraries plus the driver)
into `.bench_build/fekfbench`; later calls rebuild incrementally. The
driver binary then runs one workload and prints, as its last line, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
This script relays the driver's output and re-prints that object last.

Build output goes to stderr. Traces and the cross-run checksum record go
to `.bench_out/`. Exit codes: 0 = every check passed, 1 = a correctness
check failed (the result line still carries `"correct": false`), 2 = the
run could not start (no source tree, build failure, bad arguments).
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
WORKLOADS = ("fekf_tta_cu", "online_cu")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Wall limit for the driver binary. It excludes the build, which happens
# only on the first run in a checkout.
RUN_LIMIT_S = 170.0
# Longest --seconds that fits under RUN_LIMIT_S: a run adds its set-ups,
# the serving window's tail and the checks to the measured time.
MAX_SECONDS = 120.0


def die(message):
    print(f"fekfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Hash of every file the benchmark binary is built from.

    Stands in for the commit when the checkout is not a git repository;
    the driver keys its cross-run determinism record on it.
    """
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(ROOT, "src"),
             HERE]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames)
                         if f.endswith((".cpp", ".hpp", ".txt", ".py")))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    build_dir = os.path.join(ROOT, ".bench_build", "fekfbench")
    binary = os.path.join(build_dir, "fekfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", "fekfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        die(f"--seconds must be in (0, {MAX_SECONDS:.0f}] to fit the "
            f"{RUN_LIMIT_S:.0f} s run limit")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no fekf source tree next to {HERE} (expected src/)")
    if shutil.which("cmake") is None:
        die("cmake not found")

    binary = build()
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--source-hash", source_hash(), "--commit", git_commit()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"driver exceeded {RUN_LIMIT_S:.0f} s and was stopped")
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        if lines:
            print(lines[-1])
        die(f"driver exited {proc.returncode} without a result line")
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or result["correct"] is not True:
        sys.exit(1)


if __name__ == "__main__":
    main()
