#!/usr/bin/env python3
"""Builds and runs the served-day benchmark (see README.md).

    python3 servebench/run.py --workload big_fleet --seed 1 --seconds 12

Run from the root of a checkout. The benchmark is built from source into
.bench_build/servebench on first use; the last stdout line is the result
object, and the details (provenance, sample counts) and the Chrome trace
land in .bench_build/servebench/results/.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
WORKLOADS = ("storm_day", "learning_day", "big_fleet", "metro_crowd")


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def sources():
    """The files the binary is built from."""
    for top in ("src", "servebench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".cpp", ".hpp") or path.name == "CMakeLists.txt":
                yield path


def build():
    """Configures once, then builds when a source is newer than the binary;
    build output goes to stderr."""
    binary = BUILD / "served_day"
    if binary.is_file():
        built = binary.stat().st_mtime
        if all(path.stat().st_mtime <= built for path in sources()):
            return binary
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "served_day", "-j", jobs],
        check=True, stdout=sys.stderr)
    return binary


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def source_digest():
    """sha256 over the sources the benchmark builds: a checkout without git
    metadata still records exactly which code was measured."""
    digest = hashlib.sha256()
    for path in sources():
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small world, one window: for the tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no src/ next to {HERE.name}/: run from a full checkout")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 3
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", str(BUILD / "results"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
