#!/usr/bin/env python3
"""Build and run the generator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady_cpgt --seed 1 --seconds 10 --trace 0

The first call configures and builds the benchmark (perfbench/CMakeLists.txt,
which compiles the libraries under src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. Exits non-zero, without a result, when the sources are missing or
the build fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The commit when run from a git checkout, else a hash of src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, src).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def build(build_root):
    # One CMake tree per source location: a build directory shared by two
    # checkouts must not mix their caches.
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:10]
    cmake_dir = os.path.join(build_root, "cmake-" + tag)
    exe = os.path.join(cmake_dir, "cpgbench")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "cpgbench",
                  "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            return None
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/", file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    exe = build(build_root)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.call([
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--root", build_root, "--commit", source_id()])


if __name__ == "__main__":
    sys.exit(main())
