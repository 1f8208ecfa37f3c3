#!/usr/bin/env python3
"""Builds and runs the sitime benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

The first run configures and builds sitime_serve and the perfbench program
(Release) under $CARGO_TARGET_DIR (default .bench_build); later runs only
check that the build is up to date. The program's last stdout line is the
result JSON.
"""
import argparse
import ctypes
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NEEDED = ["CMakeLists.txt", "src", os.path.join("tools", "sitime_serve.cpp")]


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def die_with_parent():
    """Makes the child exit when this process dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


def revision():
    """The git commit when run inside a clone, plus a digest of the sources
    the benchmark builds (a plain checkout has no git metadata)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    return f"{commit} sources:{source_digest()}"


def source_digest():
    """Hash of the sources the benchmark builds."""
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", os.path.basename(HERE)]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "sitime_serve",
                  "perfbench", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env, preexec_fn=die_with_parent).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                die("build failed")
    return (os.path.join(build_dir, "sitime", "sitime_serve"),
            os.path.join(build_dir, "perfbench"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        die("sitime sources not found next to the benchmark: "
            + ", ".join(missing))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    server, program = build(build_dir)

    if args.selftest:
        command = [program, "--selftest"]
    else:
        command = [program, "--server", server, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--commit", revision(),
                   "--spans-dir", build_dir]
    return subprocess.run(command, cwd=ROOT,
                          preexec_fn=die_with_parent).returncode


if __name__ == "__main__":
    sys.exit(main())
