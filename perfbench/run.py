#!/usr/bin/env python3
"""Builds and runs the hcache serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload {chat-spill,rag} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark package (perfbench/CMakeLists.txt)
compiles the hcache library from ../src with the benchmark into $CARGO_TARGET_DIR (default
.bench_build); stores live under .perfbench_run/<pid>/ and traces go to perfbench_out/.
The last line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the sources are missing or the build fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
PKG = os.path.join(ROOT, "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr, so stdout ends with the result."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "functional_engine.h")):
        fail("hcache sources (src/) not found; run from the root of a checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", PKG, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs])
    return build_dir


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """SHA-1 over the library sources, identifying the measured code without git."""
    h = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    build_dir = build()
    if argv == ["--selftest"]:
        proc = subprocess.run([os.path.join(build_dir, "perfbench_test")], cwd=ROOT)
        return proc.returncode
    cmd = [os.path.join(build_dir, "hcache_perfbench")] + argv + [
        "--commit", commit(), "--source-digest", source_digest()]
    proc = subprocess.run(cmd, cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
