#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload capture|probe|service --seed N \
        --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark program is built from
the checkout's own sources (perfbench/CMakeLists.txt compiles ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; work
files go to .bench_out. Its stdout is passed through: its last line is
the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg, log=None):
    sys.stderr.write("perfbench: %s\n" % msg)
    if log and os.path.exists(log):
        with open(log, errors="replace") as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log = os.path.join(build_root, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                fail("build failed: " + " ".join(cmd), log)
    return os.path.join(build_dir, "perfbench")


def source_identity():
    """git commit when the checkout is a repository, else a digest of
    the sources the benchmark is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["capture", "probe", "service"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sources at %s/src: run from the root of a full checkout" % ROOT)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_root)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    if a.self_test:
        r = subprocess.run([exe, "--self-test", "--out-dir", out_dir],
                           timeout=10 * RUN_TIMEOUT_S)
        sys.exit(r.returncode)

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", out_dir, "--commit", source_identity(),
           "--expected", os.path.join(BENCH_DIR, "expected_digests.txt")]
    log = os.path.join(out_dir, "%s-%d-trace%d.stderr.log" % (a.workload, a.seed, a.trace))
    with open(log, "w") as err:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                               timeout=RUN_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, log)
    if r.returncode != 0:
        fail("benchmark exited with %d" % r.returncode, log)
    lines = r.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        fail("benchmark printed no result", log)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
