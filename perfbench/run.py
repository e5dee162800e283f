#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload hotspot-putv --seed 1 --seconds 30 --trace 0

Every argument is passed on to the benchmark binary (see main.go). The Go
build cache, the binary and traced-run outputs all live under .bench_build
in the repository root, so the benchmark writes nothing outside it. The
last line of standard output is the JSON result; the exit code is non-zero
if the build fails or any correctness check fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The benchmark's own budget keeps a run far below this; it only guards
# against a wedged simulation.
TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def revision():
    """The git commit under test, or a digest of the Go sources when the
    tree is not a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=HERE, env=env, timeout=TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [binary, "-out", os.path.join(BUILD, "perfbench"), "-commit", revision()] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
