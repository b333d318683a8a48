#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold-pipeline --seed 1 --seconds 12 --trace 0

The Go build keeps its cache, temporary files and the binary under
.bench_build/ in the repository, and never fetches anything: the
benchmark module depends only on the repository's own module. All
arguments go to the benchmark binary (see perfbench/main.go); its
last line of output is the result object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    for d in ("gocache", "gotmp", "gopath", "home"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        TMPDIR=os.path.join(BUILD, "gotmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    env = go_env()
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
