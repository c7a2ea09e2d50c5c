#!/usr/bin/env python3
"""Build the gfcbench harness from source and run it.

Run from the repository root:

    python3 gfcbench/run.py --workload census --seed 1 --seconds 20 --trace 0

The harness is a Go module of its own (gfcbench/go.mod) that compiles
against the repository's packages through a local replace directive. The
Go build cache and the binary live in .bench_build/ under the root, so a
run reads and writes nothing outside the checkout. A checkout without the
repository's sources fails the build and exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOPROXY="off",
    )
    binary = os.path.join(build, "gfcbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("gfcbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
