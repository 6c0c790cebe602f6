#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fig4a-matrix --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench program (see main.go). The build
writes only under the build directory, .bench_build at the checkout root
unless CARGO_TARGET_DIR names another: the binary, the Go build cache and
Go's temporary and configuration files all live there.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        GOPATH=os.path.join(build_dir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for key in ("GOCACHE", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
