#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload des-mf --seed 1 --seconds 20 --trace 0

The program is built into .bench_build/ at the repository root, with the Go
build cache, module cache and temporary files kept there too. Arguments are
passed through unchanged; the last line of standard output is the result
JSON, and the exit code is the program's (nonzero when a check fails or the
build fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off", TMPDIR=env["GOTMPDIR"])
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
