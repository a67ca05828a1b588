#!/usr/bin/env python3
"""Build rcw_serve and the servebench driver from source, then run the driver.

Run from the repository root:

    python3 servebench/run.py --workload warm_hits --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --quick          # tiny self-check of every metric

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). The driver's
last stdout line is the JSON result; progress and tables go to stderr.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    here = os.path.dirname(os.path.abspath(__file__))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "rcw-server", "--bin", "rcw_serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("servebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    driver = [os.path.join(release, "servebench"),
              "--server", os.path.join(release, "rcw_serve")] + sys.argv[1:]
    return subprocess.run(driver, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
