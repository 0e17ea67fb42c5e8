#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <paper|batch|serve|live|all> \
        --seed N --seconds S --trace <0|1>

Builds the `perfbench` load generator and the `tspg-server` binary it
drives in release mode (into $CARGO_TARGET_DIR, else perfbench/target),
then runs the load generator with the given arguments and exits with its
exit code. Build output goes to standard error; the load generator's
standard output, whose last line is the JSON result, passes through.
`--help` prints the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
