#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py calibrate --out perfbench/calibration.json

The harness is its own Cargo package (perfbench/Cargo.toml) that depends on
the simulator crates by path, so it builds whatever version of the simulator
sits in the checkout. Build output goes to stderr and to $CARGO_TARGET_DIR
(default: .bench_build), so the harness's own report and its closing JSON
line are the only things on stdout. The exit code is the harness's: 0 when
every output check passed, 1 when one failed, 2 on a usage or build error.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
