#!/usr/bin/env python3
"""Builds the pipeline benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <cegis-deep|one-shot|vc-frontier> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then its executable runs the
workload in a separate process; that process's standard output, whose last
line is the JSON result, passes through unchanged. Files the run writes (the
traced run's Chrome trace, the counter ledger) go to
$CARGO_TARGET_DIR/perfbench. A failed build exits non-zero and prints no
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
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
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    executable = os.path.join(target_dir, "release", "perfbench")
    out_dir = os.path.join(target_dir, "perfbench")
    run = subprocess.run([executable, *sys.argv[1:], "--out-dir", out_dir], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
