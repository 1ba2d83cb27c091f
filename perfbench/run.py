#!/usr/bin/env python3
"""Builds the oracle and the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload audit_cold --seed 1 --seconds 30 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). The `spo`
binary is built from the repository's own manifest because the
`serve_warm` workload drives a real `spo serve` daemon. Build output goes
to stderr; the benchmark binary prints its one-line JSON result last on
stdout. Any build or run failure exits non-zero without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    # Without the repository around the benchmark there is nothing to
    # build; fail before cargo goes looking in parent directories.
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: run from the root of a checkout (no Cargo.toml here)",
              file=sys.stderr)
        return 2
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "spo"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(root, target, "release")
    argv = [
        os.path.join(release, "perfbench"),
        "--spo", os.path.join(release, "spo"),
        # Relative, so the daemon's Unix socket path stays short.
        "--work-dir", os.path.relpath(os.path.join(target, "perfbench-work")),
        *sys.argv[1:],
    ]
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
