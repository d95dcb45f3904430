#!/usr/bin/env python3
"""Builds the schemacast CLI and the `benchmark` binary, then runs `benchmark`.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [benchmark flags]
    python3 perfbench/run.py compare A.jsonl B.jsonl

Both binaries are built in release mode into $CARGO_TARGET_DIR (default
.bench_build), so `benchmark` finds the CLI next to itself. Build output goes
to standard error; the standard output of `benchmark`, whose last line is the
result JSON, passes through unchanged. Its generated inputs, span
traces and scratch files live under <target dir>/perfbench.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        print(f"run.py: no schemacast workspace at {root}", file=sys.stderr)
        return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    builds = [
        ["cargo", "build", "--release", "--quiet", "-p", "schemacast", "--bin", "schemacast"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return 2
    benchmark = os.path.join(target, "release", "benchmark")
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args += ["--work", os.path.join(target, "perfbench"), "--repo", root]
    return subprocess.run([benchmark, *args], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
