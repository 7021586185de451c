#!/usr/bin/env python3
"""Build the shipped server and `perfbench` from source, then run a workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload tenants-point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke        # all three workloads, tiny, ~1 s each
    python3 perfbench/run.py --selfcheck    # the benchmark's checks on itself

Builds `ifs-serve` (the repository's workspace) and `perfbench` (the package
beside this script) in release mode into `$CARGO_TARGET_DIR`, or `.bench_build`
when that is unset, then runs `perfbench` with the given arguments. The last
line of standard output is the run's JSON result; build output goes to standard
error. Exits nonzero, without a result line, if either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checkout's git commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "ifs-serve", "--bin", "ifs-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    exe = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "ifs-serve")
    argv = [exe, *sys.argv[1:], "--server", server,
            "--out", os.path.join(HERE, "results"),
            "--work", os.path.join(HERE, ".work"),
            "--commit", commit()]
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
