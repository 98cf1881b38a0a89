#!/usr/bin/env python3
"""End-to-end benchmark of `ftpm mine`.

Run from the repository root:

    python3 perfbench/run.py --workload long_exchange_topk_t2 --seed 0 --seconds 50 --trace 0

Builds the release `ftpm` binary and the benchmark harness (under
$CARGO_TARGET_DIR, default `.bench_build`), then runs the harness, which
generates the seeded input, measures and checks, and prints the result
object as the last line of standard output. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")


def build(target_dir):
    """Builds the CLI from the repository workspace and the harness from its own."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ftpm", "--bin", "ftpm"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
    ]
    for cmd in steps:
        # Cargo's progress goes to stderr; stdout is reserved for results.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def probe(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("perfbench: run from the repository root (no Cargo workspace here)")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir)
    harness = os.path.join(target_dir, "release", "perfbench")
    cmd = [
        harness,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--ftpm", os.path.join(target_dir, "release", "ftpm"),
        "--work", ".bench_work",
        "--rustc", probe(["rustc", "--version"]),
        "--git-sha", probe(["git", "rev-parse", "HEAD"]),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
