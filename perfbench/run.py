#!/usr/bin/env python3
"""Build sa-server and the benchmark from source, then run the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload eps_interactive --seed 1 --seconds 30 --trace 0

Every argument is passed on to the benchmark binary (see perfbench/README.md).
Build output goes to standard error; the benchmark's last line of standard
output is its JSON result. Builds land in $CARGO_TARGET_DIR, which defaults
to .bench_build.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "sa-server"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    server = os.path.join(release, "sa-server")
    work = os.path.join(target, "perfbench")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    os.execv(bench, [bench, *sys.argv[1:], "--server-bin", server, "--work-dir", work])


if __name__ == "__main__":
    main()
