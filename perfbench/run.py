#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The benchmark package (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). `--trace 0` runs the end-to-end
binary, `--trace 1` the traced one, which counts allocations. The last line
of standard output is the result object; the exit code is the binary's,
non-zero when the build fails or an output check fails.
"""

import os
import subprocess
import sys


def main() -> int:
    args = sys.argv[1:]
    trace = "0"
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            trace = value
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = "perfbench-traced" if trace not in ("0", "") else "perfbench"
    return subprocess.run([os.path.join(target, "release", binary), *args], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
