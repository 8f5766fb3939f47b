#!/usr/bin/env python3
"""Builds the pipeline benchmark and runs one workload on one CPU.

Run from the repository root:

    python3 pipeline-bench/run.py --workload sim-n1000 --seed 1 --seconds 38 --trace 0

The package is built offline in release mode into $CARGO_TARGET_DIR
(default: .bench_build). Every thread of the benchmark is then pinned to
one CPU, the highest this process may use, so the loopback client and
server always share it and the sharded engine runs one worker thread.
With --trace 1 the traced rounds' spans go to
<target dir>/pipeline-bench/<workload>-seed<seed>.trace.json unless
--trace-out names another file. All other arguments are passed through.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(argv, flag):
    """The value following `flag` in argv, or None."""
    if flag in argv[:-1]:
        return argv[argv.index(flag) + 1]
    return None


def main():
    argv = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "dophy-pipeline-bench")
    if arg(argv, "--trace") == "1" and arg(argv, "--trace-out") is None:
        name = "%s-seed%s.trace.json" % (arg(argv, "--workload"), arg(argv, "--seed"))
        argv += ["--trace-out", os.path.join(target, "pipeline-bench", name)]
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print("run.py: pinned to CPU %d of %d" % (cpu, os.cpu_count()), file=sys.stderr)
    sys.stdout.flush()
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    sys.exit(main())
