#!/usr/bin/env python3
"""Build the benchmark and the daemon, then run one workload.

    python3 sccbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); generated graphs, sockets, traces and the work
counters of earlier runs live in .bench_build/sccbench. The last line
of standard output is the JSON result of sccbench; build output goes to
standard error. Exits non-zero without a result if the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".bench_build", "sccbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 1
    release = os.path.join(target, "release")
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(release, "sccbench"), *sys.argv[1:],
           "--daemon", os.path.join(release, "swscc-serve"), "--work", WORK]
    # The benchmark starts and stops its daemons itself. It runs in a
    # process group of its own, so that a daemon it could not stop (the
    # benchmark crashed or was killed) is stopped here.
    bench = subprocess.Popen(cmd, env=env, start_new_session=True)
    code = bench.wait()
    try:
        os.killpg(bench.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
