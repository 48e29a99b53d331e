#!/usr/bin/env python3
"""Build the perfbench harness from this checkout, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload tera-threads --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py steady --workload router-mix --runs 10

The binary, the Go build cache and the compiler's scratch files live under
.bench_build/ in the checkout, so building and running write nothing
outside it. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env["GOCACHE"] = os.path.join(out, "gocache")
    env["GOTMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOWORK"] = "off"
    env["GOFLAGS"] = "-mod=readonly"
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
