#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The Go build cache, the binary, WAL
files and span files all stay under .bench_build/ in that checkout. The
last line of standard output is the JSON result; build output goes to
standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(BUILD, "gocache"),
            "GOPATH": os.path.join(BUILD, "gopath"),
            "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
            "TMPDIR": os.path.join(BUILD, "tmp"),
            "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
            "GOENV": "off",
            "GOWORK": "off",
            "GOTOOLCHAIN": "local",
            "GOPROXY": "off",
            "GOFLAGS": "-mod=readonly",
            "CGO_ENABLED": "0",
        }
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    args = [binary, "--workdir", os.path.join(BUILD, "run")] + sys.argv[1:]
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
