#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see e2ebench/README.md).

Run from the repository root:

    python3 e2ebench/run.py --workload read-warm --seed 1 --seconds 10 --trace 0

The Go program is built from the working tree into .bench_build/, with
the Go build cache, module cache and temporary files kept there too, so
a run reads and writes nothing outside the checkout. The last line of
standard output is the JSON result; the exit status is non-zero when
the build fails or any response was wrong.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("TMPDIR", "tmp"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    # Everything the build needs is in the checkout and the toolchain.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOFLAGS="", GOWORK="off")
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "bin", "e2ebench")
    try:
        build = subprocess.run(
            ["go", "build", "-trimpath", "-o", binary, "."],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + ["--out", os.path.join(BUILD, "e2ebench"), "--root", ROOT]
    proc = subprocess.Popen(args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2ebench: run exceeded its time limit", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
