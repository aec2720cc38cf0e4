#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 qsbench/run.py --workload commit --seed 1 --seconds 10 --trace 0

It builds qsbench (a Go module of its own that uses the engine's packages
from the checkout) into .bench_build/, runs it with the given arguments and
passes its output through. The last line of standard output is the result
object. Build cache, temporary files, volumes, result files and traces all
stay under .bench_build/ in the checkout.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "qsbench", "qsbench")
# Every run must end within 180 s; leave room to clean up after a kill.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "TMPDIR": os.path.join(BUILD, "tmp"),
        # The go command keeps telemetry and its env file under the user
        # config directory; keep that inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTELEMETRY": "off",
    })
    return env


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_commit():
    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return git("rev-parse", "HEAD") or "unknown"


def main():
    for d in ("gocache", "tmp", "gomodcache", "config", "qsbench"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BIN, "."],
                           cwd=os.path.join(ROOT, "qsbench"), env=env)
    if build.returncode != 0:
        print("run.py: building qsbench failed", file=sys.stderr)
        return 1
    work = os.path.join(BUILD, "run", str(os.getpid()))
    cmd = [BIN] + sys.argv[1:] + [
        "--dir", work,
        "--results", os.path.join(BUILD, "results"),
        "--commit", git_commit(),
    ]
    # A session of its own, so a kill reaches the set-up processes it starts.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: qsbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
