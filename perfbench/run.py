#!/usr/bin/env python3
"""Build and run the rar benchmark from the root of a rar checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/rarbench.exe with dune (the first run in a fresh
checkout compiles the whole library), then runs it with the same
arguments. The last line of stdout is the result object. Exits
non-zero without a result when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "rarbench.exe")
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the program sources, for rows from non-git checkouts."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("rarbench: run from the root of a rar checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/rarbench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("rarbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["RARBENCH_GIT_REV"] = git_rev()
    env["RARBENCH_SOURCE_DIGEST"] = source_digest()
    sys.stdout.flush()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("rarbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
