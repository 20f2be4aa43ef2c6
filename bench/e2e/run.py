#!/usr/bin/env python3
"""Build the e2e ledger from source and run one workload.

Run from the repository root:

    python3 bench/e2e/run.py --workload store-read --seed 46 --seconds 10 --trace 0

The arguments go to bench/e2e/e2e.exe unchanged (see README.md next to
this file).  The build output goes to stderr, so standard output is the
ledger's alone and its last line is the result.  Exits non-zero without
a result when the library sources are missing or do not build twice in
a row.
"""

import os
import subprocess
import sys

EXE = "./bench/e2e/e2e.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("error: run from the repository root: dune-project or lib/ is missing",
              file=sys.stderr)
        return 2
    # No shared dune cache: the build reads and writes only this tree.
    env = dict(os.environ, DUNE_CACHE="disabled")
    # A second attempt, on one job: a compiler killed mid-build (memory
    # pressure on a shared host) fails a build that then succeeds, while
    # a real compile error fails both times.
    for jobs in ("2", "1"):
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "-j", jobs, EXE],
            env=env, stdout=sys.stderr)
        if build.returncode == 0:
            break
        print(f"error: dune build -j {jobs} exited with {build.returncode}",
              file=sys.stderr)
    else:
        return build.returncode
    exe = os.path.join("_build", "default", "bench", "e2e", "e2e.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
