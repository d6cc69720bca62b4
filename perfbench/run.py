#!/usr/bin/env python3
"""Build and run the PolyFuse benchmark (perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the libraries and the pfbench
driver in .bench_build/perfbench (a few minutes); later runs only check
that the build is current. Build output goes to standard error, so the
last line of standard output is the driver's JSON result. The exit code
is the driver's: nonzero when an operation failed, an output was wrong,
or the build failed.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "pfbench")


def build():
    """Configure once, then bring the build up to date."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no PolyFuse sources next to perfbench/\n")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def source_rev():
    """The git revision when there is one, else a digest of the sources
    the benchmark builds, so a result names the code it measured."""
    try:
        # Only a repository rooted here names these sources.
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel",
                              "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        lines = rev.stdout.split()
        if (rev.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    if not build():
        return 2
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
    cmd = [BINARY] + sys.argv[1:] + ["--work-dir", WORK,
                                     "--source-rev", source_rev()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
