#!/usr/bin/env python3
"""Build the mkss benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig6|engine-soak|serve-mix \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--out-dir DIR]

The benchmark binary is built in release mode (into $CARGO_TARGET_DIR,
default perfbench/target) and run with the same arguments. Its standard
output passes through unchanged; the last line is the JSON result. The
source revision is handed to the binary so every result records it.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.lock", "crates", "vendor", os.path.join("perfbench", "src")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = source_revision()
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
