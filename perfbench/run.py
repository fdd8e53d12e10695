#!/usr/bin/env python3
"""Build and run the availsim benchmark.

    python3 perfbench/run.py --workload <paper_campaign|fleet_dr|serve_mix> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the benchmark package in this
directory (release profile; CARGO_TARGET_DIR is honoured), prints one
JSON line with the machine fingerprint, then the benchmark's output. The
last line on stdout is the result record:
{"correct", "attempted", "failed", "metrics"}.

A number is comparable only with numbers taken under the same
fingerprint: CPU model, cores available, rustc version, and the source
revision (git sha when the tree is a git checkout, and always a digest
of the sources the build reads).

The benchmark's own tests: cargo test --release --manifest-path perfbench/Cargo.toml
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def source_digest():
    """SHA-256 over the path and bytes of every source file the build reads."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS and not d.startswith("."))
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def output_of(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    toplevel = output_of(["git", "rev-parse", "--show-toplevel"])
    in_git = toplevel is not None and os.path.realpath(toplevel) == os.path.realpath(ROOT)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": output_of(["rustc", "-V"]) or "unknown",
        "git_sha": (output_of(["git", "rev-parse", "HEAD"]) if in_git else None) or "none",
        "source_sha256": source_digest(),
    }


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "availsim-perfbench")
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:],
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result record", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"fingerprint": fingerprint()}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
