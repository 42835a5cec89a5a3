#!/usr/bin/env python3
"""Builds the release `mintri` binary and the perfbench harness from
source, then runs one benchmark workload.

    python3 perfbench/run.py --workload gnp_engine|pgm_cli|serve_mix \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout. Build output goes to
$CARGO_TARGET_DIR (default: .bench_build at the checkout root); corpus
files, server stores and trace files go to <target>/perfbench-work.
The harness prints a `meta` line (seed, corpus, machine, sample counts,
failures) and, last, the result line
{"correct", "attempted", "failed", "metrics"}. The exit code is the
harness's: nonzero when a build fails or an output check fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("gnp_engine", "pgm_cli", "serve_mix")
# Source trees whose contents identify what was measured when the
# checkout is not a git repository.
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench")
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}
# The harness stops itself after --seconds plus set-up; this is only a
# backstop against a hang, below the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(env, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"build failed: {' '.join(cmd)}")
        sys.exit(proc.returncode or 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for manifest in ("Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, manifest)):
            log(f"{manifest} not found: run from a full checkout")
            sys.exit(2)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build(env, "Cargo.toml", ["--bin", "mintri"])
    build(env, "perfbench/Cargo.toml", [])

    info = {
        # Only this checkout's own repository, never an enclosing one.
        "commit": command_output(["git", "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(ROOT, ".git"))
        else None,
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
    }
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--mintri", os.path.join(target, "release", "mintri"),
        "--work-dir", os.path.join(target, "perfbench-work"),
        "--build-info", json.dumps(info, separators=(",", ":")),
    ]
    # Its own process group, so a backstop kill, or this script being
    # stopped, also stops any server or CLI process the harness started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
        sys.exit(124)
    sys.exit(code)


if __name__ == "__main__":
    main()
