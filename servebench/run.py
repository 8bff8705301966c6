#!/usr/bin/env python3
# Copyright 2026 MixQ-GNN Authors
"""Builds the serving benchmark and runs one workload.

    python3 servebench/run.py --workload wire-cached --seed 1 --seconds 10 --trace 0

Run from the repository root. Steps:
  1. configure + build servebench/ (CMake) into $CARGO_TARGET_DIR/servebench
     (default .bench_build/servebench); build output goes to stderr;
  2. make the inputs once per harness binary: `servebench prepare` trains the
     served model and writes the bundles into <build>/inputs-<binary digest>;
  3. run `servebench run` and pass its stdout through. The last stdout line
     is the JSON result; traced runs (--trace 1) also leave their spans in
     <build>/spans/.
Exits non-zero, without a result line, when the build or a step fails.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[servebench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    src = os.path.join(ROOT, "servebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "servebench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def source_id():
    """git commit when the checkout is a repository, plus a digest of every
    source file the benchmark builds (src/ and servebench/)."""
    h = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ident = "tree:" + h.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True,
                                 timeout=10).stdout.strip()
            ident = f"git:{sha} {ident}"
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def ensure_inputs(binary, build_dir):
    """Inputs depend only on the harness binary, so they are made once per
    binary (training is not part of any measurement)."""
    inputs = os.path.join(build_dir, "inputs-" + file_digest(binary))
    with open(os.path.join(build_dir, "inputs.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(inputs, "summary.txt")):
            tmp = inputs + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            log("preparing inputs (training the served model)")
            subprocess.run([binary, "prepare", tmp], check=True,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=600)
            shutil.rmtree(inputs, ignore_errors=True)
            os.rename(tmp, inputs)
        for name in os.listdir(build_dir):  # inputs of earlier binaries
            stale = os.path.join(build_dir, name)
            if name.startswith("inputs-") and stale != inputs:
                shutil.rmtree(stale, ignore_errors=True)
    return inputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wire-cached", "wire-pruned", "full-scoring"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "servebench")
    try:
        binary = build(build_dir)
        inputs = ensure_inputs(binary, build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        log(f"build or input preparation failed: {err}")
        return 1

    cmd = [binary, "run", "--inputs", inputs, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--source-id", source_id()]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir,
                                        f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        log(f"harness exited with {result.returncode}")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
