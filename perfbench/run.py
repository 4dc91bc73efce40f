#!/usr/bin/env python3
"""Build and run the time-to-robust-weights benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: dtr50, mtr3, tier150 (or ``all`` to run each in turn). The
script builds ``perfbench`` (release, offline) into ``$CARGO_TARGET_DIR``
(default ``.bench_build``) and runs the workload in a process of its
own, so the peak resident memory the binary reports (``peak_rss_mb``)
is that workload's alone. It prints the binary's result rows -- one per
instance, then a batch row that carries provenance and all six
end-to-end metrics with their units -- and, last, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. It
exits 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["dtr50", "mtr3", "tier150"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_commit(root):
    """The checked-out revision, read from ``.git`` without leaving ``root``."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref[:12]
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()[:12]
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def build(bench_dir, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", str(bench_dir / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return target / "release" / "dtr-perfbench"


def run_one(binary, scratch, commit, args, workload):
    """Run one workload in its own process; return (rows, result, ok)."""
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(binary), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch), "--commit", commit,
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out, returncode = done.stdout, done.returncode
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        for line in lines:
            print(line)
        fail(f"{workload}: no result line (exit code {returncode})")
    ok = returncode == 0 and result.get("correct") is True
    return lines[:-1], result, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail(f"{root} holds no dtr workspace to build against")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    binary = build(bench_dir, target)
    commit = source_commit(root)

    all_ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        scratch = target / "perfbench-scratch" / f"{workload}-{args.seed}-{os.getpid()}"
        rows, result, ok = run_one(binary, scratch, commit, args, workload)
        all_ok = all_ok and ok
        metrics = result["metrics"]
        end_to_end = " ".join(
            f"{name}={metrics[name]['value']} {metrics[name]['unit']}"
            for name in ("solve_s", "setup_s", "peak_rss_mb")
            if name in metrics
        )
        for row in rows:
            # The batch row carries provenance and the result-quality
            # metrics; add the end-to-end timings and memory to it.
            print(f"{row} {end_to_end}" if row.startswith("batch: ") and end_to_end else row)
        print(json.dumps(result))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
