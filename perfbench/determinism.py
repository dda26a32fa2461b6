"""Determinism self-test: two runs with one seed must count exactly the same.

Usage (from the root of a checkout):

    python3 perfbench/determinism.py [--seed N] [--seconds S] [workload ...]

For each workload it makes two traced runs and two untraced runs of
``perfbench/run.py`` with the same seed, under different ``PYTHONHASHSEED``
values, and requires the counted metrics to be equal: key-switch, encode,
NTT and backend op counts, compiler rewrite counts, program size and
modulus bits, session bytes and precision.  ``wire.bytes_per_request`` may
differ by a few bytes: each reply's JSON envelope carries the server's
measured queue and execute seconds, whose printed length varies.
Exits non-zero and names every metric that differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Exact per-layer counts (compared in traced runs).
EXACT_PREFIXES = ("backend.", "ckks.", "core.rewrite.")
EXACT_SUFFIXES = (".count", ".transforms", ".rewrites")
EXACT_NAMES = (
    "wire.session_bytes",
    "api.client.precision_bits",
    "core.compiler.keyswitch_ops",
    "program_ops",
    "modulus_bits",
)
#: Reply-envelope jitter allowed on the request bytes (see module docstring).
BYTES_SLACK = 16


def _exact(name: str) -> bool:
    return name in EXACT_NAMES or (
        name.startswith(EXACT_PREFIXES) and name.endswith(EXACT_SUFFIXES)
    )


def _run(workload: str, seed: int, seconds: float, trace: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} run failed:\n{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} run reported incorrect outputs")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=["sobel_lanes", "regression_clients", "compile_chet"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args()
    mismatches = []
    for workload in args.workloads:
        for trace in (1, 0):
            first = _run(workload, args.seed, args.seconds, trace, "1")
            second = _run(workload, args.seed, args.seconds, trace, "2")
            checked = 0
            for name, value in first.items():
                if name == "wire.bytes_per_request":
                    same = abs(value - second[name]) <= BYTES_SLACK
                elif _exact(name):
                    same = value == second[name]
                else:
                    continue
                checked += 1
                if not same:
                    mismatches.append(f"{workload}: {name} {value!r} != {second[name]!r}")
            print(f"{workload} trace={trace}: {checked} counted metrics compared")
    for line in mismatches:
        print("MISMATCH", line)
    print("determinism:", "FAILED" if mismatches else "ok")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
