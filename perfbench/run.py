"""End-to-end benchmark of the EVA reproduction on the real CKKS backend.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (defined in ``bench_serving.py`` and ``bench_compile.py``; the
reason for each is in ``perfbench/README.md`` and ``BENCHMARK.json``):

* ``sobel_lanes``        - encrypted Sobel, four 16x16 images per request
* ``regression_clients`` - encrypted linear regression, 16 clients
* ``compile_chet``       - compiling the five CHET networks

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that reports the per-layer metrics.  Every metric is
printed with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any error exits non-zero
without printing that line.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, here and in the server processes (which inherit
# the environment): one BLAS thread per process keeps two shards and the
# client from oversubscribing a small host.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import shutil
import signal
import sys

from bench_common import ROOT, WORK, BenchError, environment_stamp

#: Per-layer metric prefixes a workload does not exercise; they read 0 there.
NOT_EXERCISED = {
    "sobel_lanes": ("nn.chet.",),
    "regression_clients": ("nn.chet.",),
    "compile_chet": ("api.client.", "serving.", "wire.", "backend.", "ckks."),
}


def _load_manifest() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {path.name}: {error}")


def _assemble(manifest: dict, workload: str, trace: bool, measured: dict) -> dict:
    """Every declared metric of the run's kind, with its unit; nothing else."""
    declared = manifest["per_layer" if trace else "end_to_end"]
    names = {entry["name"] for entry in declared}
    extra = sorted(set(measured) - names)
    if extra:
        raise BenchError(f"measured metrics missing from BENCHMARK.json: {extra}")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in measured:
            value = measured[name]
        elif trace and name.startswith(NOT_EXERCISED[workload]):
            value = 0
        else:
            raise BenchError(f"workload {workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def _print_report(workload: str, metrics: dict, report: dict) -> None:
    width = max(len(name) for name in metrics)
    print(f"== {workload} ==")
    for name, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown} {entry['unit']}")
    for key, value in report.items():
        print(f"  [{key}] {json.dumps(value, default=str)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOT_EXERCISED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so servers started so far are
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no repro package under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    manifest = _load_manifest()
    trace = bool(args.trace)

    WORK.mkdir(parents=True)
    try:
        if args.workload == "compile_chet":
            import bench_compile

            result = bench_compile.run(args.seed, args.seconds, trace)
            attempted, failed = result["attempted"], result["failed"]
        else:
            import bench_serving

            result = bench_serving.run(args.workload, args.seed, args.seconds, trace)
            outcomes = result["outcomes"]
            attempted = len(outcomes)
            failed = sum(1 for outcome in outcomes if not outcome.ok)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = _assemble(manifest, args.workload, trace, result["metrics"])
    _print_report(args.workload, metrics, result["report"])
    print(json.dumps({"env": environment_stamp(args.seed, args.workload)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        sys.exit(2)
