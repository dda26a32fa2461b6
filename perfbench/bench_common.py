"""Shared pieces of the benchmark: statistics, the layer ledger, the
environment stamp, compiled-program statistics and process memory."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

#: Root of the checkout the benchmark runs in (``perfbench/`` sits below it).
ROOT = Path(__file__).resolve().parents[1]
#: Per-run scratch state (program files, session directories, server logs).
#: It lives inside the checkout, one directory per benchmark process, and is
#: deleted when the run ends.
WORK = ROOT / "perfbench" / ".work" / str(os.getpid())

#: Compiler passes whose time and rewrite counts are reported by name
#: (the union over the three workloads' compile configurations).
PASS_NAMES = (
    "remove-copy",
    "expand-sum",
    "hoist-rotations",
    "constant-folding",
    "cse",
    "dce",
    "bsgs-rotations",
    "lane-lowering",
    "waterline-rescale",
    "eager-modswitch",
    "match-scale",
    "relinearize",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result (no result is printed)."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def p95(values: Sequence[float]) -> float:
    return float(statistics.quantiles(values, n=20, method="inclusive")[18])


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count and quartiles, for the human-readable report."""
    ordered = sorted(values)
    quartiles = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {
        "n": len(ordered),
        "min": ordered[0],
        "p25": quartiles[0],
        "p50": quartiles[1],
        "p75": quartiles[2],
        "max": ordered[-1],
    }


def precision_bits(decrypted, reference) -> float:
    """-log2(max |decrypted - reference| / max |reference|), capped at 53 bits."""
    import numpy as np

    reference = np.asarray(reference, dtype=np.float64)
    error = float(np.max(np.abs(np.asarray(decrypted, dtype=np.float64) - reference)))
    scale = float(np.max(np.abs(reference)))
    if error == 0.0:
        return 53.0
    return float(min(-np.log2(error / scale), 53.0))


class Ledger:
    """Self-time accounting for nested timed calls on one thread.

    ``wrap(key, function)`` times each call of ``function``; the time of any timed call nested inside
    it is charged to the inner key only, so the per-key totals are self
    times and add up without double counting.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._child_stack: List[float] = []

    def wrap(self, key: str, function):
        ledger = self

        def timed(*args, **kwargs):
            ledger._child_stack.append(0.0)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = ledger._child_stack.pop()
                ledger.seconds[key] = ledger.seconds.get(key, 0.0) + elapsed - children
                ledger.counts[key] = ledger.counts.get(key, 0) + 1
                if ledger._child_stack:
                    ledger._child_stack[-1] += elapsed

        return timed


class patched:
    """Context manager replacing class attributes with ledger-timed wrappers."""

    def __init__(self, ledger: Ledger, targets: Iterable[tuple]) -> None:
        self.ledger = ledger
        self.targets = list(targets)  # (class, attribute, ledger key)
        self._saved: List[tuple] = []

    def __enter__(self) -> Ledger:
        for owner, attribute, key in self.targets:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self.ledger.wrap(key, original))
        return self.ledger

    def __exit__(self, *_exc) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


def program_stats(compilation) -> Dict[str, int]:
    """Instruction, key-switch and modulus-bit counts of one compiled program."""
    from repro.core.types import Op

    instructions = compilation.program.instructions()
    keyswitch = sum(
        1
        for term in instructions
        if term.op in (Op.ROTATE_LEFT, Op.ROTATE_RIGHT, Op.RELINEARIZE)
    )
    return {
        "program_ops": len(instructions),
        "keyswitch_ops": keyswitch,
        "modulus_bits": int(sum(compilation.parameters.coeff_modulus_bits)),
    }


def pass_breakdown(report_lists, wall_seconds: float, pass_names) -> Dict[str, float]:
    """Per-pass time and rewrite counts of compiles, named by module.

    ``report_lists`` holds each compile's ``CompilationResult.pass_reports``;
    ``wall_seconds`` is the time of those compiles together.

    ``core.analysis_s`` is the compile time the passes do not account for:
    validation, level and parameter analysis, rotation-key selection.
    """
    metrics: Dict[str, float] = {}
    for name in pass_names:
        metrics[f"core.rewrite.{name}_s"] = 0.0
        metrics[f"core.rewrite.{name}.rewrites"] = 0
    pass_total = 0.0
    for reports in report_lists:
        for report in reports:
            seconds_key = f"core.rewrite.{report.name}_s"
            if seconds_key in metrics:
                metrics[seconds_key] += report.seconds
                metrics[f"core.rewrite.{report.name}.rewrites"] += report.rewrites
            pass_total += report.seconds
    metrics["core.compiler.compile_s"] = wall_seconds
    metrics["core.analysis_s"] = max(wall_seconds - pass_total, 0.0)
    return metrics


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (VmHWM) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError as error:
            raise BenchError(f"cannot read the memory of process {pid}: {error}")
    return total_kb / 1024.0


def process_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def child_pids(pid: int) -> List[int]:
    """Every descendant of ``pid`` (via /proc/<pid>/task/*/children)."""
    found: List[int] = []
    pending = [pid]
    while pending:
        parent = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as handle:
                    children = [int(value) for value in handle.read().split()]
            except OSError:
                continue
            for child in children:
                if child not in found:
                    found.append(child)
                    pending.append(child)
    return found


def environment_stamp(seed: int, workload: str) -> Dict[str, object]:
    """What a result depends on besides the code: host, toolchain, settings."""
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or "unknown (git failed)"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git unavailable)"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "git_commit": commit,
    }
