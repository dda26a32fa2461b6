"""The compile workload: the paper's five CHET networks through the EVA compiler.

Nothing is encrypted.  A request (a round) compiles all five networks in a
fixed order, each with
``DnnCompiler(scales, CompilerOptions(policy="eva")).compile``.  Every compiled program is checked
against the network's own NumPy forward pass by running it in the plaintext
reference interpreter (``execute_reference``), which shares no code with the
compiler's passes.  The networks come from ``build_model`` alone, so their
weights do not depend on the interpreter's hash seed.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from bench_common import (
    PASS_NAMES,
    Ledger,
    median,
    pass_breakdown,
    patched,
    program_stats,
    summary,
)

#: The networks of Tables 3-7 and their programmer-chosen scales (Table 4's
#: logP columns: cipher, vector, scalar, output).
NETWORKS: Tuple[Tuple[str, Tuple[int, int, int, int]], ...] = (
    ("LeNet-5-small", (25, 15, 10, 30)),
    ("LeNet-5-medium", (25, 15, 10, 30)),
    ("LeNet-5-large", (25, 20, 10, 25)),
    ("Industrial", (30, 15, 10, 30)),
    ("SqueezeNet-CIFAR", (25, 15, 10, 30)),
)

WHY = (
    "the only workload exercising nn.chet, core.rewrite and core.analysis; "
    "serving workloads compile once per server"
)

#: Set-up (building the five networks) takes about 1.5 ms, so it is timed
#: in batches spread over the run (one at the start, one after each round)
#: and the median of all builds is reported.
SETUP_BATCH = 40

#: Compiled logits must match the network's forward pass to this relative
#: error (float64 arithmetic; the passes only reorder it).
RELATIVE_TOLERANCE = 1e-6


def _build_networks():
    from repro.nn import build_model

    return [build_model(name) for name, _ in NETWORKS]


def _compilers():
    from repro.core.compiler import CompilerOptions
    from repro.nn import DnnCompiler, ScaleConfig

    return [
        DnnCompiler(
            ScaleConfig(cipher=c, vector=v, scalar=s, output=o),
            CompilerOptions(policy="eva"),
        )
        for _, (c, v, s, o) in NETWORKS
    ]


def _check(compiled, network, seed: int, index: int) -> Tuple[bool, str]:
    """Compare the compiled program's plaintext semantics with the network."""
    from repro.core.executor import execute_reference

    rng = np.random.default_rng([seed, index])
    image = rng.uniform(0.0, 1.0, network.input_shape)
    outputs = execute_reference(compiled.compilation.program, compiled.image_to_inputs(image))
    logits = compiled.logits_from_outputs(outputs)
    expected = np.asarray(network.forward(image), dtype=np.float64).reshape(-1)
    if logits.shape != expected.shape:
        return False, f"{network.name}: {logits.shape} logits, expected {expected.shape}"
    error = float(np.max(np.abs(logits - expected)))
    limit = RELATIVE_TOLERANCE * max(float(np.max(np.abs(expected))), 1e-12)
    if error > limit:
        return False, f"{network.name}: logits off by {error:.3g}"
    return True, ""


class _Rounds:
    """Compile rounds with per-compile outcomes, output checks and set-up timing."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setups: List[float] = []
        self._time_setups()
        self.networks = _build_networks()
        self.compilers = _compilers()
        self.attempted = 0
        self.failures: List[str] = []
        self.stats: Dict[str, int] = {}

    def _time_setups(self) -> None:
        for _ in range(SETUP_BATCH):
            started = time.perf_counter()
            _build_networks()
            self.setups.append(time.perf_counter() - started)

    def round(self, targets=()) -> Tuple[List[float], Optional[Dict[str, float]]]:
        """Compile every network once; returns the per-network compile times
        and, when ``targets`` are wrapped, the round's layer breakdown."""
        times: List[float] = []
        reports: List[Any] = []
        stats = {"program_ops": 0, "keyswitch_ops": 0, "modulus_bits": 0}
        with patched(Ledger(), targets) as ledger:
            for index, (compiler, network) in enumerate(zip(self.compilers, self.networks)):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    compiled = compiler.compile(network)
                except Exception as error:  # a failed compile is counted, not fatal
                    self.failures.append(f"{network.name}: {type(error).__name__}: {error}")
                    continue
                times.append(time.perf_counter() - t0)
                # The checks run outside the timed compile.
                reports.append(compiled.compilation.pass_reports)
                for key, value in program_stats(compiled.compilation).items():
                    stats[key] += value
                ok, message = _check(compiled, network, self.seed, index)
                if not ok:
                    self.failures.append(message)
        if self.stats and stats != self.stats:
            self.failures.append(f"compiled programs changed between rounds: {stats} vs {self.stats}")
        self.stats = self.stats or stats
        self._time_setups()
        if not targets:
            return times, None
        breakdown = pass_breakdown(reports, ledger.seconds.get("compile", 0.0), PASS_NAMES)
        breakdown["nn.chet.build_program_s"] = ledger.seconds.get("build_program", 0.0)
        return times, breakdown

    def until(self, seconds: float, targets=()) -> List[Tuple[List[float], Optional[Dict[str, float]]]]:
        """Rounds until ``seconds`` have passed (at least one)."""
        rounds = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            rounds.append(self.round(targets))
        return rounds


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    rounds = _Rounds(seed)
    # The cold round (lazy imports and caches) is not part of the window:
    # compile times swing with host speed over tens of seconds, so the
    # window holds as many steady rounds as it can.
    first_times, _ = rounds.round()
    report: Dict[str, Any] = {"why": WHY}
    if not trace:
        steady = rounds.until(seconds)
        round_seconds = [sum(times) for times, _ in steady]
        metrics = {
            "setup_s": median(rounds.setups),
            "first_request_s": sum(first_times),
            "latency_p50_s": median(round_seconds),
            "throughput_rps": len(round_seconds) / sum(round_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "program_ops": rounds.stats["program_ops"],
            "modulus_bits": rounds.stats["modulus_bits"],
        }
        report["rounds"] = 1 + len(steady)
        report["compile_s_per_network"] = summary([t for times, _ in steady for t in times])
        report["keyswitch_ops"] = rounds.stats["keyswitch_ops"]
    else:
        from repro.core.compiler import EvaCompiler
        from repro.nn import DnnCompiler

        untraced = rounds.until(seconds / 2)
        traced = rounds.until(
            seconds / 2,
            (
                (DnnCompiler, "build_program", "build_program"),
                (EvaCompiler, "compile", "compile"),
            ),
        )
        samples = [breakdown for _, breakdown in traced]
        metrics = {key: median([sample[key] for sample in samples]) for key in samples[0]}
        traced_p50 = median([sum(times) for times, _ in traced])
        untraced_p50 = median([sum(times) for times, _ in untraced])
        covered = metrics["nn.chet.build_program_s"] + metrics["core.compiler.compile_s"]
        metrics["trace.coverage"] = covered / traced_p50
        metrics["trace.overhead"] = traced_p50 / untraced_p50
        metrics["core.compiler.keyswitch_ops"] = rounds.stats["keyswitch_ops"]
        report["untraced_latency_p50_s"] = untraced_p50
        report["traced_latency_p50_s"] = traced_p50
    report["setup_s"] = summary(rounds.setups)
    if rounds.failures:
        report["failures"] = rounds.failures[:5]
    return {
        "attempted": rounds.attempted,
        "failed": len(rounds.failures),
        "metrics": metrics,
        "report": report,
    }
