"""The two serving workloads: encrypted requests through a 2-shard server.

Each run starts the deployed entry point,

    python -m repro.cli serve <program> --backend ckks --shards 2 \
        --wire binary --session-dir <dir>

and drives it from this process through the public client API only:
``ClientKit`` for keys, encryption and decryption, and
``ServingClient.create_session`` / ``ServingClient.submit_bundle`` for the
wire.  Every request is closed loop (a connection sends its next request
only after the previous reply is decrypted) and every decrypted output is
compared with a plaintext reference that does not go through the compiler.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from bench_common import (
    PASS_NAMES,
    ROOT,
    WORK,
    BenchError,
    Ledger,
    child_pids,
    median,
    p95,
    pass_breakdown,
    patched,
    peak_rss_mb,
    precision_bits,
    process_alive,
    program_stats,
    summary,
)

#: HISA ops the server's backend reports through ``ckks.op.*``.
BACKEND_OPS = (
    "add",
    "add_plain",
    "sub",
    "sub_plain",
    "negate",
    "multiply",
    "multiply_plain",
    "relinearize",
    "rotate",
    "rescale",
    "mod_switch",
    "encode",
)

#: Server stage spans (``repro.serving.telemetry.TRACE_STAGES``) and the
#: per-layer metric each one's self time is reported under.
STAGE_METRICS = {
    "quota_admission": "serving.quotas.admission_s",
    "queue_wait": "serving.jobs.queue_wait_s",
    "batch_form": "serving.batching.batch_form_s",
    "compile_or_cache": "serving.registry.compile_or_cache_s",
    "session_restore": "serving.sessions.restore_s",
    "execute": "serving.server.execute_s",
    "serialize_reply": "serving.server.serialize_reply_s",
}

#: ``precision_bits`` is the minimum over each session's first this many
#: requests (its first request and at least one steady one, which every run
#: makes), so it repeats exactly for a seed.
PRECISION_REQUESTS = 2

#: Layers whose self times are disjoint parts of one request, in request
#: order; their sum over the traced request time is ``trace.coverage``.
COVERAGE_LAYERS = (
    "api.client.encrypt_s",
    "api.client.bundle_to_wire_s",
    "serving.netserver.client_router_s",
    "serving.cluster.forward_overhead_s",
    *STAGE_METRICS.values(),
    "api.client.outputs_from_wire_s",
    "api.client.decrypt_s",
)


# -- workload definitions -----------------------------------------------------------


@dataclass
class ServingSpec:
    name: str
    why: str
    program_name: str
    build: Callable[[], Any]
    max_rescale_bits: float
    lane_width: Optional[int]
    clients: int
    connections: int
    #: A reply whose decrypted outputs are further than this from the
    #: plaintext reference (max absolute error) counts as failed.
    max_abs_error: float
    #: Full set-ups (launch to last session) per run; ``setup_s`` is their median.
    setup_repeats: int
    #: Every session makes at least this many requests in a measured window.
    min_requests: int
    make_inputs: Callable[[np.random.Generator], Any]
    encrypt: Callable[[Any, Any], Tuple[Any, Any]]
    decrypt: Callable[[Any, Any, Any], List[np.ndarray]]
    reference: Callable[[Any], List[np.ndarray]]


def _sobel_spec() -> ServingSpec:
    from repro.apps.sobel import build_sobel_program, random_image
    from repro.core.executor import execute_reference

    image_size, lanes = 16, 4
    # The per-lane reference runs the uncompiled vec-256 source program in
    # the plaintext interpreter; it shares no code with the compiler.
    reference_graph = build_sobel_program(
        image_size, scale=23, vec_size=image_size * image_size
    ).graph

    def make_inputs(rng):
        seeds = rng.integers(0, 2**31 - 1, size=lanes)
        return [random_image(image_size, seed=int(s)).reshape(-1) for s in seeds]

    def encrypt(kit, images):
        return kit.encrypt_packed([{"image": image} for image in images])

    def decrypt(kit, outputs, plan):
        return [lane["edges"] for lane in kit.decrypt_packed(plan, outputs)]

    def reference(images):
        return [
            execute_reference(reference_graph, {"image": image})["edges"][: image.size]
            for image in images
        ]

    return ServingSpec(
        name="sobel_lanes",
        why=(
            "CKKS kernels dominate (5-step key switching, constant encodes, one 29 MB "
            "key upload); serving and wire are a few percent of a request"
        ),
        program_name="sobel",
        # Scale 23 is the largest that keeps the lane program at N=8192 under
        # the 218-bit security bound once the backend's 30-bit special prime
        # is added; scale 24 raises SecurityError.
        build=lambda: build_sobel_program(image_size, scale=23, vec_size=1024),
        max_rescale_bits=23.0,
        lane_width=image_size * image_size,
        clients=1,
        connections=1,
        # Observed: max error ~0.07 on outputs up to ~1.4; at scale 20 it
        # would be ~0.43.
        max_abs_error=0.25,
        setup_repeats=2,
        min_requests=1,
        make_inputs=make_inputs,
        encrypt=encrypt,
        decrypt=decrypt,
        reference=reference,
    )


def _regression_spec() -> ServingSpec:
    from repro.apps.regression import (
        build_linear_regression_program,
        reference_linear_regression,
    )

    vec_size = 1024

    def make_inputs(rng):
        return rng.uniform(-1.0, 1.0, vec_size)

    def encrypt(kit, x):
        return kit.encrypt_inputs({"x": x}), None

    def decrypt(kit, outputs, _plan):
        return [kit.decrypt_outputs(outputs)["prediction"]]

    def reference(x):
        return [reference_linear_regression(x)]

    return ServingSpec(
        name="regression_clients",
        why=(
            "16 clients with own keys and small requests: client crypto, wire, "
            "router, queue and batching outweigh server execute; no key switching"
        ),
        program_name="linreg",
        build=lambda: build_linear_regression_program(vec_size=vec_size, scale=25),
        max_rescale_bits=25.0,
        lane_width=None,
        clients=16,
        connections=2,
        # Observed: max error ~0.004 on outputs up to ~2.
        max_abs_error=0.02,
        setup_repeats=3,
        min_requests=2,
        make_inputs=make_inputs,
        encrypt=encrypt,
        decrypt=decrypt,
        reference=reference,
    )


SPECS = {"sobel_lanes": _sobel_spec, "regression_clients": _regression_spec}


def _compile_options(spec: ServingSpec):
    """The options ``repro.cli serve`` compiles with for this workload's flags;
    the client must match them exactly or the server rejects its bundles."""
    from repro.core.compiler import CompilerOptions

    return CompilerOptions(max_rescale_bits=spec.max_rescale_bits, lane_width=spec.lane_width)


# -- the server process -------------------------------------------------------------


class ServerProcess:
    """One ``repro.cli serve`` process with two shard children."""

    BANNER_TIMEOUT = 120.0

    def __init__(self, spec: ServingSpec, program_file, seed: int, tag: str) -> None:
        self.session_dir = WORK / f"sessions-{tag}"
        self.log_path = WORK / f"server-{tag}.log"
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            str(program_file),
            "--backend",
            "ckks",
            "--shards",
            "2",
            "--wire",
            "binary",
            "--session-dir",
            str(self.session_dir),
            "--port",
            "0",
            "--seed",
            str(seed),
            "--max-rescale-bits",
            repr(spec.max_rescale_bits),
        ]
        if spec.lane_width is not None:
            command += ["--lane-width", str(spec.lane_width)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.pids: List[int] = [self.process.pid]
        try:
            banner = self._read_banner()
        except BaseException:
            self.stop(check=False)
            raise
        host, port = banner["serving"].rsplit(":", 1)
        self.host, self.port = host, int(port)
        self.pids += [int(shard["pid"]) for shard in banner["shards"]]

    def _read_banner(self) -> Dict[str, Any]:
        deadline = time.monotonic() + self.BANNER_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(f"server exited at start-up:\n{self.log_tail()}")
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                if line.startswith("{"):
                    return json.loads(line)
        raise BenchError(f"server printed no banner:\n{self.log_tail()}")

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log_path.read_text().splitlines()[-lines:])
        except OSError:
            return "(no server log)"

    def rss_mb(self) -> float:
        return peak_rss_mb(self.pids)

    def stop(self, check: bool = True) -> None:
        """SIGINT the server (runs ``cluster.close()``) and wait for every
        process it started; with ``check``, a survivor fails the run."""
        descendants = set(self.pids[1:]) | set(child_pids(self.process.pid))
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
            if check:
                raise BenchError("the server ignored SIGINT for 30 s")
        deadline = time.monotonic() + 15.0
        survivors = [pid for pid in descendants if process_alive(pid)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.1)
            survivors = [pid for pid in survivors if process_alive(pid)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.process.stdout.close()
        self._log.close()
        shutil.rmtree(self.session_dir, ignore_errors=True)
        if survivors and check:
            raise BenchError(
                f"processes {survivors} outlived the server after SIGINT"
            )


# -- one set-up: launch, compile, keys, sessions --------------------------------------


@dataclass
class Session:
    index: int
    kit: Any
    connection: Any
    requests: int = 0


class Deployment:
    """A running server plus every client session of one workload."""

    def __init__(self, spec: ServingSpec, seed: int, program_file, tag: str, traced: bool) -> None:
        from repro.api import ClientKit, CompiledProgram
        from repro.backend import CkksBackend
        from repro.core.serialization import load
        from repro.core.serialization.packing import raw_blobs
        from repro.serving import ServingClient

        self.spec = spec
        self.layers: Dict[str, List[float]] = {}
        started = time.perf_counter()
        self.server = ServerProcess(spec, program_file, seed, tag)
        try:
            self.compiled = CompiledProgram.compile(
                load(program_file), options=_compile_options(spec)
            )
            self.connections = [
                ServingClient(self.server.host, self.server.port, timeout=180.0, wire="binary")
                for _ in range(spec.connections)
            ]
            self.sessions: List[Session] = []
            self.session_seconds: List[float] = []
            self.session_bytes: List[int] = []
            for index in range(spec.clients):
                t0 = time.perf_counter()
                kit = ClientKit(
                    self.compiled,
                    backend=CkksBackend(seed=seed * 7919 + index),
                    client_id=f"client-{index:02d}",
                )
                t1 = time.perf_counter()
                connection = self.connections[index % spec.connections]
                if traced:
                    with raw_blobs():
                        kit.export_evaluation_keys()
                t2 = time.perf_counter()
                before = connection.bytes_sent + connection.bytes_received
                connection.create_session(spec.program_name, kit)
                t3 = time.perf_counter()
                self.session_bytes.append(
                    connection.bytes_sent + connection.bytes_received - before
                )
                self.session_seconds.append(t3 - t2)
                self._note("api.client.keygen_s", t1 - t0)
                self._note("api.client.export_keys_s", t2 - t1)
                self.sessions.append(Session(index, kit, connection))
            self.setup_seconds = time.perf_counter() - started
        except BaseException:
            self.close(check=False)
            raise
        if traced:
            export = self.layers["api.client.export_keys_s"]
            self.layers["serving.netserver.session_upload_s"] = [
                total - exported for total, exported in zip(self.session_seconds, export)
            ]

    def _note(self, key: str, value: float) -> None:
        self.layers.setdefault(key, []).append(value)

    def close(self, check: bool = True) -> None:
        for connection in getattr(self, "connections", []):
            connection.close()
        self.server.stop(check=check)


# -- requests -------------------------------------------------------------------------


@dataclass
class Outcome:
    session: int
    index: int
    ok: bool
    seconds: float = 0.0
    wire_bytes: int = 0
    precision: float = 0.0
    layers: Optional[Dict[str, float]] = None
    trace: Optional[Dict[str, Any]] = None
    error: str = ""


def _checked(spec: ServingSpec, decrypted, references) -> Outcome:
    """Compare one reply (all its lanes) with the plaintext reference."""
    decrypted, references = np.concatenate(decrypted), np.concatenate(references)
    error = float(np.max(np.abs(decrypted - references)))
    ok = error <= spec.max_abs_error
    return Outcome(
        -1,
        0,
        ok=ok,
        precision=precision_bits(decrypted, references),
        error="" if ok else f"max error {error:.3g} > {spec.max_abs_error}",
    )


def _request(spec: ServingSpec, session: Session, seed: int, traced: bool) -> Outcome:
    from repro.core.serialization.packing import raw_blobs

    index = session.requests
    session.requests += 1
    rng = np.random.default_rng([seed, session.index, index])
    inputs = spec.make_inputs(rng)
    references = spec.reference(inputs)
    kit, connection = session.kit, session.connection
    try:
        t0 = time.perf_counter()
        bundle, plan = spec.encrypt(kit, inputs)
        t1 = time.perf_counter()
        with raw_blobs():
            wire = kit.bundle_to_wire(bundle)
        t2 = time.perf_counter()
        before = connection.bytes_sent + connection.bytes_received
        reply = connection.submit_bundle(
            spec.program_name, wire, client_id=kit.client_id, trace=traced
        )
        t3 = time.perf_counter()
        wire_bytes = connection.bytes_sent + connection.bytes_received - before
        outputs = kit.outputs_from_wire(reply)
        t4 = time.perf_counter()
        decrypted = spec.decrypt(kit, outputs, plan)
        t5 = time.perf_counter()
    except Exception as error:  # a failed request is counted, not fatal
        return Outcome(session.index, index, ok=False, error=f"{type(error).__name__}: {error}")
    outcome = _checked(spec, decrypted, references)
    outcome.session, outcome.index = session.index, index
    outcome.seconds, outcome.wire_bytes = t5 - t0, wire_bytes
    if traced:
        outcome.layers = {
            "api.client.encrypt_s": t1 - t0,
            "api.client.bundle_to_wire_s": t2 - t1,
            "serving.netserver.roundtrip_s": t3 - t2,
            "api.client.outputs_from_wire_s": t4 - t3,
            "api.client.decrypt_s": t5 - t4,
        }
        outcome.trace = connection.last_trace
    return outcome


def _drive(
    deployment: Deployment,
    seed: int,
    seconds: float,
    min_requests: int,
    traced: bool,
) -> Tuple[List[Outcome], float]:
    """Closed loop on every connection until ``seconds`` have passed and each
    session made ``min_requests`` requests; returns outcomes and wall time."""
    spec = deployment.spec
    groups: Dict[int, List[Session]] = {}
    for session in deployment.sessions:
        groups.setdefault(id(session.connection), []).append(session)
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds
    errors: List[BaseException] = []

    def loop(sessions: List[Session]) -> None:
        try:
            done = {session.index: 0 for session in sessions}
            turn = 0
            while time.perf_counter() < deadline or min(done.values()) < min_requests:
                session = sessions[turn % len(sessions)]
                turn += 1
                outcome = _request(spec, session, seed, traced)
                done[session.index] += 1
                with lock:
                    outcomes.append(outcome)
                if not outcome.ok and outcome.seconds == 0.0:
                    return  # the connection is unusable after a failed round trip
        except BaseException as error:  # surfaced in the caller's thread
            errors.append(error)

    threads = [
        threading.Thread(target=loop, args=(sessions,), daemon=True)
        for sessions in groups.values()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes, time.perf_counter() - started


# -- per-layer breakdown from traced requests -----------------------------------------


def _span_layers(roundtrip: float, trace: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Self time of each server layer of one traced request.

    ``router_forward`` (router process) encloses every shard span;
    ``queue_wait`` encloses ``batch_form``; ``execute`` encloses
    ``compile_or_cache`` and ``session_restore``.  Self times subtract the
    enclosed spans so the layers are disjoint.
    """
    if not trace:
        raise BenchError("a traced request came back without its trace")
    totals: Dict[str, float] = {}
    shard_totals: Dict[str, float] = {}
    batch_sizes: List[float] = []
    for span in trace.get("spans", []):
        stage = str(span.get("stage"))
        seconds = float(span.get("seconds", 0.0))
        totals[stage] = totals.get(stage, 0.0) + seconds
        if span.get("shard") != "router":
            shard_totals[stage] = shard_totals.get(stage, 0.0) + seconds
        if stage == "batch_form" and "batch_size" in span:
            batch_sizes.append(float(span["batch_size"]))
    forward = totals.get("router_forward", 0.0)
    shard_top = sum(
        shard_totals.get(stage, 0.0)
        for stage in ("quota_admission", "queue_wait", "execute", "serialize_reply")
    )
    layers = {
        "serving.cluster.router_forward_s": forward,
        "serving.cluster.forward_overhead_s": max(forward - shard_top, 0.0),
        "serving.netserver.client_router_s": max(roundtrip - forward, 0.0),
        "serving.batching.batch_size": batch_sizes[0] if batch_sizes else 0.0,
    }
    for stage, metric in STAGE_METRICS.items():
        layers[metric] = totals.get(stage, 0.0)
    layers["serving.jobs.queue_wait_s"] = max(
        totals.get("queue_wait", 0.0) - totals.get("batch_form", 0.0), 0.0
    )
    layers["serving.server.execute_s"] = max(
        totals.get("execute", 0.0)
        - totals.get("compile_or_cache", 0.0)
        - totals.get("session_restore", 0.0),
        0.0,
    )
    return layers


def _backend_counters(connection, program: str) -> Dict[str, Dict[str, float]]:
    """``ckks.op.count`` / ``ckks.op.seconds`` per op, summed over shards.

    The router reports each series per shard (``shard`` label) and once
    summed over shards (no ``shard`` label); only the sums are read.
    """
    snapshot = connection.metrics()["metrics"]
    totals: Dict[str, Dict[str, float]] = {"count": {}, "seconds": {}}
    for counter in snapshot.get("counters", []):
        labels = counter.get("labels", {})
        if labels.get("program") != program or "shard" in labels:
            continue
        kind = {"ckks.op.count": "count", "ckks.op.seconds": "seconds"}.get(counter["name"])
        if kind is not None:
            op = labels.get("op")
            totals[kind][op] = totals[kind].get(op, 0.0) + float(counter["value"])
    return totals


# -- in-process replay with the CKKS kernels wrapped ------------------------------------


def _kernel_replay(spec: ServingSpec, deployment: Deployment, seed: int) -> Tuple[Dict[str, float], Outcome]:
    """Evaluate one request through ``ServerRuntime`` with the public CKKS
    kernels wrapped; returns the kernel metrics of the steady-state request."""
    from repro.api import ServerRuntime
    from repro.backend import CkksBackend
    from repro.ckks.encoder import CkksEncoder
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.ntt import NttContext

    session = deployment.sessions[0]
    kit = session.kit
    runtime = ServerRuntime(deployment.compiled, backend=CkksBackend(seed=seed))
    runtime.attach_client(kit.client_id, kit.export_evaluation_keys())
    rng = np.random.default_rng([seed, 10**6])
    warm_inputs, inputs = spec.make_inputs(rng), spec.make_inputs(rng)
    warm_bundle, _ = spec.encrypt(kit, warm_inputs)
    runtime.evaluate(warm_bundle)  # fills the lazy key-form and twiddle caches
    bundle, plan = spec.encrypt(kit, inputs)
    targets = [
        (NttContext, "forward", "ntt"),
        (NttContext, "inverse", "ntt"),
        (Evaluator, "relinearize", "keyswitch"),
        (Evaluator, "rotate", "keyswitch"),
        (Evaluator, "rescale_to_next", "rescale"),
        (CkksEncoder, "encode", "encode"),
    ]
    started = time.perf_counter()
    with patched(Ledger(), targets) as ledger:
        outputs = runtime.evaluate(bundle)
    seconds = time.perf_counter() - started
    outcome = _checked(spec, spec.decrypt(kit, outputs, plan), spec.reference(inputs))
    outcome.seconds = seconds
    metrics = {
        "ckks.ntt.transforms": ledger.counts.get("ntt", 0),
        "ckks.ntt_s": ledger.seconds.get("ntt", 0.0),
        "ckks.keyswitch.count": ledger.counts.get("keyswitch", 0),
        "ckks.keyswitch_s": ledger.seconds.get("keyswitch", 0.0),
        "ckks.encode.count": ledger.counts.get("encode", 0),
        "ckks.encode_s": ledger.seconds.get("encode", 0.0),
        "ckks.rescale.count": ledger.counts.get("rescale", 0),
        "ckks.rescale_s": ledger.seconds.get("rescale", 0.0),
        "ckks.replay_s": seconds,
    }
    return metrics, outcome


def _compile_layers(spec: ServingSpec, program_file, repeats: int = 5) -> Dict[str, float]:
    """Per-pass breakdown of the client-side compile of the served program."""
    from repro.api import CompiledProgram
    from repro.core.serialization import load

    source, options = load(program_file), _compile_options(spec)
    samples: List[Dict[str, float]] = []
    for _ in range(repeats):
        started = time.perf_counter()
        compiled = CompiledProgram.compile(source, options=options)
        wall = time.perf_counter() - started
        samples.append(pass_breakdown([compiled.compilation.pass_reports], wall, PASS_NAMES))
    return {key: median([sample[key] for sample in samples]) for key in samples[0]}


# -- the workload ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.core.serialization import save

    spec = SPECS[workload]()
    program_file = WORK / f"{spec.program_name}.evaproto"
    save(spec.build().graph, program_file)
    report: Dict[str, Any] = {}
    setups: List[float] = []
    repeats = 1 if trace else spec.setup_repeats
    # Earlier set-ups are measured and torn down; the last one serves.
    for attempt in range(repeats - 1):
        deployment = Deployment(spec, seed, program_file, f"setup{attempt}", traced=False)
        setups.append(deployment.setup_seconds)
        deployment.close()
    deployment = Deployment(spec, seed, program_file, "serve", traced=trace)
    setups.append(deployment.setup_seconds)
    try:
        # Each session's first request pays the server's lazy key-form caching.
        first, _ = _drive(deployment, seed, 0.0, 1, traced=False)
        # A traced run splits its window: untraced requests, then traced ones.
        window = seconds / 2 if trace else seconds
        steady, steady_wall = _drive(deployment, seed, window, spec.min_requests, traced=False)
        if trace:
            before = _backend_counters(deployment.connections[0], spec.program_name)
            traced, _ = _drive(deployment, seed, window, spec.min_requests, traced=True)
            after = _backend_counters(deployment.connections[0], spec.program_name)
        server_rss = deployment.server.rss_mb()
    except BaseException:
        deployment.close(check=False)
        raise
    deployment.close()

    outcomes = first + steady + (traced if trace else [])
    replay: Dict[str, float] = {}
    if trace:
        replay, replay_outcome = _kernel_replay(spec, deployment, seed)
        outcomes.append(replay_outcome)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    ok_first = [o.seconds for o in first if o.ok]
    ok_steady = [o for o in steady if o.ok]
    if not ok_first or not ok_steady:
        raise BenchError(
            "no request succeeded: "
            + "; ".join(sorted({o.error for o in failures})[:3])
        )
    latencies = [o.seconds for o in ok_steady]
    precision = min(
        (o.precision for o in first + steady if o.index < PRECISION_REQUESTS and o.seconds > 0),
        default=0.0,
    )
    stats = program_stats(deployment.compiled.compilation)
    e2e = {
        "setup_s": median(setups),
        "first_request_s": median(ok_first),
        "latency_p50_s": median(latencies),
        "peak_rss_mb": server_rss,
        "program_ops": stats["program_ops"],
        "modulus_bits": stats["modulus_bits"],
    }
    report["requests"] = {
        "first": len(first),
        "steady": len(steady),
        "steady_ok": len(ok_steady),
        "failed": len(failures),
        "error_rate": len(failures) / len(outcomes),
        "failures": sorted({o.error for o in failures})[:5],
    }
    report["why"] = spec.why
    report["setup_s_samples"] = setups
    report["steady_latency_s"] = summary(latencies)
    serving_only = {
        "serving.netserver.session_s": median(deployment.session_seconds),
        "wire.session_bytes": median(deployment.session_bytes),
        "wire.bytes_per_request": median([o.wire_bytes for o in ok_steady]),
        "api.client.precision_bits": precision,
        "core.compiler.keyswitch_ops": stats["keyswitch_ops"],
    }
    if len(latencies) >= 200:
        report["latency_p95_s"] = p95(latencies)
    else:
        report["latency_p95_s"] = (
            f"not reported: {len(latencies)} samples leave fewer than ten beyond p95"
        )
    if not trace:
        e2e["throughput_rps"] = len(latencies) / steady_wall
        report["serving_metrics"] = serving_only
        return {"outcomes": outcomes, "metrics": e2e, "report": report}

    layers = _layer_metrics(spec, deployment, traced, before, after)
    layers.update(serving_only)
    layers.update(replay)
    layers.update(_compile_layers(spec, program_file))
    traced_ok = [o.seconds for o in traced if o.ok]
    traced_p50 = median(traced_ok)
    layers["trace.coverage"] = sum(layers[key] for key in COVERAGE_LAYERS) / traced_p50
    layers["trace.overhead"] = traced_p50 / median(latencies)
    report["traced_latency_p50_s"] = traced_p50
    report["untraced_latency_p50_s"] = median(latencies)
    report["e2e"] = e2e
    return {"outcomes": outcomes, "metrics": layers, "report": report}


def _layer_metrics(spec, deployment, traced, before, after) -> Dict[str, float]:
    ok = [o for o in traced if o.ok]
    if not ok:
        raise BenchError("no traced request succeeded")
    rows: List[Dict[str, float]] = []
    for outcome in ok:
        row = dict(outcome.layers)
        row.update(_span_layers(row["serving.netserver.roundtrip_s"], outcome.trace))
        rows.append(row)
    metrics = {key: median([row[key] for row in rows]) for key in rows[0]}
    for key in ("api.client.keygen_s", "api.client.export_keys_s", "serving.netserver.session_upload_s"):
        metrics[key] = median(deployment.layers[key])
    requests = len(traced)
    for op in BACKEND_OPS:
        count = after["count"].get(op, 0.0) - before["count"].get(op, 0.0)
        seconds = after["seconds"].get(op, 0.0) - before["seconds"].get(op, 0.0)
        metrics[f"backend.{op}.count"] = count / requests
        metrics[f"backend.{op}_s"] = seconds / requests
    unknown = set(after["count"]) - set(BACKEND_OPS)
    if unknown:
        raise BenchError(f"the backend reports ops this benchmark does not list: {sorted(unknown)}")
    return metrics
