"""Tests for the reference executor and the backend executor (incl. memory reuse)."""

import threading

import numpy as np
import pytest

from repro.backend import MockBackend
from repro.backend.mock_backend import MockContext
from repro.core import EvaluationEngine, Executor, ReferenceExecutor, execute_reference
from repro.core.ir import Program
from repro.core.types import Op, ValueType
from repro.errors import ExecutionError
from repro.frontend import EvaProgram, input_encrypted, input_plain, output


class TestReferenceExecutor:
    def test_basic_arithmetic(self):
        program = EvaProgram("arith", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            y = input_encrypted("y", 25)
            output("sum", x + y, 25)
            output("diff", x - y, 25)
            output("prod", x * y, 25)
            output("neg", -x, 25)
        xv = np.arange(8, dtype=float)
        yv = np.ones(8) * 2
        out = execute_reference(program.graph, {"x": xv, "y": yv})
        np.testing.assert_allclose(out["sum"], xv + yv)
        np.testing.assert_allclose(out["diff"], xv - yv)
        np.testing.assert_allclose(out["prod"], xv * yv)
        np.testing.assert_allclose(out["neg"], -xv)

    def test_rotations(self):
        program = EvaProgram("rot", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("left", (x << 3) * 1.0, 25)
            output("right", (x >> 2) * 1.0, 25)
        xv = np.arange(8, dtype=float)
        out = execute_reference(program.graph, {"x": xv})
        np.testing.assert_allclose(out["left"], np.roll(xv, -3))
        np.testing.assert_allclose(out["right"], np.roll(xv, 2))

    def test_sum_reduction(self):
        program = EvaProgram("sum", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("total", x.sum(), 25)
        xv = np.arange(8, dtype=float)
        out = execute_reference(program.graph, {"x": xv})
        np.testing.assert_allclose(out["total"], np.full(8, xv.sum()))

    def test_scalar_broadcasting(self):
        program = EvaProgram("bcast", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", x * 2.0 + 1.0, 25)
        out = execute_reference(program.graph, {"x": 3.0})
        np.testing.assert_allclose(out["out"], np.full(8, 7.0))

    def test_short_input_replication(self):
        program = EvaProgram("rep", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", x * 1.0, 25)
        out = execute_reference(program.graph, {"x": [1.0, 2.0]})
        np.testing.assert_allclose(out["out"], np.tile([1.0, 2.0], 4))

    def test_missing_input_raises(self, simple_pyeva_program):
        with pytest.raises(ExecutionError):
            execute_reference(simple_pyeva_program.graph, {"x": np.zeros(16)})

    def test_fhe_ops_are_identities(self):
        program = Program("fhe", vec_size=8)
        x = program.input("x", ValueType.CIPHER, scale=30)
        relin = program.make_term(Op.RELINEARIZE, [program.make_term(Op.MULTIPLY, [x, x])])
        rescaled = program.make_term(Op.RESCALE, [relin], rescale_value=30.0)
        program.set_output("out", rescaled, scale=30)
        out = ReferenceExecutor(program).execute({"x": np.full(8, 2.0)})
        np.testing.assert_allclose(out["out"], np.full(8, 4.0))


class TestBackendExecutor:
    def test_matches_reference_on_mock(self, simple_pyeva_program, simple_inputs, noiseless_backend):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled, noiseless_backend).execute(simple_inputs)
        reference = execute_reference(simple_pyeva_program.graph, simple_inputs)
        np.testing.assert_allclose(result["w"], reference["w"], rtol=1e-9, atol=1e-12)

    def test_noise_model_stays_close_to_reference(self, simple_pyeva_program, simple_inputs, mock_backend):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled, mock_backend).execute(simple_inputs)
        reference = execute_reference(simple_pyeva_program.graph, simple_inputs)
        np.testing.assert_allclose(result["w"], reference["w"], atol=1e-2)

    def test_plain_inputs_supported(self, noiseless_backend):
        program = EvaProgram("plain", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            mask = input_plain("mask", 15)
            output("out", x * mask + mask, 25)
        xv = np.arange(8, dtype=float)
        mv = np.linspace(0, 1, 8)
        compiled = program.compile()
        result = Executor(compiled, noiseless_backend).execute({"x": xv, "mask": mv})
        np.testing.assert_allclose(result["out"], xv * mv + mv, rtol=1e-9)

    def test_constant_cache_shared_by_concurrent_evaluations(self, noiseless_backend):
        """Threads evaluating on one engine with their own contexts all get
        correct results and leave one cache entry per constant operand."""
        import sys

        program = EvaProgram("consts", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", x * 0.5 + x * x * 2.0 + 1.0, 25)
        compiled = program.compile()
        engine = EvaluationEngine(compiled, noiseless_backend, retire_inputs=False)
        xv = np.linspace(-1, 1, 8)
        errors = []

        def worker():
            try:
                context = noiseless_backend.create_context(compiled.parameters)
                context.generate_keys()
                ciphers, plains = engine.encrypt_inputs(context, {"x": xv})
                for _ in range(20):
                    handles = engine.evaluate(context, ciphers, plains)
                    got = context.decrypt(handles["out"])[:8]
                    if not np.allclose(got, xv * 0.5 + xv * xv * 2.0 + 1.0):
                        errors.append(got)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        serial = EvaluationEngine(compiled, noiseless_backend, retire_inputs=False)
        context = noiseless_backend.create_context(compiled.parameters)
        context.generate_keys()
        serial.evaluate(context, *serial.encrypt_inputs(context, {"x": xv}))
        assert engine._constants.keys() == serial._constants.keys()

    def test_subtraction_with_plain_on_left(self, noiseless_backend):
        program = EvaProgram("sub", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", 1.0 - x, 25)
        xv = np.linspace(-1, 1, 8)
        compiled = program.compile()
        result = Executor(compiled, noiseless_backend).execute({"x": xv})
        np.testing.assert_allclose(result["out"], 1.0 - xv, rtol=1e-9)

    def test_missing_input_raises(self, simple_pyeva_program, mock_backend):
        compiled = simple_pyeva_program.compile()
        with pytest.raises(ExecutionError):
            Executor(compiled, mock_backend).execute({"x": np.zeros(16)})

    def test_execution_stats_populated(self, simple_pyeva_program, simple_inputs, mock_backend):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled, mock_backend).execute(simple_inputs)
        stats = result.stats
        assert stats.op_count > 0
        assert stats.wall_seconds > 0
        assert stats.peak_live_ciphertexts > 0
        assert stats.peak_live_ciphertexts <= stats.op_count

    def test_memory_reuse_limits_live_ciphertexts(self, noiseless_backend):
        # A long chain of multiplies by constants should only ever keep a
        # couple of ciphertexts alive at a time thanks to retirement.
        program = EvaProgram("chain", vec_size=8, default_scale=20)
        with program:
            x = input_encrypted("x", 20)
            node = x
            for _ in range(30):
                node = node * 0.9
            output("out", node, 20)
        compiled = program.compile()
        executor = Executor(compiled, noiseless_backend)
        result = executor.execute({"x": np.ones(8)})
        assert result.stats.peak_live_ciphertexts <= 5

    def test_parallel_execution_matches_serial(self, simple_pyeva_program, simple_inputs):
        compiled = simple_pyeva_program.compile()
        serial = Executor(compiled, MockBackend(error_model="none")).execute(simple_inputs)
        parallel = Executor(compiled, MockBackend(error_model="none"), threads=4).execute(simple_inputs)
        np.testing.assert_allclose(parallel["w"], serial["w"], rtol=1e-9)

    def test_output_truncated_to_vec_size(self, simple_pyeva_program, simple_inputs, mock_backend):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled, mock_backend).execute(simple_inputs)
        assert result["w"].shape == (16,)

    def test_default_backend_is_mock(self, simple_pyeva_program, simple_inputs):
        compiled = simple_pyeva_program.compile()
        result = Executor(compiled).execute(simple_inputs)
        assert "w" in result.outputs

    def test_injected_context_skips_context_stage(self, simple_pyeva_program, simple_inputs):
        compiled = simple_pyeva_program.compile()
        executor = Executor(compiled, MockBackend(error_model="none"))
        context = executor.create_context()
        warm = executor.execute(simple_inputs, context=context)
        cold = executor.execute(simple_inputs)
        assert warm.stats.context_seconds == 0.0
        assert cold.stats.context_seconds > 0.0
        np.testing.assert_allclose(warm["w"], cold["w"], rtol=1e-9)


class _SentinelFailingContext(MockContext):
    """Noiseless mock context that fails the multiply of a sentinel operand.

    Detection is by operand *value*, so exactly one term of the test programs
    fails no matter how threads interleave.  With ``block_others`` set, every
    other multiply parks until the failure has happened — which makes "was a
    consumer dispatched after the error?" a deterministic question instead of
    a timing-dependent one.
    """

    SENTINEL = 7.0

    def __init__(self, parameters, block_others: bool = False):
        super().__init__(parameters, error_model="none")
        self.block_others = block_others
        self.error_event = threading.Event()
        self.survivor_multiplies = 0

    def multiply(self, a, b):
        if a.values[0] == self.SENTINEL and b.values[0] == self.SENTINEL:
            self.error_event.set()
            raise ExecutionError("injected failure on the sentinel operand")
        if self.block_others:
            self.error_event.wait(5.0)
        self.survivor_multiplies += 1
        return super().multiply(a, b)


class _SentinelFailingBackend(MockBackend):
    def __init__(self, block_others: bool = False):
        super().__init__(error_model="none")
        self.block_others = block_others
        self.last_context = None

    def create_context(self, parameters):
        self.last_context = _SentinelFailingContext(parameters, self.block_others)
        return self.last_context


class TestParallelErrorPath:
    """The parallel executor must stop dispatching and re-raise deterministically."""

    CHAIN_LENGTH = 6

    @classmethod
    def _two_branch_program(cls) -> EvaProgram:
        # Output "a" fails at its one multiply (x is the 7.0 sentinel);
        # output "b" is an independent chain of multiplies on y.
        program = EvaProgram("twobranch", vec_size=8, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            y = input_encrypted("y", 25)
            output("a", x * x, 25)
            node = y
            for _ in range(cls.CHAIN_LENGTH):
                node = node * y
            output("b", node, 25)
        return program

    @classmethod
    def _inputs(cls):
        return {
            "x": np.full(8, _SentinelFailingContext.SENTINEL),
            "y": np.full(8, 1.01),
        }

    def test_error_is_reraised(self):
        compiled = self._two_branch_program().compile()
        with pytest.raises(ExecutionError, match="injected failure"):
            Executor(compiled, _SentinelFailingBackend(), threads=4).execute(self._inputs())

    def test_error_is_deterministic_across_runs(self):
        compiled = self._two_branch_program().compile()
        seen = set()
        for _ in range(5):
            with pytest.raises(ExecutionError) as excinfo:
                Executor(compiled, _SentinelFailingBackend(), threads=4).execute(
                    self._inputs()
                )
            seen.add((type(excinfo.value), str(excinfo.value)))
        assert len(seen) == 1

    def test_no_consumers_dispatched_after_error(self):
        # Non-failing multiplies block until the failure happens, so only the
        # already-dispatched first chain link may complete; if the executor
        # kept dispatching newly-ready consumers after the error, the whole
        # y-chain would run and survivor_multiplies would reach CHAIN_LENGTH.
        compiled = self._two_branch_program().compile()
        backend = _SentinelFailingBackend(block_others=True)
        with pytest.raises(ExecutionError):
            Executor(compiled, backend, threads=2).execute(self._inputs())
        assert backend.last_context.survivor_multiplies <= 1

    def test_serial_and_parallel_raise_same_error(self):
        compiled = self._two_branch_program().compile()
        serial_backend = _SentinelFailingBackend()
        with pytest.raises(ExecutionError) as serial_exc:
            Executor(compiled, serial_backend, threads=1).execute(self._inputs())
        parallel_backend = _SentinelFailingBackend()
        with pytest.raises(ExecutionError) as parallel_exc:
            Executor(compiled, parallel_backend, threads=4).execute(self._inputs())
        assert str(serial_exc.value) == str(parallel_exc.value)
        assert type(serial_exc.value) is type(parallel_exc.value)
