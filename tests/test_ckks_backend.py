"""End-to-end tests of compiled EVA programs on the real RNS-CKKS backend.

These are the slowest tests in the suite (real lattice arithmetic in pure
Python); they use small vectors and shallow programs, and confirm that the
compiler's output runs on genuine ciphertexts with the expected accuracy.
"""


import numpy as np
import pytest

from repro.api import ClientKit, CompiledProgram, ServerRuntime
from repro.apps.regression import (
    build_linear_regression_program,
    reference_linear_regression,
)
from repro.backend import CkksBackend
from repro.ckks.ntt import NttContext
from repro.core import CompilerOptions, Executor, execute_reference
from repro.frontend import EvaProgram, constant, input_encrypted, input_plain, output

OPTIONS = CompilerOptions(max_rescale_bits=25)


def compile_and_run(program, inputs, seed=5):
    compiled = program.compile(options=OPTIONS)
    executor = Executor(compiled, CkksBackend(seed=seed))
    return compiled, executor.execute(inputs)


class TestCkksBackendExecution:
    def test_polynomial_with_rotation(self):
        program = EvaProgram("poly", vec_size=256, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            y = x * x * 0.5 + (x << 3) + 1.0
            output("y", y, 25)
        xv = np.linspace(-1, 1, 256)
        compiled, result = compile_and_run(program, {"x": xv})
        reference = execute_reference(program.graph, {"x": xv})
        assert np.max(np.abs(result["y"] - reference["y"])) < 0.05
        assert result.stats.op_count > 0

    def test_cipher_cipher_multiply_and_add(self):
        program = EvaProgram("mix", vec_size=128, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            y = input_encrypted("y", 25)
            output("out", x * y + x, 25)
        rng = np.random.default_rng(0)
        xv, yv = rng.uniform(-1, 1, 128), rng.uniform(-1, 1, 128)
        compiled, result = compile_and_run(program, {"x": xv, "y": yv})
        assert np.max(np.abs(result["out"] - (xv * yv + xv))) < 0.05

    def test_level_metadata_matches_compiler_expectation(self):
        program = EvaProgram("depth", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            output("out", (x * x) * (x * x), 25)
        compiled = program.compile(options=OPTIONS)
        context = CkksBackend(seed=1).create_context(compiled.parameters)
        context.generate_keys()
        cipher = context.encrypt(np.linspace(-1, 1, 64), 25)
        assert context.level(cipher) == 0
        assert context.scale_bits(cipher) == pytest.approx(25.0)

    def test_prime_bit_cap_enforced(self):
        program = EvaProgram("big", vec_size=64, default_scale=40)
        with program:
            x = input_encrypted("x", 40)
            output("out", x * x, 40)
        compiled = program.compile(options=CompilerOptions(max_rescale_bits=60))
        executor = Executor(compiled, CkksBackend(seed=2))
        with pytest.raises(Exception):
            executor.execute({"x": np.linspace(-1, 1, 64)})


class TestConstantCache:
    """The engine encodes each compile-time constant once per program."""

    @staticmethod
    def _session(compiled, runtime, client_id, seed):
        kit = ClientKit(compiled, backend=CkksBackend(seed=seed), client_id=client_id)
        runtime.attach_client(client_id, kit.export_evaluation_keys())
        return kit

    @staticmethod
    def _constants_program():
        program = EvaProgram("consts", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            mask = constant([1.0, 0.0, 0.0, 1.0] * 16, 25)
            output("y", (x * 0.5) * mask + (x << 1) * x + 1.0, 25)
        return CompiledProgram.compile(program, options=OPTIONS)

    def _expected(self, xv):
        mask = np.array([1.0, 0.0, 0.0, 1.0] * 16)
        return xv * 0.5 * mask + np.roll(xv, -1) * xv + 1.0

    def test_second_evaluation_encodes_nothing(self):
        compiled = self._constants_program()
        runtime = ServerRuntime(compiled, backend=CkksBackend(seed=5))
        kit = self._session(compiled, runtime, "alice", seed=5)
        xv = np.linspace(-1, 1, 64)
        bundle = kit.encrypt_inputs({"x": xv})
        context = runtime.client_context("alice")
        first = kit.decrypt_outputs(runtime.evaluate(bundle))["y"]
        assert context.drain_op_times()["encode"][0] > 0
        second = kit.decrypt_outputs(runtime.evaluate(bundle))["y"]
        assert "encode" not in context.drain_op_times()
        assert np.array_equal(first, second)
        assert np.max(np.abs(second - self._expected(xv))) < 0.05

    def test_sessions_share_entries(self):
        compiled = self._constants_program()
        runtime = ServerRuntime(compiled, backend=CkksBackend(seed=5))
        xv = np.linspace(-1, 1, 64)
        kits = [
            self._session(compiled, runtime, name, seed)
            for name, seed in (("alice", 11), ("bob", 12))
        ]
        sizes = []
        for kit in kits:
            outputs = kit.decrypt_outputs(runtime.evaluate(kit.encrypt_inputs({"x": xv})))
            assert np.max(np.abs(outputs["y"] - self._expected(xv))) < 0.05
            sizes.append(len(runtime.engine._constants))
        assert sizes[0] > 0 and sizes[1] == sizes[0]
        assert "encode" not in runtime.client_context("bob").drain_op_times()

    def test_threads_match_serial(self):
        compiled = self._constants_program()
        xv = np.linspace(-1, 1, 64)
        outputs = []
        for threads in (1, 2):
            runtime = ServerRuntime(compiled, backend=CkksBackend(seed=5), threads=threads)
            kit = self._session(compiled, runtime, "alice", seed=5)
            bundle = kit.encrypt_inputs({"x": xv})
            runtime.evaluate(bundle)
            outputs.append(kit.decrypt_outputs(runtime.evaluate(bundle))["y"])
        assert np.array_equal(outputs[0], outputs[1])

    def test_plain_vector_input_is_not_cached(self):
        program = EvaProgram("weights", vec_size=64, default_scale=25)
        with program:
            x = input_encrypted("x", 25)
            w = input_plain("w", 25)
            output("y", x * w + 0.25, 25)
        compiled = CompiledProgram.compile(program, options=OPTIONS)
        runtime = ServerRuntime(compiled, backend=CkksBackend(seed=5))
        kit = self._session(compiled, runtime, "alice", seed=5)
        xv = np.linspace(-1, 1, 64)
        for wv in (np.full(64, 0.5), np.linspace(1, -1, 64)):
            bundle = kit.encrypt_inputs({"x": xv, "w": wv})
            outputs = kit.decrypt_outputs(runtime.evaluate(bundle))
            assert np.max(np.abs(outputs["y"] - (xv * wv + 0.25))) < 0.05

    def test_steady_regression_runs_no_ntt(self, monkeypatch):
        """Linear regression at N=4096 multiplies and adds only scalar
        constants: once they are cached, evaluation needs no transform."""
        compiled = CompiledProgram.compile(
            build_linear_regression_program(vec_size=1024, scale=25),
            options=OPTIONS,
        )
        assert compiled.parameters.poly_modulus_degree == 4096
        runtime = ServerRuntime(compiled, backend=CkksBackend(seed=5))
        kit = self._session(compiled, runtime, "alice", seed=5)
        xv = np.linspace(-1, 1, 1024)
        bundle = kit.encrypt_inputs({"x": xv})
        runtime.evaluate(bundle)
        transforms = []
        for name in ("forward", "inverse"):
            original = getattr(NttContext, name)

            def counted(self, values, _original=original):
                transforms.append(1)
                return _original(self, values)

            monkeypatch.setattr(NttContext, name, counted)
        encrypted = runtime.evaluate(bundle)
        monkeypatch.undo()
        assert len(transforms) == 0
        outputs = kit.decrypt_outputs(encrypted)
        expected = reference_linear_regression(xv)
        assert np.max(np.abs(outputs["prediction"] - expected)) < 0.02
