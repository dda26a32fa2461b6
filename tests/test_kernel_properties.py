"""Property tests pinning every optimized CKKS kernel to its oracle.

The profiling work (``repro.cli profile``) replaced the hot paths of the
scheme — the NTT butterfly loops, the rescale and CRT-composition kernels,
and the whole key-switching pipeline — with fused/NTT-domain variants.  The
plain versions live in ``tests/ckks_oracles.py`` (and, for key switching, in
``Evaluator(fast_keyswitch=False)``) so the optimized paths can be pinned
against them over randomized and boundary inputs:

* ``NttContext.forward`` / ``inverse`` (lazy butterflies, floor-division
  reductions, transposed narrow stages) vs ``forward_reference`` /
  ``inverse_reference``, up to the largest supported prime and degree;
* ``reduce_mod`` vs ``%``;
* ``RnsPolynomial.add`` / ``sub`` / ``negate`` vs ``%`` on boundary residues;
* ``RnsPolynomial.divide_and_round_last`` / ``to_int_coefficients`` vs
  their row-at-a-time oracles;
* ``galois_ntt_permutation`` vs the coefficient-domain automorphism;
* ``Evaluator(fast_keyswitch=True)`` vs the coefficient-domain reference —
  **bit-exact** for relinearization, **noise-level** for hoisted rotations
  (digit lifting does not commute with the automorphism's sign flips, so
  the two valid decompositions differ only under the noise floor);
* ``Evaluator.multiply`` (each operand transformed once) and
  ``Evaluator.multiply_plain`` (scalar and NTT evaluation forms) vs
  ``RnsPolynomial.multiply`` — **bit-exact**;
* ``Encryptor.encrypt`` / ``Decryptor.decrypt_poly`` with cached key
  transforms vs the same formulas through ``RnsPolynomial.multiply``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from ckks_oracles import (
    divide_and_round_last_reference,
    forward_reference,
    inverse_reference,
    negacyclic_product,
    to_int_coefficients_reference,
)

from repro.ckks import (
    CkksContext,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.ckks.ntt import NttContext, galois_ntt_permutation, get_ntt_context, reduce_mod
from repro.ckks.numth import MAX_PRIME_BITS, generate_ntt_primes
from repro.ckks.rns import RnsBasis, RnsPolynomial
from repro.ckks.sampling import RlweSampler
from repro.core.analysis.parameters import MAX_POLY_MODULUS_DEGREE
from repro.errors import ParameterError

CKKS_SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro" / "ckks"

DRAWS = 5


def random_residues(rng, basis):
    return RnsPolynomial(
        basis,
        rng.integers(
            0,
            np.array(basis.primes).reshape(-1, 1),
            size=(len(basis), basis.poly_modulus_degree),
            dtype=np.int64,
        ),
    )


class TestNttAgainstReference:
    # N <= 16 runs only the transposed narrow stages; N = 32 crosses from
    # them to the wide stages; 1024 and 8192 are served sizes.
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 256, 1024, 8192])
    @pytest.mark.parametrize("bits", [20, 23, 28, 30])
    def test_forward_and_inverse_match_reference(self, n, bits):
        prime = generate_ntt_primes([bits], n)[0]
        ntt = get_ntt_context(prime, n)
        rng = np.random.default_rng(n * bits)
        impulses = [np.eye(1, n, k, dtype=np.int64)[0] for k in (0, 1, n // 2, n - 1)]
        randoms = list(rng.integers(0, prime, size=(16, n), dtype=np.int64))
        for coeffs in [
            np.zeros(n, dtype=np.int64),
            np.full(n, prime - 1, dtype=np.int64),
            *impulses,
            *randoms,
        ]:
            forward = ntt.forward(coeffs)
            assert forward.dtype == np.int64
            assert np.array_equal(forward, forward_reference(ntt, coeffs))
            assert np.array_equal(ntt.inverse(coeffs), inverse_reference(ntt, coeffs))
            assert np.array_equal(ntt.inverse(forward), coeffs % prime)

    @pytest.mark.parametrize("n", [8, 16, 32, MAX_POLY_MODULUS_DEGREE])
    def test_lazy_bound_at_largest_prime(self, n):
        """Lazy butterflies let stage ``k`` see values up to ``k*q``; at the
        largest prime and degree the last twiddle product nears ``2^64``.
        N = 8 and 16 run only the narrow layout, N = 32 crosses into the
        wide one."""
        prime = generate_ntt_primes([MAX_PRIME_BITS], n)[0]
        ntt = get_ntt_context(prime, n)
        rng = np.random.default_rng(n)
        for coeffs in (
            np.full(n, prime - 1, dtype=np.int64),
            rng.integers(0, prime, size=n, dtype=np.int64),
        ):
            forward = ntt.forward(coeffs)
            assert np.array_equal(forward, forward_reference(ntt, coeffs))
            assert np.array_equal(ntt.inverse(coeffs), inverse_reference(ntt, coeffs))
            assert np.array_equal(ntt.inverse(forward), coeffs)

    def test_lazy_bound_guard_rejects_oversized_prime(self):
        # 2^32 - 2^20 + 1 is an NTT prime for N <= 2^19, but 16 * q^2 > 2^64.
        with pytest.raises(ParameterError, match="lazy butterflies"):
            NttContext(2**32 - 2**20 + 1, MAX_POLY_MODULUS_DEGREE)

    def test_edge_vectors(self):
        n = 128
        prime = generate_ntt_primes([25], n)[0]
        ntt = get_ntt_context(prime, n)
        for coeffs in (
            np.zeros(n, dtype=np.int64),
            np.full(n, prime - 1, dtype=np.int64),
            np.eye(1, n, 0, dtype=np.int64)[0],  # X^0
            np.eye(1, n, n - 1, dtype=np.int64)[0],  # X^(N-1)
        ):
            assert np.array_equal(ntt.forward(coeffs), forward_reference(ntt, coeffs))
            assert np.array_equal(ntt.inverse(ntt.forward(coeffs)), coeffs % prime)

    def test_unreduced_and_negative_inputs(self):
        n = 64
        prime = generate_ntt_primes([25], n)[0]
        ntt = get_ntt_context(prime, n)
        rng = np.random.default_rng(3)
        for draw in range(DRAWS):
            coeffs = rng.integers(-(2**40), 2**40, size=n, dtype=np.int64)
            assert np.array_equal(ntt.forward(coeffs), forward_reference(ntt, coeffs))
            assert np.array_equal(ntt.inverse(coeffs), inverse_reference(ntt, coeffs))

    def test_forward_and_inverse_do_not_mutate_input(self):
        n = 1024
        prime = generate_ntt_primes([23], n)[0]
        ntt = get_ntt_context(prime, n)
        coeffs = np.random.default_rng(5).integers(0, prime, size=n, dtype=np.int64)
        before = coeffs.copy()
        ntt.forward(coeffs)
        ntt.inverse(coeffs)
        assert np.array_equal(coeffs, before)

    def test_negacyclic_multiply_matches_schoolbook(self):
        n = 64
        prime = generate_ntt_primes([25], n)[0]
        ntt = get_ntt_context(prime, n)
        rng = np.random.default_rng(7)
        a = rng.integers(0, prime, size=n, dtype=np.int64)
        b = rng.integers(0, prime, size=n, dtype=np.int64)
        want = np.zeros(n, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                index = (i + j) % n
                sign = -1 if i + j >= n else 1
                want[index] = (want[index] + sign * int(a[i]) * int(b[j])) % prime
        assert np.array_equal(negacyclic_product(ntt, a, b), want % prime)


class TestGaloisPermutation:
    @pytest.mark.parametrize("n", [64, 256])
    def test_permutation_matches_coefficient_automorphism(self, n):
        prime = generate_ntt_primes([25], n)[0]
        basis = RnsBasis([prime], n)
        ntt = basis.ntt[0]
        rng = np.random.default_rng(n)
        elements = [pow(5, k, 2 * n) for k in (1, 2, 3, n // 4)] + [2 * n - 1]
        for element in elements:
            perm = galois_ntt_permutation(n, element)
            assert sorted(perm.tolist()) == list(range(n)), "not a permutation"
            for draw in range(DRAWS):
                poly = random_residues(rng, basis)
                via_coeffs = ntt.forward(poly.automorphism(element).residues[0])
                via_perm = ntt.forward(poly.residues[0])[perm]
                assert np.array_equal(via_coeffs, via_perm)


def count_transforms(monkeypatch):
    """Count every ``NttContext.forward`` / ``inverse`` call from now on."""
    counts = {"ntt": 0}
    for name in ("forward", "inverse"):
        original = getattr(NttContext, name)

        def counted(self, values, _original=original):
            counts["ntt"] += 1
            return _original(self, values)

        monkeypatch.setattr(NttContext, name, counted)
    return counts


class TestRnsKernelsAgainstReference:
    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_reduce_mod_matches_percent(self, dtype):
        primes = generate_ntt_primes([20, 26, 30], 16)
        column = np.array(primes, dtype=dtype).reshape(-1, 1)
        rng = np.random.default_rng(17)
        if dtype is np.uint64:
            values = rng.integers(0, 2**63, size=(3, 64), dtype=np.uint64)
            values[:, :4] = [0, 1, 2**64 - 1, 2**63]
        else:
            values = rng.integers(-(2**62), 2**62, size=(3, 64), dtype=np.int64)
            values[:, :4] = [0, -1, -(2**63), 2**63 - 1]
        for divisor in (column, dtype(primes[-1])):
            want = values % divisor
            got = reduce_mod(values.copy(), divisor)
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    def test_add_sub_negate_on_boundary_residues(self):
        n = 16
        basis = RnsBasis(generate_ntt_primes([20, 23, 30], n), n)
        primes = basis.primes_column
        # Every pair of {0, 1, q-1} residues, per prime, across the row.
        edges = np.concatenate([np.zeros_like(primes), np.ones_like(primes), primes - 1], axis=1)
        left = np.repeat(edges, 3, axis=1)
        right = np.tile(edges, (1, 3))
        pad = np.zeros((len(basis), n - left.shape[1]), dtype=np.int64)
        a = RnsPolynomial(basis, np.concatenate([left, pad], axis=1))
        b = RnsPolynomial(basis, np.concatenate([right, pad], axis=1))
        for got, want in (
            (a.add(b), (a.residues + b.residues) % primes),
            (a.sub(b), (a.residues - b.residues) % primes),
            (a.negate(), (-a.residues) % primes),
        ):
            assert got.residues.dtype == np.int64
            assert got.residues.min() >= 0 and (got.residues < primes).all()
            assert np.array_equal(got.residues, want)

    @pytest.mark.parametrize("level_primes", [2, 3, 5])
    def test_divide_and_round_last(self, level_primes):
        n = 128
        primes = generate_ntt_primes([24] * level_primes + [28], n)
        basis = RnsBasis(primes, n)
        rng = np.random.default_rng(level_primes)
        for draw in range(DRAWS):
            poly = random_residues(rng, basis)
            fast = poly.divide_and_round_last()
            slow = divide_and_round_last_reference(poly)
            assert fast.basis == slow.basis
            assert np.array_equal(fast.residues, slow.residues)

    def test_to_int_coefficients(self):
        n = 64
        basis = RnsBasis(generate_ntt_primes([22, 24, 26], n), n)
        rng = np.random.default_rng(11)
        for draw in range(DRAWS):
            poly = random_residues(rng, basis)
            assert poly.to_int_coefficients() == to_int_coefficients_reference(poly)

    def test_roundtrip_through_int_coefficients(self):
        n = 64
        basis = RnsBasis(generate_ntt_primes([22, 24], n), n)
        rng = np.random.default_rng(13)
        poly = random_residues(rng, basis)
        back = RnsPolynomial.from_int_coefficients(basis, poly.to_int_coefficients())
        assert np.array_equal(back.residues, poly.residues)


class TestKeySwitchAgainstReference:
    N = 1024
    SCALE = 2.0**24
    STEPS = (1, 2, 5, 7)

    @pytest.fixture(scope="class", params=[1, 2])
    def scheme(self, request):
        seed = request.param
        context = CkksContext(self.N, [26, 26, 26, 30], enforce_security=False)
        keygen = KeyGenerator(context, seed=seed)
        relin_key = keygen.create_relin_key()
        # STEPS plus the wrapped form of -1 (rotation steps are reduced
        # modulo the slot count before key lookup).
        galois_keys = keygen.create_galois_keys(self.STEPS + (self.N // 2 - 1,))
        return {
            "context": context,
            "encryptor": Encryptor(context, keygen.create_public_key(), seed=seed + 100),
            "decryptor": Decryptor(context, keygen.secret_key),
            "fast": Evaluator(context, relin_key, galois_keys, fast_keyswitch=True),
            "reference": Evaluator(context, relin_key, galois_keys, fast_keyswitch=False),
        }

    def _fresh_cipher(self, scheme, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, scheme["context"].slots)
        return values, scheme["encryptor"].encode_and_encrypt(values, self.SCALE)

    def test_relinearize_is_bit_exact(self, scheme):
        for draw in range(DRAWS):
            _, cipher = self._fresh_cipher(scheme, draw)
            squared = scheme["fast"].multiply(cipher, cipher)
            fast = scheme["fast"].relinearize(squared)
            reference = scheme["reference"].relinearize(squared)
            assert fast.scale == reference.scale and fast.level == reference.level
            for a, b in zip(fast.polys, reference.polys):
                assert np.array_equal(a.residues, b.residues)

    def test_relinearize_bit_exact_at_lower_level(self, scheme):
        _, cipher = self._fresh_cipher(scheme, 99)
        dropped = scheme["fast"].mod_switch_to_next(cipher)
        squared = scheme["fast"].multiply(dropped, dropped)
        fast = scheme["fast"].relinearize(squared)
        reference = scheme["reference"].relinearize(squared)
        for a, b in zip(fast.polys, reference.polys):
            assert np.array_equal(a.residues, b.residues)

    def test_hoisted_rotation_matches_reference_at_noise_level(self, scheme):
        values, cipher = self._fresh_cipher(scheme, 17)
        for step in self.STEPS:
            fast = scheme["fast"].rotate(cipher, step)
            reference = scheme["reference"].rotate(cipher, step)
            expected = np.roll(values, -step)
            got_fast = np.real(scheme["decryptor"].decrypt(fast))
            got_reference = np.real(scheme["decryptor"].decrypt(reference))
            # Both decompositions must decrypt to the rotation; they differ
            # from each other only under the noise floor.
            assert np.max(np.abs(got_fast - expected)) < 1e-2
            assert np.max(np.abs(got_reference - expected)) < 1e-2
            assert np.max(np.abs(got_fast - got_reference)) < 1e-2

    def test_hoisted_rotations_share_one_decomposition(self, scheme):
        """Rotating the same ciphertext twice must reuse the cached digit
        NTTs and stay deterministic (same residues both times)."""
        _, cipher = self._fresh_cipher(scheme, 23)
        first = scheme["fast"].rotate(cipher, 2)
        again = scheme["fast"].rotate(cipher, 2)
        for a, b in zip(first.polys, again.polys):
            assert np.array_equal(a.residues, b.residues)

    def test_negative_and_wrapping_steps(self, scheme):
        values, cipher = self._fresh_cipher(scheme, 31)
        slots = scheme["context"].slots
        for step in (-1, slots + 2):
            fast = scheme["fast"].rotate(cipher, step)
            got = np.real(scheme["decryptor"].decrypt(fast))
            assert np.max(np.abs(got - np.roll(values, -step))) < 1e-2


class TestMultiplyPlainAgainstReference:
    N = 1024
    SCALE = 2.0**24
    PRIMES_BITS = [26, 26, 26, 30]

    @pytest.fixture(scope="class")
    def scheme(self):
        context = CkksContext(self.N, self.PRIMES_BITS, enforce_security=False)
        keygen = KeyGenerator(context, seed=4)
        return {
            "context": context,
            "encryptor": Encryptor(context, keygen.create_public_key(), seed=5),
            "evaluator": Evaluator(context),
        }

    def _plaintexts(self, encryptor, level):
        slots = self.N // 2
        mask = np.tile([1.0, 0.0, 0.0, 1.0], slots // 4)
        return {
            "scalar": encryptor.encode(-0.37, self.SCALE, level=level),
            "mask": encryptor.encode(mask, self.SCALE, level=level),
        }

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_both_forms_are_bit_exact(self, scheme, level):
        rng = np.random.default_rng(level)
        values = rng.uniform(-1.0, 1.0, self.N // 2)
        cipher = scheme["encryptor"].encode_and_encrypt(values, self.SCALE, level=level)
        for kind, plain in self._plaintexts(scheme["encryptor"], level).items():
            scalar, _ = plain.evaluation_form()
            assert scalar == (kind == "scalar")
            # Twice: the second product reuses the cached form.
            for _ in range(2):
                product = scheme["evaluator"].multiply_plain(cipher, plain)
                assert product.scale == cipher.scale * plain.scale
                assert product.level == level
                for got, poly in zip(product.polys, cipher.polys):
                    want = poly.multiply(plain.poly)
                    assert np.array_equal(got.residues, want.residues)

    def test_plaintext_from_other_primes_is_rejected(self, scheme):
        other = CkksContext(self.N, [27, 27, 27, 30], enforce_security=False)
        other_encryptor = Encryptor(
            other, KeyGenerator(other, seed=6).create_public_key(), seed=7
        )
        cipher = scheme["encryptor"].encode_and_encrypt(
            np.ones(self.N // 2), self.SCALE
        )
        for plain in self._plaintexts(other_encryptor, 0).values():
            assert plain.poly.basis != cipher.basis
            with pytest.raises(ParameterError):
                scheme["evaluator"].multiply_plain(cipher, plain)


class TestMultiplyAgainstReference:
    """``Evaluator.multiply`` transforms each operand polynomial once: 7
    transforms per prime (4 forward, 3 inverse), 5 for a square; the result
    matches the tensor product built from ``RnsPolynomial.multiply``."""

    N = 1024
    SCALE = 2.0**24

    @pytest.fixture(scope="class")
    def scheme(self):
        context = CkksContext(self.N, [26, 26, 26, 30], enforce_security=False)
        keygen = KeyGenerator(context, seed=9)
        return Encryptor(context, keygen.create_public_key(), seed=10), Evaluator(context)

    @staticmethod
    def _reference(a, b):
        (a0, a1), (b0, b1) = a.polys, b.polys
        return [a0.multiply(b0), a0.multiply(b1).add(a1.multiply(b0)), a1.multiply(b1)]

    @pytest.mark.parametrize("level", [0, 1])
    def test_bit_exact_with_polynomial_products(self, scheme, level):
        encryptor, evaluator = scheme
        rng = np.random.default_rng(level)
        a, b = (
            encryptor.encode_and_encrypt(rng.uniform(-1, 1, self.N // 2), self.SCALE, level)
            for _ in range(2)
        )
        for left, right in ((a, b), (a, a)):
            product = evaluator.multiply(left, right)
            assert product.scale == left.scale * right.scale
            assert product.level == level
            want = self._reference(left, right)
            assert len(product.polys) == len(want)
            for got, expected in zip(product.polys, want):
                assert np.array_equal(got.residues, expected.residues)

    @pytest.mark.parametrize("level", [0, 2])
    def test_transform_counts(self, scheme, monkeypatch, level):
        encryptor, evaluator = scheme
        a = encryptor.encode_and_encrypt(0.5, self.SCALE, level)
        b = encryptor.encode_and_encrypt(0.25, self.SCALE, level)
        primes = len(a.basis)
        counts = count_transforms(monkeypatch)
        evaluator.multiply(a, b)
        assert counts["ntt"] == 7 * primes
        counts["ntt"] = 0
        evaluator.multiply(a, a)
        assert counts["ntt"] == 5 * primes


class TestStaticKeyOperands:
    """Encrypt and decrypt transform the static key operands once, cached.

    Fresh encryption costs 3 transforms per prime (``u`` forward, two
    inverses) and decryption of a 2-polynomial ciphertext costs 2 (``c1``
    forward, one inverse); the results match the plain ``multiply`` formulas
    bit for bit.
    """

    N = 1024
    SCALE = 2.0**24

    @pytest.fixture(scope="class")
    def scheme(self):
        context = CkksContext(self.N, [26, 26, 26, 30], enforce_security=False)
        keygen = KeyGenerator(context, seed=8)
        return context, keygen.secret_key, keygen.create_public_key()

    @pytest.mark.parametrize("level", [0, 2])
    def test_encrypt_and_decrypt_transform_counts(self, scheme, monkeypatch, level):
        context, secret_key, public_key = scheme
        encryptor = Encryptor(context, public_key, seed=12)
        decryptor = Decryptor(context, secret_key)
        values = np.linspace(-1.0, 1.0, context.slots)
        plain = encryptor.encode(values, self.SCALE, level=level)
        primes = len(plain.poly.basis)
        # Warm the per-basis key caches, then count one steady-state call each.
        decryptor.decrypt_poly(encryptor.encrypt(plain))
        counts = count_transforms(monkeypatch)
        cipher = encryptor.encrypt(plain)
        assert counts["ntt"] == 3 * primes
        counts["ntt"] = 0
        decrypted = decryptor.decrypt(cipher)
        assert counts["ntt"] == 2 * primes
        assert np.max(np.abs(np.real(decrypted) - values)) < 1e-3

    @pytest.mark.parametrize("level", [0, 1])
    def test_encrypt_and_decrypt_match_plain_multiply(self, scheme, level):
        context, secret_key, public_key = scheme
        plain = Encryptor(context, public_key).encode(0.25, self.SCALE, level=level)
        cipher = Encryptor(context, public_key, seed=21).encrypt(plain)
        basis = plain.poly.basis
        sampler = RlweSampler(21)
        u, e0, e1 = sampler.ternary(basis), sampler.error(basis), sampler.error(basis)
        pk_b = context.restrict(public_key.b, basis)
        pk_a = context.restrict(public_key.a, basis)
        assert np.array_equal(
            cipher.polys[0].residues, pk_b.multiply(u).add(e0).add(plain.poly).residues
        )
        assert np.array_equal(cipher.polys[1].residues, pk_a.multiply(u).add(e1).residues)
        s = secret_key.poly_for(basis)
        want = cipher.polys[0].add(cipher.polys[1].multiply(s))
        got = Decryptor(context, secret_key).decrypt_poly(cipher)
        assert np.array_equal(got.residues, want.residues)
        # A 3-polynomial ciphertext adds c2 * s^2.
        c2 = RlweSampler(22).uniform(basis)
        triple = type(cipher)([*cipher.polys, c2], cipher.scale, cipher.level)
        want = want.add(c2.multiply(s.multiply(s)))
        got = Decryptor(context, secret_key).decrypt_poly(triple)
        assert np.array_equal(got.residues, want.residues)


def test_ckks_kernels_use_no_masked_ufuncs():
    """Masked ``where=`` ufuncs were the measured hot spot of the CKKS
    kernels; corrections must stay branch-free (unsigned minima)."""
    offenders = []
    for path in sorted(CKKS_SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and any(kw.arg == "where" for kw in node.keywords):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"where= keyword calls in repro/ckks: {offenders}"


#: Kernels whose reductions must go through ``reduce_mod`` (floor division
#: by a scalar or a prime column), never ``%``: one hardware divide per
#: element was the measured cost of ``%``.
DIVIDE_FREE_KERNELS = {
    "ntt.py": {
        "reduce_mod", "_butterfly", "NttContext._transform", "NttContext._gathered",
        "NttContext.forward", "NttContext.inverse",
    },
    "rns.py": {
        "RnsPolynomial.from_int64_coefficients", "RnsPolynomial.multiply_ntt",
        "RnsPolynomial.divide_and_round_last",
    },
    "evaluator.py": {
        "Evaluator.multiply", "Evaluator.multiply_plain", "Evaluator._key_switch_decomposed",
    },
    "encryptor.py": {"Encryptor.encrypt"},
    "decryptor.py": {"Decryptor.decrypt_poly"},
}


def test_ckks_kernels_reduce_without_percent():
    offenders, found = [], set()
    for filename, names in DIVIDE_FREE_KERNELS.items():
        path = CKKS_SOURCES / filename
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(node, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [
            (method, f"{node.name}.{method.name}")
            for node in tree.body if isinstance(node, ast.ClassDef)
            for method in node.body if isinstance(method, ast.FunctionDef)
        ]
        for node, name in scopes:
            if name not in names:
                continue
            found.add((filename, name))
            for inner in ast.walk(node):
                if isinstance(inner, (ast.BinOp, ast.AugAssign)) and isinstance(inner.op, ast.Mod):
                    offenders.append(f"{filename}:{inner.lineno} in {name}")
    expected = {
        (filename, name) for filename, names in DIVIDE_FREE_KERNELS.items() for name in names
    }
    assert found == expected, f"kernels not found: {sorted(expected - found)}"
    assert not offenders, f"% reductions in CKKS kernels: {offenders}"


def test_profile_splits_ntt_cost_into_count_and_unit_cost():
    from repro.profiling import profile_program

    report = profile_program("sum", repeats=1, top=3)
    # A 10-step rotation tree at N=4096: deterministic for the program.
    assert report["ntt_transforms_per_evaluation"] == 120
    assert report["ms_per_transform"] > 0.0
