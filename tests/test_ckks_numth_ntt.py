"""Tests for the number theory and NTT layers of the CKKS substrate."""

import numpy as np
import pytest
from ckks_oracles import negacyclic_product

from repro.ckks.numth import find_primitive_root, generate_ntt_primes, is_prime, mod_inverse
from repro.ckks.ntt import NttContext, get_ntt_context
from repro.errors import ParameterError


class TestPrimality:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 7919, 104729, 998244353, 2147483647])
    def test_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("n", [0, 1, 4, 100, 7917, 998244354, 2**30])
    def test_composites(self, n):
        assert not is_prime(n)


class TestNttPrimes:
    def test_generated_primes_are_ntt_friendly(self):
        primes = generate_ntt_primes([30, 30, 25], 2048)
        assert len(primes) == 3
        assert len(set(primes)) == 3
        for bits, prime in zip([30, 30, 25], primes):
            assert is_prime(prime)
            assert prime % (2 * 2048) == 1
            assert abs(np.log2(prime) - bits) < 1.0

    def test_primes_close_to_power_of_two(self):
        (prime,) = generate_ntt_primes([25], 1024)
        assert abs(prime - 2**25) < 64 * 2048

    def test_unsupported_bit_size_rejected(self):
        with pytest.raises(ParameterError):
            generate_ntt_primes([40], 1024)
        with pytest.raises(ParameterError):
            generate_ntt_primes([1], 1024)

    def test_mod_inverse(self):
        prime = generate_ntt_primes([25], 1024)[0]
        for value in (2, 12345, prime - 1):
            assert (value * mod_inverse(value, prime)) % prime == 1

    def test_primitive_root_order(self):
        prime = generate_ntt_primes([25], 1024)[0]
        root = find_primitive_root(2048, prime)
        assert pow(root, 2048, prime) == 1
        assert pow(root, 1024, prime) != 1


class TestNtt:
    @pytest.fixture
    def context(self) -> NttContext:
        prime = generate_ntt_primes([25], 256)[0]
        return get_ntt_context(prime, 256)

    def test_forward_inverse_roundtrip(self, context):
        rng = np.random.default_rng(0)
        coeffs = rng.integers(0, context.prime, context.n, dtype=np.int64)
        np.testing.assert_array_equal(context.inverse(context.forward(coeffs)), coeffs)

    def test_multiplication_matches_schoolbook_negacyclic(self, context):
        rng = np.random.default_rng(1)
        n, q = context.n, context.prime
        a = rng.integers(0, 50, n, dtype=np.int64)
        b = rng.integers(0, 50, n, dtype=np.int64)
        expected = np.zeros(n, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                index = i + j
                value = a[i] * b[j]
                if index >= n:
                    expected[index - n] = (expected[index - n] - value) % q
                else:
                    expected[index] = (expected[index] + value) % q
        np.testing.assert_array_equal(negacyclic_product(context, a, b), expected)

    def test_multiplication_by_one(self, context):
        rng = np.random.default_rng(2)
        a = rng.integers(0, context.prime, context.n, dtype=np.int64)
        one = np.zeros(context.n, dtype=np.int64)
        one[0] = 1
        np.testing.assert_array_equal(negacyclic_product(context, a, one), a)

    def test_context_caching(self):
        prime = generate_ntt_primes([25], 512)[0]
        assert get_ntt_context(prime, 512) is get_ntt_context(prime, 512)
