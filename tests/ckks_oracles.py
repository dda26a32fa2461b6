"""Reference oracles for the optimized CKKS kernels (test-only).

Each function is the plain, obviously-correct version of a kernel in
``repro.ckks``: full ``%`` reductions, natural memory layout, tables derived
here from the context's roots with Python ``pow`` rather than read from the
kernel's own precomputed tables.  ``tests/test_kernel_properties.py`` pins the
production kernels to them bit for bit.
"""

from functools import lru_cache
from typing import List

import numpy as np

from repro.ckks.numth import mod_inverse
from repro.ckks.rns import RnsPolynomial


@lru_cache(maxsize=None)
def _powers(root: int, count: int, prime: int) -> np.ndarray:
    return np.array([pow(root, i, prime) for i in range(count)], dtype=np.int64)


def _bit_reversed(values: np.ndarray) -> np.ndarray:
    n = values.size
    bits = n.bit_length() - 1
    order = [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(n)]
    return values[order]


def transform_reference(values: np.ndarray, prime: int, root: int) -> np.ndarray:
    """Iterative radix-2 Cooley-Tukey NTT with root ``root`` of order ``N``."""
    q = prime
    n = values.size
    data = _bit_reversed(values.astype(np.int64) % q)
    length = 2
    while length <= n:
        half = length // 2
        twiddles = _powers(pow(root, n // length, q), half, q)
        blocks = data.reshape(-1, length)
        low = blocks[:, :half].copy()
        high = (blocks[:, half:] * twiddles[np.newaxis, :]) % q
        blocks[:, :half] = (low + high) % q
        blocks[:, half:] = (low - high) % q
        data = blocks.reshape(-1)
        length *= 2
    return data


def forward_reference(ntt, coeffs: np.ndarray) -> np.ndarray:
    """Negacyclic forward NTT: twist by powers of ``psi``, then transform."""
    q = ntt.prime
    twisted = (coeffs.astype(np.int64) % q) * _powers(ntt.psi, ntt.n, q) % q
    return transform_reference(twisted, q, ntt.psi * ntt.psi % q)


def inverse_reference(ntt, values: np.ndarray) -> np.ndarray:
    """Inverse negacyclic NTT: transform with ``omega^-1``, scale, untwist."""
    q = ntt.prime
    omega_inv = mod_inverse(ntt.psi * ntt.psi % q, q)
    data = transform_reference(values, q, omega_inv)
    data = data * mod_inverse(ntt.n, q) % q
    return data * _powers(mod_inverse(ntt.psi, q), ntt.n, q) % q


def negacyclic_product(ntt, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Negacyclic product of two coefficient vectors through ``ntt``'s transforms."""
    return ntt.inverse(ntt.forward(a) * ntt.forward(b))


def divide_and_round_last_reference(poly: RnsPolynomial) -> RnsPolynomial:
    """Row-at-a-time rescale that re-derives the inverses per call."""
    last_prime = poly.basis.primes[-1]
    last_row = poly.residues[-1]
    centered = np.where(last_row > last_prime // 2, last_row - last_prime, last_row)
    new_basis = poly.basis.drop_last()
    rows = []
    for index, prime in enumerate(new_basis.primes):
        inv = mod_inverse(last_prime, prime)
        diff = (poly.residues[index] - centered) % prime
        rows.append(diff * inv % prime)
    return RnsPolynomial(new_basis, np.stack(rows))


def to_int_coefficients_reference(poly: RnsPolynomial) -> List[int]:
    """Pure-Python CRT composition into centered integer coefficients."""
    modulus = poly.basis.modulus()
    half = modulus // 2
    n = poly.basis.poly_modulus_degree
    composed = [0] * n
    for index, prime in enumerate(poly.basis.primes):
        quotient = modulus // prime
        factor = (quotient * mod_inverse(quotient, prime)) % modulus
        row = poly.residues[index]
        for position in range(n):
            composed[position] = (composed[position] + int(row[position]) * factor) % modulus
    return [c - modulus if c > half else c for c in composed]
