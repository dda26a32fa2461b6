"""Negacyclic Number-Theoretic Transforms over word-sized primes.

Polynomial multiplication in the ring ``Z_q[X] / (X^N + 1)`` is performed via
the negacyclic NTT: coefficients are pre-twisted by powers of a primitive
``2N``-th root of unity ``psi``, transformed with a radix-2 NTT of length
``N`` (whose root is ``psi^2``), multiplied point-wise, inverse-transformed,
and post-twisted by powers of ``psi^{-1}``.

The butterflies run vectorized over ``uint64`` and reduce lazily (Harvey,
"Faster arithmetic for number-theoretic transforms", 2014): only the twiddle
product is reduced, each stage lets its outputs grow by at most ``q``, and the
transform reduces once after the last stage.  :class:`NttContext` checks that
the largest product the schedule forms fits in 64 bits.  Every reduction is
:func:`reduce_mod`, which floor-divides instead of taking ``%``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ParameterError
from .numth import find_primitive_root, mod_inverse


#: Butterfly stages with fewer than this many pairs per block run on a
#: transposed ``(16, N/16)`` copy, so each ufunc covers whole contiguous rows
#: instead of an inner loop of 1-8 elements.
_NARROW = 16


def reduce_mod(x: np.ndarray, q) -> np.ndarray:
    """Reduce ``x`` modulo ``q`` in place and return it: ``x - (x // q) * q``.

    ``q`` is a scalar or an ``(L, 1)`` column of primes.  numpy floor-divides
    by such a divisor with a multiply and a shift (libdivide), while ``%``
    issues one hardware divide per element, several times slower.  Floor
    division keeps ``%``'s result for negative ``int64`` too: ``[0, q)``.
    """
    quotient = x // q
    quotient *= q
    x -= quotient
    return x


def _butterfly(low: np.ndarray, high: np.ndarray, twiddles, q: np.uint64) -> None:
    """In-place lazy Cooley-Tukey butterfly on ``uint64`` views.

    ``low`` becomes ``low + w*high`` and ``high`` becomes ``low - w*high + q``.
    Only the product ``w*high`` is reduced, into ``[0, q)``, so inputs below
    ``k*q`` give outputs below ``(k+1)*q``; the ``+ q`` keeps the difference
    from wrapping below zero.  The product is a fresh contiguous array, so
    its reduction runs on contiguous memory rather than on the strided views.
    """
    product = high if twiddles is None else reduce_mod(high * twiddles, q)
    diff = low - product
    low += product
    np.add(diff, q, out=high)


class NttContext:
    """Precomputed twiddle factors for one (prime, N) pair.

    Tables are ``uint64``.  The input to butterfly stage ``k`` (from 1) is
    below ``k*q``, and its twiddle product below ``k*q*(q-1)``, so the prime
    must satisfy ``log2(N) * q * (q-1) < 2^64``; with primes of at most 30
    bits that holds up to ``N = 2^16``.  :meth:`forward` and :meth:`inverse`
    accept any ``int64`` row and return reduced ``int64``.
    """

    def __init__(self, prime: int, poly_modulus_degree: int) -> None:
        n = int(poly_modulus_degree)
        if n & (n - 1):
            raise ValueError("polynomial degree must be a power of two")
        self.prime = int(prime)
        self.n = n
        if (n.bit_length() - 1) * self.prime * (self.prime - 1) >= 1 << 64:
            raise ParameterError(
                f"prime {self.prime} is too large for lazy butterflies at N={n}: "
                "log2(N) * q * (q - 1) must stay below 2^64"
            )
        self.psi = find_primitive_root(2 * n, self.prime)
        self.psi_inv = mod_inverse(self.psi, self.prime)
        self.omega = (self.psi * self.psi) % self.prime
        self.omega_inv = mod_inverse(self.omega, self.prime)
        self.n_inv = mod_inverse(n, self.prime)

        q = self.prime
        self._q = np.uint64(q)
        self._rows = min(_NARROW, n)
        # One gather both bit-reverses the input and lays it out transposed
        # as (rows, N/rows) for the narrow stages.
        self._gather = _bit_reverse_indices(n).reshape(-1, self._rows).T.reshape(-1)
        psi_powers = np.array([pow(self.psi, i, q) for i in range(n)], dtype=np.uint64)
        self._forward_twist = psi_powers[self._gather]
        # The inverse's 1/N scaling is folded into its post-twist.
        self._inverse_twist = np.array(
            [pow(self.psi_inv, i, q) * self.n_inv % q for i in range(n)], dtype=np.uint64
        )
        self._forward_stages = self._stage_twiddles(self.omega)
        self._inverse_stages = self._stage_twiddles(self.omega_inv)

    def _stage_twiddles(self, root: int) -> List[Optional[np.ndarray]]:
        """Twiddles per stage (length 2, 4, ..., N); narrow ones as columns.

        The length-2 stage multiplies by ``root^0 = 1`` and gets ``None``.
        """
        stages: List[Optional[np.ndarray]] = [None]
        length = 4
        while length <= self.n:
            step_root = pow(root, self.n // length, self.prime)
            twiddles = np.array(
                [pow(step_root, i, self.prime) for i in range(length // 2)], dtype=np.uint64
            )
            stages.append(twiddles[:, np.newaxis] if length <= self._rows else twiddles)
            length *= 2
        return stages

    # -- core transforms ---------------------------------------------------------
    def _transform(self, data: np.ndarray, stages: List[Optional[np.ndarray]]) -> np.ndarray:
        """Radix-2 lazy butterflies over gathered, reduced ``uint64`` input.

        ``data`` is the ``take(self._gather)`` of the input; the result is a
        flat natural-order ``uint64`` array, reduced once after the last stage.
        """
        q, rows = self._q, self._rows
        narrow = rows.bit_length() - 1  # stages whose blocks fit in one column
        data = data.reshape(rows, -1)
        for index, twiddles in enumerate(stages[:narrow]):
            length = 2 << index
            blocks = data.reshape(rows // length, length, -1)
            _butterfly(blocks[:, : length // 2], blocks[:, length // 2 :], twiddles, q)
        data = data.T.reshape(-1)
        for index, twiddles in enumerate(stages[narrow:], start=narrow):
            length = 2 << index
            blocks = data.reshape(-1, length)
            _butterfly(blocks[:, : length // 2], blocks[:, length // 2 :], twiddles, q)
        return reduce_mod(data, q)

    def _gathered(self, values: np.ndarray) -> np.ndarray:
        """Reduced ``uint64`` copy of ``values`` in the butterflies' input order."""
        data = np.asarray(values, dtype=np.int64).take(self._gather)
        return reduce_mod(data, self.prime).view(np.uint64)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT of a length-N coefficient vector."""
        data = self._gathered(coeffs)
        data *= self._forward_twist
        reduce_mod(data, self._q)
        return self._transform(data, self._forward_stages).view(np.int64)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT back to the coefficient domain."""
        data = self._transform(self._gathered(values), self._inverse_stages)
        data *= self._inverse_twist
        return reduce_mod(data, self._q).view(np.int64)


_BIT_REVERSE_CACHE: Dict[int, np.ndarray] = {}


def _bit_reverse_indices(n: int) -> np.ndarray:
    cached = _BIT_REVERSE_CACHE.get(n)
    if cached is not None:
        return cached
    bits = n.bit_length() - 1
    indices = np.arange(n, dtype=np.int64)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    _BIT_REVERSE_CACHE[n] = reversed_indices
    return reversed_indices


_GALOIS_NTT_PERM_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def galois_ntt_permutation(n: int, galois_element: int) -> np.ndarray:
    """Index permutation realizing ``X -> X^g`` on forward-NTT values.

    Slot ``k`` of the forward negacyclic NTT holds the evaluation at
    ``psi^(2k+1)``, so the automorphism maps slot ``k`` to the slot holding
    ``psi^((2k+1)g mod 2n)``; the exponent stays odd because ``g`` is odd, and
    ``perm[k] = ((2k+1)g mod 2n - 1) / 2``.  Applying ``values[perm]`` to
    NTT-domain data is therefore bit-exact with transforming the
    coefficient-domain automorphism — no sign flips, no extra transforms.
    """
    g = int(galois_element) % (2 * n)
    key = (int(n), g)
    cached = _GALOIS_NTT_PERM_CACHE.get(key)
    if cached is None:
        odd = (2 * np.arange(n, dtype=np.int64) + 1) * g % (2 * n)
        cached = (odd - 1) // 2
        _GALOIS_NTT_PERM_CACHE[key] = cached
    return cached


_NTT_CACHE: Dict[Tuple[int, int], NttContext] = {}


def get_ntt_context(prime: int, poly_modulus_degree: int) -> NttContext:
    """Return a cached :class:`NttContext` for the (prime, N) pair."""
    key = (int(prime), int(poly_modulus_degree))
    context = _NTT_CACHE.get(key)
    if context is None:
        context = NttContext(prime, poly_modulus_degree)
        _NTT_CACHE[key] = context
    return context
