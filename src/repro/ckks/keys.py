"""Key material and key generation for the RNS-CKKS scheme.

Key switching uses the "special prime" (hybrid) technique: switching keys are
generated modulo ``Q * P`` where ``P`` is the special prime, the decomposition
digits are the per-prime residues of the polynomial being switched, and the
final result is divided by ``P`` (with rounding), which keeps the switching
noise small relative to the scale.

The same :class:`KeySwitchingKey` structure backs relinearization keys (which
switch from ``s^2`` to ``s``) and Galois keys (which switch from ``s(X^g)`` to
``s``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..errors import ParameterError
from .context import CkksContext
from .ntt import reduce_mod
from .rns import RnsBasis, RnsPolynomial
from .sampling import RlweSampler


@dataclass
class SecretKey:
    """Ternary secret key, stored as raw coefficients plus per-basis caches."""

    coefficients: np.ndarray
    _cache: Dict[Tuple[int, ...], RnsPolynomial] = field(default_factory=dict, repr=False)
    _ntt_cache: Dict[Tuple[int, ...], np.ndarray] = field(default_factory=dict, repr=False)

    def poly_for(self, basis: RnsBasis) -> RnsPolynomial:
        """The secret key reduced into the given RNS basis (cached)."""
        key = tuple(basis.primes)
        poly = self._cache.get(key)
        if poly is None:
            poly = RnsPolynomial.from_int64_coefficients(basis, self.coefficients)
            self._cache[key] = poly
        return poly

    def ntt_for(self, basis: RnsBasis) -> np.ndarray:
        """:meth:`RnsPolynomial.ntt_rows` of :meth:`poly_for` (cached)."""
        key = tuple(basis.primes)
        rows = self._ntt_cache.get(key)
        if rows is None:
            rows = self.poly_for(basis).ntt_rows()
            self._ntt_cache[key] = rows
        return rows


@dataclass
class PublicKey:
    """RLWE public key ``(b, a) = (-(a*s + e), a)`` over the level-0 data basis."""

    b: RnsPolynomial
    a: RnsPolynomial


@dataclass
class KeySwitchingKey:
    """Switching key from some key ``s'`` to the secret key ``s``.

    ``pairs[prime] = (b_j, a_j)`` over the level-0 key basis (data primes plus
    the special prime), one pair per consumable prime ``q_j``.
    """

    pairs: Dict[int, Tuple[RnsPolynomial, RnsPolynomial]]


@dataclass
class RelinearizationKey:
    """Key switching key from ``s^2`` to ``s``."""

    key: KeySwitchingKey


@dataclass
class GaloisKeys:
    """Key switching keys from ``s(X^g)`` to ``s``, one per Galois element."""

    keys: Dict[int, KeySwitchingKey] = field(default_factory=dict)

    def key_for(self, galois_element: int) -> KeySwitchingKey:
        key = self.keys.get(int(galois_element))
        if key is None:
            raise ParameterError(
                f"no Galois key was generated for element {galois_element}; "
                "regenerate keys with the required rotation steps"
            )
        return key


class KeyGenerator:
    """Generates secret, public, relinearization, and Galois keys."""

    def __init__(self, context: CkksContext, seed: Optional[int] = None) -> None:
        self.context = context
        self.sampler = RlweSampler(seed)
        self.secret_key = SecretKey(self.sampler.ternary_coefficients(context.poly_modulus_degree))

    # -- public key -----------------------------------------------------------------
    def create_public_key(self) -> PublicKey:
        basis = self.context.data_basis(0)
        s_rows = self.secret_key.ntt_for(basis)
        a = self.sampler.uniform(basis)
        e = self.sampler.error(basis)
        b = a.multiply_ntt(s_rows).add(e).negate()
        return PublicKey(b=b, a=a)

    # -- key switching keys ------------------------------------------------------------
    def _create_keyswitch_key(self, target: RnsPolynomial) -> KeySwitchingKey:
        """Create a switching key from the key ``target`` (over the key basis) to ``s``."""
        context = self.context
        key_basis = context.key_basis(0)
        s_rows = self.secret_key.ntt_for(key_basis)
        special = context.special_prime
        pairs: Dict[int, Tuple[RnsPolynomial, RnsPolynomial]] = {}
        prime_rows = {prime: i for i, prime in enumerate(key_basis.primes)}
        for q_j in context.consumable_primes:
            a_j = self.sampler.uniform(key_basis)
            e_j = self.sampler.error(key_basis)
            w = RnsPolynomial.zero(key_basis)
            row = prime_rows[q_j]
            w.residues[row] = reduce_mod(target.residues[row] * (special % q_j), q_j)
            b_j = w.sub(a_j.multiply_ntt(s_rows)).sub(e_j)
            pairs[q_j] = (b_j, a_j)
        return KeySwitchingKey(pairs)

    def create_relin_key(self) -> RelinearizationKey:
        """Relinearization key: switches ``s^2`` back to ``s``."""
        key_basis = self.context.key_basis(0)
        s = self.secret_key.poly_for(key_basis)
        s_squared = s.multiply_ntt(self.secret_key.ntt_for(key_basis))
        return RelinearizationKey(self._create_keyswitch_key(s_squared))

    def create_galois_keys(self, rotation_steps: Iterable[int]) -> GaloisKeys:
        """Galois keys for the given left-rotation step counts."""
        keys = GaloisKeys()
        key_basis = self.context.key_basis(0)
        s = self.secret_key.poly_for(key_basis)
        for step in sorted({int(s_) % self.context.slots for s_ in rotation_steps}):
            if step == 0:
                continue
            element = self.context.galois_element_for_step(step)
            rotated_s = s.automorphism(element)
            keys.keys[element] = self._create_keyswitch_key(rotated_s)
        return keys
