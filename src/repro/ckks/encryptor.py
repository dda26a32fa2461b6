"""CKKS encoding + encryption front door."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ParameterError
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext
from .keys import PublicKey
from .rns import RnsBasis, RnsPolynomial
from .sampling import RlweSampler


class Encryptor:
    """Encodes vectors into plaintexts and encrypts them under a public key."""

    def __init__(
        self,
        context: CkksContext,
        public_key: PublicKey,
        seed: Optional[int] = None,
    ) -> None:
        self.context = context
        self.public_key = public_key
        self.sampler = RlweSampler(seed)
        self._public_rows: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}

    # -- encoding ------------------------------------------------------------------
    def encode(
        self,
        values: Union[float, Sequence[float], np.ndarray],
        scale: float,
        level: int = 0,
    ) -> Plaintext:
        """Encode a vector (or scalar) at the given scale and level."""
        coefficients = self.context.encoder.encode(values, scale)
        basis = self.context.data_basis(level)
        poly = RnsPolynomial.from_int64_coefficients(basis, coefficients)
        return Plaintext(poly=poly, scale=float(scale), level=int(level))

    # -- encryption -----------------------------------------------------------------
    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt an encoded plaintext with the public key."""
        basis = self.context.data_basis(plaintext.level)
        if plaintext.poly.basis != basis:
            raise ParameterError("plaintext level does not match its polynomial basis")
        pk_b, pk_a = self._public_key_rows(basis)
        u = self.sampler.ternary(basis)
        e0 = self.sampler.error(basis)
        e1 = self.sampler.error(basis)
        # One transform of u serves both products, which the inverses reduce.
        u_rows = u.ntt_rows()
        c0 = RnsPolynomial.from_ntt_rows(basis, pk_b * u_rows)
        c0 = c0.add(e0).add(plaintext.poly)
        c1 = RnsPolynomial.from_ntt_rows(basis, pk_a * u_rows).add(e1)
        return Ciphertext(polys=[c0, c1], scale=plaintext.scale, level=plaintext.level)

    def _public_key_rows(self, basis: RnsBasis) -> Tuple[np.ndarray, np.ndarray]:
        """NTT rows of the public key ``(b, a)`` restricted to ``basis`` (cached)."""
        key = tuple(basis.primes)
        rows = self._public_rows.get(key)
        if rows is None:
            rows = tuple(
                self.context.restrict(poly, basis).ntt_rows()
                for poly in (self.public_key.b, self.public_key.a)
            )
            self._public_rows[key] = rows
        return rows

    def encode_and_encrypt(
        self,
        values: Union[float, Sequence[float], np.ndarray],
        scale: float,
        level: int = 0,
    ) -> Ciphertext:
        """Convenience: encode then encrypt."""
        return self.encrypt(self.encode(values, scale, level))
