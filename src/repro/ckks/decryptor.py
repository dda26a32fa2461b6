"""CKKS decryption and decoding."""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .ciphertext import Ciphertext
from .context import CkksContext
from .keys import SecretKey
from .ntt import reduce_mod
from .rns import RnsPolynomial


class Decryptor:
    """Decrypts ciphertexts with the secret key and decodes them to vectors."""

    def __init__(self, context: CkksContext, secret_key: SecretKey) -> None:
        self.context = context
        self.secret_key = secret_key

    def decrypt_poly(self, ciphertext: Ciphertext):
        """Return the raw plaintext polynomial ``sum_i c_i s^i`` (RNS form)."""
        if ciphertext.size < 2:
            raise ExecutionError("ciphertext is transparent or malformed")
        basis = ciphertext.basis
        primes = basis.primes_column
        s_rows = self.secret_key.ntt_for(basis)
        # sum_{i>=1} c_i s^i accumulates in the NTT domain: one forward
        # transform per c_i and a single inverse, which reduces the last term.
        s_power = s_rows
        total = ciphertext.polys[1].ntt_rows() * s_rows
        for poly in ciphertext.polys[2:]:
            s_power = reduce_mod(s_power * s_rows, primes)
            reduce_mod(total, primes)
            total += poly.ntt_rows() * s_power
        return ciphertext.polys[0].add(RnsPolynomial.from_ntt_rows(basis, total))

    def decrypt(self, ciphertext: Ciphertext) -> np.ndarray:
        """Decrypt and decode to a real-valued slot vector."""
        message = self.decrypt_poly(ciphertext)
        coefficients = message.to_int_coefficients()
        return self.context.encoder.decode_real(coefficients, ciphertext.scale)
