"""Ciphertext and plaintext containers for the CKKS scheme."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .rns import RnsPolynomial


@dataclass
class Plaintext:
    """An encoded plaintext polynomial with its scale and level."""

    poly: RnsPolynomial
    scale: float
    level: int
    _evaluation_form: Optional[Tuple[bool, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def poly_modulus_degree(self) -> int:
        return self.poly.basis.poly_modulus_degree

    def evaluation_form(self) -> Tuple[bool, np.ndarray]:
        """``(is_scalar, rows)``: the form :meth:`Evaluator.multiply_plain` consumes.

        A constant polynomial (every coefficient past index 0 zero) yields its
        residues as an ``(L, 1)`` column for a pointwise scalar product; any
        other plaintext yields its forward NTT rows.  Computed once and cached
        on the plaintext, so ``poly`` must not be mutated afterwards.
        """
        if self._evaluation_form is None:
            residues = self.poly.residues
            if not residues[:, 1:].any():
                self._evaluation_form = (True, residues[:, :1].copy())
            else:
                self._evaluation_form = (False, self.poly.ntt_rows())
        return self._evaluation_form


@dataclass
class Ciphertext:
    """A CKKS ciphertext: two or more polynomials plus scale and level.

    ``polys[i]`` is the coefficient of ``s^i`` in the decryption equation
    ``m + e = sum_i polys[i] * s^i (mod Q_level)``.
    """

    polys: List[RnsPolynomial] = field(default_factory=list)
    scale: float = 1.0
    level: int = 0

    @property
    def size(self) -> int:
        """Number of polynomials (2 for fresh or relinearized ciphertexts)."""
        return len(self.polys)

    @property
    def basis(self):
        return self.polys[0].basis

    def copy(self) -> "Ciphertext":
        return Ciphertext([p.copy() for p in self.polys], self.scale, self.level)
