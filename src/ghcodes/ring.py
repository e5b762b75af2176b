"""The chain ring Z_{p^s}.

Residues are plain numpy arrays with entries in [0, p^s); the functions
that take them from a caller receive the ring as a ``RingParams``
argument and check the range there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

_WORD_LIMIT = 2**63  # moduli must stay addressable in a signed 64-bit word


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for single-digit bases."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingParams:
    """The chain ring Z_{p^s} for a prime p and exponent s >= 1."""

    p: int
    s: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"p must be prime, got {self.p}")
        if self.s < 1:
            raise InputError(f"s must be >= 1, got {self.s}")
        if self.p**self.s >= _WORD_LIMIT:
            raise InputError(f"p^s = {self.p}^{self.s} exceeds the native word")

    @property
    def modulus(self) -> int:
        return self.p**self.s

    def dtype(self) -> np.dtype:
        """Smallest unsigned dtype holding residues mod p^s."""
        m = self.modulus - 1
        for dt in (np.uint8, np.uint16, np.uint32):
            if m <= np.iinfo(dt).max:
                return np.dtype(dt)
        return np.dtype(np.uint64)
