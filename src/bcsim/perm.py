"""Toy bijection on n-bit ints with a cheap inverse.

An affine map x -> (a*x + c) mod 2^n with odd a is a permutation of the
n-bit ints 0 .. 2^n - 1; a caller holding an announced ``BitVector``
passes its ``value``. Hardness of inversion is irrelevant here; what
matters is that the forward map, and for the attacker also the inverse,
fit in a small reversible circuit.
"""
from __future__ import annotations

from dataclasses import dataclass

ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class ToyPermutation:
    n: int
    a: int = 5
    c: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("bit width must be positive")
        # bit_length, not 1 << n: a huge n must not allocate a 2^n-sized int.
        if not (self.a >= 1 and self.a.bit_length() <= self.n):
            raise ValueError(f"multiplier a={self.a} outside [1, 2^{self.n})")
        if self.a % 2 == 0:
            raise ValueError(f"multiplier a={self.a} must be odd to be invertible mod 2^n")
        if not (self.c >= 0 and self.c.bit_length() <= self.n):
            raise ValueError(f"constant c={self.c} outside [0, 2^{self.n})")

    @property
    def mask(self) -> int:
        return (1 << self.n) - 1

    def forward_int(self, x: int) -> int:
        return (self.a * x + self.c) & self.mask

    def inverse_int(self, y: int) -> int:
        a_inv = pow(self.a, -1, 1 << self.n)
        return (a_inv * (y - self.c)) & self.mask

    def verify_bijection(self) -> bool:
        """Enumerate the image and check it has no duplicates (n <= 20)."""
        if self.n > ENUMERATION_LIMIT:
            raise ValueError(f"width {self.n} too large for enumeration")
        size = 1 << self.n
        return len({self.forward_int(x) for x in range(size)}) == size

