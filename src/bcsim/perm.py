"""Toy bijection on n-bit ints with a cheap inverse.

An affine map x -> (a*x + c) mod 2^n with odd a is a permutation of the
n-bit ints 0 .. 2^n - 1; a caller holding an announced ``BitVector``
passes its ``value``. Hardness of inversion is irrelevant here; what
matters is that the forward map, and for the attacker also the inverse,
fit in a small reversible circuit.

A trial asks for its scenario's permutation once and a novy attack
inverts through it four times, so ``shared_permutation`` keeps one
validated instance per (n, a, c), and each instance computes its inverse
multiplier once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache


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

    @cached_property
    def mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _a_inv(self) -> int:
        return pow(self.a, -1, 1 << self.n)

    def forward_int(self, x: int) -> int:
        return (self.a * x + self.c) & self.mask

    def inverse_int(self, y: int) -> int:
        return (self._a_inv * (y - self.c)) & self.mask


@lru_cache(maxsize=64)
def shared_permutation(n: int, a: int, c: int) -> ToyPermutation:
    """One ToyPermutation(n, a, c) per triple, built and validated on first
    use. lru_cache keeps no exception, so an invalid triple raises
    ValueError on every call."""
    return ToyPermutation(n, a, c)
