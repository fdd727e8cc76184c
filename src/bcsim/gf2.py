"""GF(2) bit-vector algebra: inner products, affine solving, independent sampling.

Vectors are Python ints with a width, and elimination works on those ints
directly; bit index 0 is the leftmost (most significant) position
everywhere, so string, tuple and unsigned-integer orderings all agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True, init=False)
class BitVector:
    """Fixed-length vector over GF(2), index 0 most significant.

    Stored as its unsigned-integer value and width, so equal-width vectors
    order like their bit tuples.
    """

    value: int
    n: int

    def __init__(self, bits: Sequence[int]):
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must all be 0 or 1, got {bits!r}")
            value = (value << 1) | b
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "n", len(bits))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitVector":
        if n < 0 or not 0 <= value < (1 << n):
            raise ValueError(f"value {value} does not fit in {n} bits")
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "n", n)
        return self

    @classmethod
    def parse(cls, text: str) -> "BitVector":
        """Parse an ASCII '0'/'1' string, leftmost character first."""
        return cls([int(ch) for ch in text])

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls.from_int(0, n)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(int(ch) for ch in str(self))

    def to_int(self) -> int:
        return self.value

    def is_zero(self) -> bool:
        return self.value == 0

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return f"{self.value:0{self.n}b}" if self.n else ""

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector.from_int(self.value ^ other.value, self.n)


@dataclass(frozen=True)
class BitMatrix:
    """Row matrix over GF(2); all rows share width ``n``."""

    rows: tuple[BitVector, ...]
    n: int

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.n:
                raise ValueError(
                    f"row width {len(row)} does not match matrix width {self.n}"
                )

    @classmethod
    def from_rows(cls, rows: Iterable[BitVector], n: int | None = None) -> "BitMatrix":
        rows = tuple(rows)
        if n is None:
            if not rows:
                raise ValueError("width n is required for an empty matrix")
            n = len(rows[0])
        return cls(rows, n)

    @property
    def m(self) -> int:
        return len(self.rows)


def dot(h: BitVector, y: BitVector) -> int:
    """Inner product over GF(2): XOR over positions of h_j AND y_j."""
    if len(h) != len(y):
        raise ValueError(f"length mismatch: {len(h)} vs {len(y)}")
    return (h.value & y.value).bit_count() & 1


def rank(H: BitMatrix) -> int:
    """Row rank over GF(2) via Gaussian elimination on packed rows."""
    rows = [row.value for row in H.rows]
    r = 0
    for col in range(H.n):
        bit = 1 << (H.n - 1 - col)
        pivot = next((k for k in range(r, len(rows)) if rows[k] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k] & bit:
                rows[k] ^= rows[r]
        r += 1
    return r


def solve_affine(H: BitMatrix, r: BitVector) -> list[BitVector]:
    """All solutions y of H @ y = r, ascending by unsigned-integer value.

    Returns 2^(n - rank(H)) vectors when the system is consistent and an
    empty list when it is not.
    """
    n, m = H.n, H.m
    if m != len(r):
        raise ValueError(f"system shape mismatch: {m} rows vs {len(r)} rhs bits")
    if m > n:
        raise ValueError(f"overdetermined system not supported: m={m} > n={n}")
    # Augmented packed rows: hash bits at positions n..1, rhs bit at position 0.
    # basis maps each pivot position to its row, fully reduced: the pivot
    # is the row's leading bit and no other row has it set; pivots has
    # every pivot bit set.
    basis: dict[int, int] = {}
    pivots = 0
    for i, row in enumerate(H.rows):
        red = (row.value << 1) | ((r.value >> (m - 1 - i)) & 1)
        hit = red & pivots
        while hit:
            pivot = hit.bit_length() - 1
            red ^= basis[pivot]
            hit ^= 1 << pivot
        if red == 1:
            return []
        if red:
            pivot = red.bit_length() - 1
            bit = 1 << pivot
            for other, orow in basis.items():
                if orow & bit:
                    basis[other] = orow ^ red
            basis[pivot] = red
            pivots |= bit
    # Solution bit j sits at augmented position j + 1.
    base = 0
    for pivot, prow in basis.items():
        base |= (prow & 1) << (pivot - 1)
    solutions = [base]
    for free in range(1, n + 1):
        if free in basis:
            continue
        vec = 1 << (free - 1)
        for pivot, prow in basis.items():
            if (prow >> free) & 1:
                vec |= 1 << (pivot - 1)
        solutions += [v ^ vec for v in solutions]
    solutions.sort()
    return [BitVector.from_int(v, n) for v in solutions]


def sample_independent_rows(m: int, n: int, rng: Random) -> BitMatrix:
    """Sample an m-by-n matrix of full row rank, resampling dependent rows."""
    if m > n:
        raise ValueError(f"cannot draw {m} independent rows of width {n}")
    rows: list[BitVector] = []
    basis: dict[int, int] = {}  # leading-bit position -> reduced row
    while len(rows) < m:
        cand = rng.getrandbits(n)
        red = cand
        while red:
            high = red.bit_length() - 1
            if high not in basis:
                basis[high] = red
                rows.append(BitVector.from_int(cand, n))
                break
            red ^= basis[high]
    return BitMatrix.from_rows(rows, n)
