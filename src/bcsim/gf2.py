"""GF(2) bit-vector algebra: inner products, affine solving, independent sampling.

A ``BitVector`` is the wire form of a bit string: every string a party
announces is one, from the moment it is drawn. Every other string is a
plain int, read with a width n, and ``dot`` takes ints. Independence,
rank, solving and sampling all reduce those ints through one incremental
``Echelon``. ``solve_affine`` over a ``BitMatrix`` is the same solve in
matrix form; nothing in the package calls it, but the benchmark's tracer
names both. Bit index 0 is the leftmost (most significant) position
everywhere, so string, tuple and unsigned-integer orderings all agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable


# The widest BitVector; engine.MAX_N, the widest config of every role, is set from it.
MAX_WIDTH = 1024


def _decimal(v: int) -> str:
    """v in decimal or, past the int-to-str digit limit, by its sign and bit length."""
    try:
        return str(v)
    except ValueError:
        return f"a {'negative ' if v < 0 else ''}{v.bit_length()}-bit int"


@dataclass(frozen=True, order=True, init=False, slots=True)
class BitVector:
    """Fixed-length vector over GF(2), index 0 most significant.

    Stored as its unsigned-integer value and width, so equal-width vectors
    order like their bit tuples. Both are int slots, written once through
    their slot descriptors: a frozen dataclass refuses ``setattr``.
    """

    value: int
    n: int

    def __init__(self, *args, **kwargs):  # from_int, copy and pickle build through __new__
        raise TypeError("use BitVector.from_int(value, n) or BitVector.parse(text)")

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitVector":
        """The n-bit vector of value; ValueError unless both are ints, a bool
        being none, n <= MAX_WIDTH and 0 <= value < 2^n."""
        if type(value) is not int or type(n) is not int:
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (value, n)):
                raise ValueError("value and width must be ints, got "
                                 f"{type(value).__name__} and {type(n).__name__}")
            value, n = int(value), int(n)
        if not 0 <= n <= MAX_WIDTH or value < 0 or value >> n:
            if n > MAX_WIDTH:
                raise ValueError(f"width {_decimal(n)} exceeds the widest, {MAX_WIDTH} bits")
            raise ValueError(f"value {_decimal(value)} does not fit in {_decimal(n)} bits")
        self = _new(cls)
        _set_value(self, value)
        _set_n(self, n)
        return self

    @classmethod
    def parse(cls, text: str) -> "BitVector":
        """Parse an ASCII '0'/'1' string, leftmost character first; "" is
        the width-0 vector. Any other character, or a width from_int
        refuses, raises ValueError."""
        if not set(text) <= {"0", "1"}:
            raise ValueError(f"bits must all be 0 or 1, got {text!r}")
        return cls.from_int(int(text, 2) if text else 0, len(text))

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return f"{self.value:0{self.n}b}" if self.n else ""

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector.from_int(self.value ^ other.value, self.n)


_new = object.__new__
_set_value, _set_n = BitVector.value.__set__, BitVector.n.__set__


def dot(h: int, y: int) -> int:
    """Inner product over GF(2): XOR over positions of h_j AND y_j."""
    return (h & y).bit_count() & 1


class Echelon:
    """Incremental row echelon form of the GF(2) system h . y = r in width n.

    ``rows[lead]`` is the one augmented row ``(h << 1) | r`` whose leading
    bit is ``lead``, or 0 when no row has it, for lead = 0..n; a
    contradiction is the row 0 . y = 1, at index 0. ``add`` stops reducing
    at the first empty leading bit; ``kernel_basis`` and ``solutions``
    back-substitute. The rank is the number of nonzero entries above index 0.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows = [0] * (n + 1)

    def add(self, h: int, r: int = 0) -> bool:
        """Add h . y = r for an n-bit h; True when h is independent of the rows so far."""
        red, rows = (h << 1) | r, self.rows
        while red:
            lead = red.bit_length() - 1
            row = rows[lead]
            if not row:
                rows[lead] = red
                return lead > 0
            red ^= row
        return False

    def kernel_basis(self) -> list[int]:
        """A basis of the solutions of h . y = 0, whatever the r bits: one y per
        free bit, ascending, with that bit set and every other free bit clear."""
        return self._augmented_basis(1)

    def solutions(self) -> list[int]:
        """All 2^(n - rank) solutions y, ascending, or none if the rows contradict."""
        if self.rows[0]:
            return []
        particular, *basis = self._augmented_basis(0)
        found = [particular]
        for kernel in basis:
            found += [y ^ kernel for y in found]
        return sorted(found)

    def _augmented_basis(self, low: int) -> list[int]:
        """Back-substitute once per free bit of the augmented rows from ``low``
        up: set that bit, then, lowest first, each higher lead's bit that
        makes its row's parity 0 (a row leading below the free bit sees no
        set bit), and return the y without bit 0. Bit 0, whose 1 takes each
        row's r, is free unless the rows contradict; its y is the solution
        of h . y = r whose free bits are all 0."""
        rows, n = self.rows, self.n
        basis = []
        for free in range(low, n + 1):
            if not rows[free]:
                y = 1 << free
                for lead in range(free + 1, n + 1):
                    y |= ((rows[lead] & y).bit_count() & 1) << lead
                basis.append(y >> 1)
        return basis


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


def solve_affine(H: BitMatrix, r: BitVector) -> list[BitVector]:
    """All solutions y of H @ y = r, ascending; none when the rows contradict."""
    n, m = H.n, len(H.rows)
    if m != len(r):
        raise ValueError(f"system shape mismatch: {m} rows vs {len(r)} rhs bits")
    if m > n:
        raise ValueError(f"overdetermined system not supported: m={m} > n={n}")
    rows = Echelon(n)
    for i, row in enumerate(H.rows):
        rows.add(row.value, (r.value >> (m - 1 - i)) & 1)
    return [BitVector.from_int(y, n) for y in rows.solutions()]


def sample_independent_rows(m: int, n: int, rng: Random,
                            rows: Echelon | None = None) -> tuple[BitVector, ...]:
    """Sample m linearly independent width-n rows into ``rows``, an empty
    ``Echelon(n)`` (a fresh one by default), resampling dependent ones."""
    if m > n:
        raise ValueError(f"cannot draw {m} independent rows of width {n}")
    rows = Echelon(n) if rows is None else rows
    if rows.n != n or any(rows.rows):
        raise ValueError(f"rows must be an empty Echelon of width {n}")
    drawn: list[BitVector] = []
    while len(drawn) < m:
        cand = rng.getrandbits(n)
        if rows.add(cand):
            drawn.append(BitVector.from_int(cand, n))
    return tuple(drawn)
