"""Bob's novy check against the solver wrappers it replaced.

``honest_unveil_check`` used to build a ``BitMatrix`` from the transcript
and call ``solve_affine``, which refused more than n rows; it now adds the
rows to a ``gf2.Echelon`` itself. The references below are those bodies,
taking a rows-and-width pair where they took a ``BitMatrix``. The new
check must accept, reject or raise ``ValueError`` exactly where they did.
``echelon_rank`` and ``echelon_solve_affine`` also stand in for the deleted
``gf2`` functions in the older references' tests, and ``parity_fn`` for the
deleted ``novy._parity_fn``.
"""
from random import Random
from typing import NamedTuple

import pytest

from bcsim import gf2, novy
from bcsim.engine import NOVY_LINKS, Party, Phase, Transcript
from bcsim.gf2 import BitVector
from bcsim.perm import ToyPermutation
from test_novy import MALFORMED_OPENINGS, MALFORMED_VALUES


class BitMatrix(NamedTuple):
    """The rows and width the references take in place of ``gf2.BitMatrix``."""

    rows: tuple[BitVector, ...]
    n: int

    @classmethod
    def from_rows(cls, rows, n: int) -> "BitMatrix":
        return cls(tuple(rows), n)

    @property
    def m(self) -> int:
        return len(self.rows)


def echelon_rank(H: BitMatrix) -> int:
    rows = gf2.Echelon(H.n)
    return sum(rows.add(row.value) for row in H.rows)


def echelon_solve_affine(H: BitMatrix, r: BitVector) -> list[BitVector]:
    n, m = H.n, H.m
    if m != len(r):
        raise ValueError(f"system shape mismatch: {m} rows vs {len(r)} rhs bits")
    if m > n:
        raise ValueError(f"overdetermined system not supported: m={m} > n={n}")
    rows = gf2.Echelon(n)
    for i, row in enumerate(H.rows):
        rows.add(row.value, (r.value >> (m - 1 - i)) & 1)
    return [BitVector.from_int(y, n) for y in rows.solutions()]


def bit_vector(bits) -> BitVector:
    """The BitVector of a sequence of 0/1 ints, first bit most significant."""
    return BitVector.parse("".join(map(str, bits)))


def parity_fn(h_int: int):
    """y -> parity of h & y."""
    return lambda y: gf2.dot(h_int, y)


def ref_commit_system(t: Transcript, n: int) -> tuple[BitMatrix, BitVector, int]:
    try:
        hs = t.series("h_")
        rs = t.series("r_")
        z = t.value("z")
    except KeyError as exc:
        raise ValueError(f"malformed transcript: {exc}") from exc
    if not hs or len(hs) != len(rs):
        raise ValueError("malformed transcript: hash/response rounds do not line up")
    if not (all(isinstance(h, BitVector) and len(h) == n for h in hs)
            and all(isinstance(v, int) and v in (0, 1) for v in (*rs, z))):
        raise ValueError(f"malformed transcript: h_i must be {n}-bit strings, r_i and z bits")
    return BitMatrix.from_rows(hs, n), bit_vector(rs), z


def ref_unveil_check(t: Transcript, b: int, x: BitVector, p: ToyPermutation) -> bool:
    hashes, responses, z = ref_commit_system(t, p.n)
    solutions = echelon_solve_affine(hashes, responses)
    if len(solutions) != 2:
        raise ValueError(f"malformed transcript: {len(solutions)} solutions, expected 2")
    if not (isinstance(b, int) and b in (0, 1) and isinstance(x, BitVector) and len(x) == p.n):
        return False
    return p.forward_int(x.value) == solutions[z ^ b].value


def outcome(check, *args):
    """A check's verdict, or ValueError when it raised one."""
    try:
        return check(*args)
    except ValueError:
        return ValueError


def assert_same_verdict(t, b, x, p):
    got = outcome(novy.honest_unveil_check, t, b, x, p)
    assert got == outcome(ref_unveil_check, t, b, x, p)
    return got


def novy_transcript(hs, rs, z) -> Transcript:
    """A commit transcript announcing the given rows, parities and z."""
    t = Transcript(NOVY_LINKS)
    for i, (h, r) in enumerate(zip(hs, rs), start=1):
        t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, f"h_{i}", h)
        t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, f"r_{i}", r)
    for i in range(len(hs) + 1, len(rs) + 1):
        t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, f"r_{i}", rs[i - 1])
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    return t


def random_perm(n, rng):
    return ToyPermutation(n, a=rng.randrange(1, 1 << n, 2), c=rng.randrange(1 << n))


def openings(st, p):
    """The true opening, the flipped bit, and the equivocation the
    invertible stand-in permutation allows."""
    y0, y1 = echelon_solve_affine(BitMatrix.from_rows(st.hashes, p.n), bit_vector(st.responses))
    other = y1 if st.y == y0.value else y0
    return [(st.b, st.x), (1 - st.b, st.x),
            (1 - st.b, BitVector.from_int(p.inverse_int(other.value), p.n))]


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 64])
def test_valid_transcripts_get_the_reference_verdict(n):
    rng = Random(f"unveil:{n}")
    verdicts = []
    for _ in range(20):
        p = random_perm(n, rng)
        st = novy.honest_commit(rng.getrandbits(1), n, p, Random(rng.getrandbits(32)))
        for b, x in openings(st, p):
            verdicts.append(assert_same_verdict(st.transcript, b, x, p))
        if n <= 16:
            att = novy.attack_commit((0.6, 0.8j), n, p, Random(rng.getrandbits(32)))
            t = att.transcript
            b, x = novy.attack_unveil(att, rng)
            verdicts.append(assert_same_verdict(t, b, x, p))
            verdicts.append(assert_same_verdict(t, 1 - b, x, p))
    assert set(verdicts) == {True, False}


def test_missing_messages_raise_like_the_reference():
    p = ToyPermutation(3)
    st = novy.honest_commit(1, 3, p, Random(0))
    h, r = st.transcript.series("h_"), st.transcript.series("r_")
    for forged in (Transcript(NOVY_LINKS), novy_transcript(h[:1], r, st.z),
                   novy_transcript([], [], st.z)):
        assert assert_same_verdict(forged, st.b, st.x, p) is ValueError


@pytest.mark.parametrize("name,value", MALFORMED_VALUES)
def test_malformed_values_raise_like_the_reference(name, value):
    p = ToyPermutation(3)
    for seed in range(4):
        st = novy.honest_commit(1, 3, p, Random(seed))
        forged = Transcript(NOVY_LINKS)
        for m in st.transcript.messages:
            forged.announce(m.sender, m.receiver, m.phase, m.name,
                            value if m.name == name else m.value)
        assert assert_same_verdict(forged, st.b, st.x, p) is ValueError


@pytest.mark.parametrize("field,value", MALFORMED_OPENINGS)
def test_malformed_openings_rejected_like_the_reference(field, value):
    p = ToyPermutation(3)
    for seed in range(8):
        st = novy.honest_commit(seed % 2, 3, p, Random(seed))
        opening = {"b": st.b, "x": st.x, field: value}
        assert assert_same_verdict(st.transcript, opening["b"], opening["x"], p) is False


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_a_dependent_row_among_n_counts_only_when_consistent(n):
    # m = n rows of rank n - 1: solve_affine solved them, so the new check
    # must accept exactly the openings the reference accepts, and raise when
    # the extra row's parity contradicts the others.
    rng = Random(f"dependent:{n}")
    seen = set()
    for _ in range(30):
        p = random_perm(n, rng)
        st = novy.honest_commit(rng.getrandbits(1), n, p, Random(rng.getrandbits(32)))
        pick = [h for h in st.hashes if rng.random() < 0.5] or [st.hashes[0]]
        extra = BitVector.from_int(0, n)
        for h in pick:
            extra = extra ^ h
        parity = gf2.dot(extra.value, st.y)
        for r in (parity, 1 - parity):
            t = novy_transcript((*st.hashes, extra), (*st.responses, r), st.z)
            for b, x in openings(st, p):
                seen.add((r == parity, assert_same_verdict(t, b, x, p)))
    assert seen == {(True, True), (True, False), (False, ValueError)}


@pytest.mark.parametrize("n", [2, 3, 6])
def test_more_than_n_rows_raise_like_the_reference(n):
    # solve_affine refused m > n before solving, even when the rows leave
    # exactly two solutions, as a repeated consistent row does.
    rng = Random(f"overdetermined:{n}")
    p = random_perm(n, rng)
    st = novy.honest_commit(0, n, p, Random(1))
    repeated = (st.hashes[0], st.hashes[0])
    drawn = tuple(BitVector.from_int(rng.getrandbits(n), n) for _ in range(3))
    for extra in (repeated, drawn[:2], drawn):
        rows = (*st.hashes, *extra)
        t = novy_transcript(rows, tuple(gf2.dot(h.value, st.y) for h in rows), st.z)
        assert len(rows) > n
        assert assert_same_verdict(t, st.b, st.x, p) is ValueError


@pytest.mark.parametrize("rows,p,match", [
    ([BitVector.from_int(1, 2)], ToyPermutation(2, a=3, c=1), "do not line up"),
    ([BitVector.from_int(v, 1) for v in (0, 1)], ToyPermutation(1, a=1, c=0), "2 hash rows for n=1"),
], ids=["one-row-two-parities", "two-rows-of-width-1"])
def test_shape_errors_raise_like_the_reference(rows, p, match):
    # The two systems solve_affine refused by their shape.
    t, x = novy_transcript(rows, (0, 0), 0), BitVector.from_int(0, p.n)
    assert assert_same_verdict(t, 0, x, p) is ValueError
    with pytest.raises(ValueError, match=match):
        novy.honest_unveil_check(t, 0, x, p)
