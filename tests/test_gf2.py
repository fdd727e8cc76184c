import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from random import Random

from bcsim.gf2 import (BitMatrix, BitVector, Echelon, dot, rank, sample_independent_rows,
                       solve_affine)


def bv(text: str) -> BitVector:
    return BitVector.parse(text)


def brute_force_solutions(rows: list[BitVector], rhs: list[int], n: int) -> list[BitVector]:
    """Independent oracle: test every vector with a per-position product sum."""
    out = []
    for v in range(1 << n):
        y = BitVector.from_int(v, n)
        if all(sum(hj * yj for hj, yj in zip(h.bits, y.bits)) % 2 == r
               for h, r in zip(rows, rhs)):
            out.append(y)
    return out


class TestBitVector:
    def test_roundtrip_int(self):
        assert BitVector.from_int(5, 4) == bv("0101")
        assert bv("0101").to_int() == 5
        assert str(bv("0101")) == "0101"

    def test_index_zero_is_most_significant(self):
        assert BitVector.from_int(4, 3) == bv("100")
        assert bv("100") > bv("011")

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitVector((0, 2, 1))

    def test_xor_and_length_mismatch(self):
        assert bv("1100") ^ bv("1010") == bv("0110")
        with pytest.raises(ValueError):
            bv("11") ^ bv("111")


class TestDot:
    def test_zero_vector_annihilates(self):
        assert dot(bv("0000"), bv("1011")) == 0

    def test_direct_expansion(self):
        assert dot(bv("101"), bv("110")) == 1

    def test_parity_of_three(self):
        assert dot(bv("111"), bv("111")) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot(bv("10"), bv("100"))


class TestSolveAffine:
    def test_two_pinned_bits(self):
        H = BitMatrix.from_rows([bv("100"), bv("010")])
        got = solve_affine(H, BitVector((1, 0)))
        assert got == [bv("100"), bv("101")]
        assert got == brute_force_solutions(list(H.rows), [1, 0], 3)

    def test_empty_system_is_unconstrained(self):
        H = BitMatrix.from_rows([], n=2)
        assert solve_affine(H, BitVector(())) == [bv("00"), bv("01"), bv("10"), bv("11")]

    def test_single_parity_constraint(self):
        H = BitMatrix.from_rows([bv("11")])
        got = solve_affine(H, BitVector((0,)))
        assert got == [bv("00"), bv("11")]
        assert got == brute_force_solutions(list(H.rows), [0], 2)

    def test_inconsistent_system_is_empty(self):
        H = BitMatrix.from_rows([bv("10"), bv("10")])
        assert solve_affine(H, BitVector((0, 1))) == []

    def test_overdetermined_rejected(self):
        H = BitMatrix.from_rows([bv("10"), bv("01"), bv("11")])
        with pytest.raises(ValueError):
            solve_affine(H, BitVector((0, 0, 0)))

    def test_exhaustive_small_instances(self):
        # Every (m, H, r) with m <= n <= 3 against the brute-force oracle.
        for n in (1, 2, 3):
            for m in range(n + 1):
                for combo in range(1 << (n * m)):
                    rows = [BitVector.from_int((combo >> (n * i)) & ((1 << n) - 1), n)
                            for i in range(m)]
                    H = BitMatrix.from_rows(rows, n)
                    for rhs_combo in range(1 << m):
                        rhs = [(rhs_combo >> i) & 1 for i in range(m)]
                        got = solve_affine(H, BitVector(tuple(rhs)))
                        assert got == brute_force_solutions(rows, rhs, n)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_instances_match_brute_force(self, data):
        n = data.draw(st.integers(4, 6))
        m = data.draw(st.integers(0, n))
        rows = [BitVector.from_int(data.draw(st.integers(0, (1 << n) - 1)), n)
                for _ in range(m)]
        rhs = [data.draw(st.integers(0, 1)) for _ in range(m)]
        got = solve_affine(BitMatrix.from_rows(rows, n), BitVector(tuple(rhs)))
        assert got == brute_force_solutions(rows, rhs, n)

    def test_deterministic_ordering(self):
        H = BitMatrix.from_rows([bv("1100"), bv("0110")])
        r = BitVector((1, 1))
        first = solve_affine(H, r)
        assert first == solve_affine(H, r)
        assert [v.to_int() for v in first] == sorted(v.to_int() for v in first)


class TestRank:
    def test_empty(self):
        assert rank(BitMatrix.from_rows([], n=3)) == 0

    def test_duplicate_rows(self):
        assert rank(BitMatrix.from_rows([bv("101"), bv("101")])) == 1

    def test_dependent_third_row(self):
        # Third row is the sum of the first two; elimination oracle agrees.
        assert rank(BitMatrix.from_rows([bv("100"), bv("010"), bv("110")])) == 2

    def test_full_rank_identity(self):
        assert rank(BitMatrix.from_rows([bv("100"), bv("010"), bv("001")])) == 3


class TestEchelon:
    def test_add_reports_independence_and_a_contradiction_sticks(self):
        rows = Echelon(3)
        # 101 = 110 ^ 011 with a matching rhs: dependent, still consistent.
        assert [rows.add(h, r) for h, r in [(0b110, 1), (0b011, 0), (0b101, 1)]] == [True, True, False]
        assert rows.solutions() == [0b011, 0b100]
        before = rows.copy()
        assert rows.add(0b101, 0) is False
        assert rows.solutions() == []
        assert rows.add(0b001, 1) is True
        assert rows.solutions() == []
        assert before.solutions() == [0b011, 0b100]

    def test_empty_system_lists_every_vector(self):
        assert Echelon(3).solutions() == list(range(8))
        assert Echelon(0).solutions() == [0]


class TestSampleIndependentRows:
    def test_empty(self):
        H = sample_independent_rows(0, 3, Random(0))
        assert H.m == 0 and H.n == 3

    def test_rank_always_full_over_seeds(self):
        for seed in range(1000):
            H = sample_independent_rows(2, 3, Random(seed))
            assert rank(H) == 2

    def test_square_sampler_gives_unique_solutions(self):
        rng = Random(7)
        for _ in range(50):
            H = sample_independent_rows(4, 4, rng)
            r = BitVector.from_int(rng.getrandbits(4), 4)
            solutions = solve_affine(H, r)
            assert len(solutions) == 1
            assert solutions == brute_force_solutions(list(H.rows), list(r.bits), 4)

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            sample_independent_rows(4, 3, Random(0))


class TestHashSystemShape:
    """The n-1 independent rows case the commit protocol relies on."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_two_solutions_whose_xor_spans_nullspace(self, n):
        for seed in range(30):
            rng = Random(seed)
            H = sample_independent_rows(n - 1, n, rng)
            r = BitVector.from_int(rng.getrandbits(n - 1), n - 1)
            y0, y1 = solve_affine(H, r)
            assert y0 < y1
            kernel = y0 ^ y1
            assert not kernel.is_zero()
            for h in H.rows:
                assert dot(h, y0) == dot(h, y1)
                assert dot(h, kernel) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_solutions_satisfy_every_row(self, seed, n):
        rng = Random(seed)
        H = sample_independent_rows(n - 1, n, rng)
        rhs = [rng.getrandbits(1) for _ in range(n - 1)]
        for y in solve_affine(H, BitVector(tuple(rhs))):
            assert all(dot(h, y) == r for h, r in zip(H.rows, rhs))
