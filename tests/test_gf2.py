import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from random import Random

from bcsim.engine import HONEST_MAX_N
from bcsim.gf2 import (MAX_WIDTH, BitMatrix, BitVector, Echelon, dot, sample_independent_rows,
                       solve_affine)


def bv(text: str) -> BitVector:
    return BitVector.parse(text)


def bits(v: BitVector) -> tuple[int, ...]:
    """The vector's bits, index 0 first, read off its printed form."""
    return tuple(int(ch) for ch in str(v))


def solve(rows: list[BitVector], rhs: list[int], n: int) -> list[BitVector]:
    """Every y with h_i . y = rhs_i, through ``Echelon.solutions``."""
    system = Echelon(n)
    for h, r in zip(rows, rhs):
        system.add(h.value, r)
    return [BitVector.from_int(y, n) for y in system.solutions()]


def kernel_basis(rows: list[BitVector], rhs: list[int], n: int) -> list[int]:
    """``Echelon.kernel_basis`` of the system h_i . y = rhs_i."""
    system = Echelon(n)
    for h, r in zip(rows, rhs):
        system.add(h.value, r)
    return system.kernel_basis()


def span(basis: list[int], n: int) -> list[BitVector]:
    """Every XOR of a subset of basis, ascending, repeats kept."""
    out = [0]
    for k in basis:
        out += [y ^ k for y in out]
    return [BitVector.from_int(y, n) for y in sorted(out)]


def rank(rows: list[BitVector], n: int) -> int:
    """Row rank: the number of rows ``Echelon.add`` finds independent."""
    system = Echelon(n)
    return sum(system.add(h.value) for h in rows)


def brute_force_solutions(rows: list[BitVector], rhs: list[int], n: int) -> list[BitVector]:
    """Independent oracle: test every vector with a per-position product sum."""
    out = []
    for v in range(1 << n):
        y = BitVector.from_int(v, n)
        if all(sum(hj * yj for hj, yj in zip(bits(h), bits(y))) % 2 == r
               for h, r in zip(rows, rhs)):
            out.append(y)
    return out


class TestBitVector:
    def test_roundtrip_int(self):
        assert BitVector.from_int(5, 4) == bv("0101")
        assert bv("0101").value == 5
        assert str(bv("0101")) == "0101"

    def test_index_zero_is_most_significant(self):
        assert BitVector.from_int(4, 3) == bv("100")
        assert bv("100") > bv("011")

    @pytest.mark.parametrize("text", ["102", "1_0", " 1", "+1", "\u0661", "1" * (MAX_WIDTH + 1)],
                             ids=["digit-2", "underscore", "space", "sign", "arabic-one", "too-wide"])
    def test_parse_refuses_what_is_not_a_width_bounded_bit_string(self, text):
        # int(text, 2) alone takes the middle four.
        with pytest.raises(ValueError, match="0 or 1|exceeds the widest"):
            bv(text)

    def test_parse_takes_the_empty_and_the_widest_string(self):
        assert bv("") == BitVector.from_int(0, 0) and str(bv("")) == ""
        assert bv("1" * MAX_WIDTH) == BitVector.from_int((1 << MAX_WIDTH) - 1, MAX_WIDTH)

    def test_rejects_non_bits(self):
        # int(text, 2) also takes trailing whitespace.
        for text in ("2", "012", "0a1", "01\n"):
            with pytest.raises(ValueError, match="0 or 1"):
                bv(text)

    @pytest.mark.parametrize("args", [(), ([1, 0],), (5, 3)], ids=["none", "list", "value-width"])
    def test_from_int_and_parse_are_the_only_constructors(self, args):
        # No call builds a vector: one with unset slots would break str() and ==.
        with pytest.raises(TypeError, match=r"from_int\(value, n\) or BitVector\.parse"):
            BitVector(*args)

    def test_copies_and_pickles_of_a_vector_are_equal_vectors(self):
        v = BitVector.from_int(5, 4)
        for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is BitVector and twin == v and str(twin) == "0101"
            assert hash(twin) == hash(v)

    def test_xor_and_length_mismatch(self):
        assert bv("1100") ^ bv("1010") == bv("0110")
        with pytest.raises(ValueError):
            bv("11") ^ bv("111")
        for other in (3, 0, "11", None):
            with pytest.raises(TypeError, match="unsupported operand"):
                bv("11") ^ other
            with pytest.raises(TypeError, match="unsupported operand"):
                other ^ bv("11")

    @pytest.mark.parametrize("value,n", [(2.5, 3), (1.0, 3), (True, 3), (1, True), (1, 3.0),
                                         ("1", 3), (None, 3), (1, None)], ids=repr)
    def test_from_int_refuses_a_value_or_width_that_is_not_an_int(self, value, n):
        with pytest.raises(ValueError, match="must be ints"):
            BitVector.from_int(value, n)

    # Past the int-to-str digit limit, a value or width has no decimal form,
    # so the error names it by its bit length.
    HUGE = 10 ** 5000

    @pytest.mark.parametrize("value,n", [(8, 3), (-1, 3), (0, -1), (1 << 70, 70),
                                         (HUGE, 3), (-HUGE, 3), (0, -HUGE)],
                             ids=lambda v: f"{'-' if v < 0 else ''}10**5000"
                             if abs(v) == 10 ** 5000 else repr(v))
    def test_from_int_refuses_a_value_out_of_range(self, value, n):
        with pytest.raises(ValueError, match="does not fit"):
            BitVector.from_int(value, n)

    @pytest.mark.parametrize("value,n", [(0, MAX_WIDTH + 1), (0, 10 ** 9), (1, 10 ** 9), (HUGE, HUGE)],
                             ids=["1025", "10**9", "1-10**9", "10**5000"])
    def test_from_int_refuses_a_width_above_the_widest(self, value, n):
        # Before the bound, from_int(0, 10**9) built a vector whose str()
        # would be a 1 GB string.
        with pytest.raises(ValueError, match=f"exceeds the widest, {MAX_WIDTH} bits"):
            BitVector.from_int(value, n)

    def test_the_widest_vector_is_the_widest_config(self):
        assert HONEST_MAX_N == MAX_WIDTH == 1024
        top = BitVector.from_int((1 << MAX_WIDTH) - 1, MAX_WIDTH)
        assert str(top) == "1" * MAX_WIDTH

    def test_from_int_stores_an_int_subclass_as_an_int(self):
        class Wide(int):
            pass

        v = BitVector.from_int(Wide(5), Wide(4))
        assert type(v.value) is int and type(v.n) is int
        assert v == bv("0101") and hash(v) == hash(bv("0101"))

    def test_fields_are_slots_and_frozen(self):
        v = bv("101")
        assert not hasattr(v, "__dict__")
        for field in ("value", "n"):
            with pytest.raises(AttributeError):
                setattr(v, field, 0)
        # A name that is not a field is refused too: with TypeError on Python
        # 3.10-3.13, whose frozen __setattr__ calls super() on the class that
        # slots=True replaced.
        with pytest.raises((AttributeError, TypeError)):
            v.extra = 0
        assert (v.value, v.n) == (5, 3)


class TestDot:
    def test_zero_vector_annihilates(self):
        assert dot(0b0000, 0b1011) == 0

    def test_direct_expansion(self):
        assert dot(0b101, 0b110) == 1

    def test_parity_of_three(self):
        assert dot(0b111, 0b111) == 1


class TestSolutions:
    def test_two_pinned_bits(self):
        rows = [bv("100"), bv("010")]
        got = solve(rows, [1, 0], 3)
        assert got == [bv("100"), bv("101")]
        assert got == brute_force_solutions(rows, [1, 0], 3)

    def test_empty_system_is_unconstrained(self):
        assert solve([], [], 2) == [bv("00"), bv("01"), bv("10"), bv("11")]

    def test_single_parity_constraint(self):
        rows = [bv("11")]
        got = solve(rows, [0], 2)
        assert got == [bv("00"), bv("11")]
        assert got == brute_force_solutions(rows, [0], 2)

    def test_inconsistent_system_is_empty(self):
        assert solve([bv("10"), bv("10")], [0, 1], 2) == []

    def test_overdetermined_system_matches_brute_force(self):
        # More rows than columns: Echelon solves them; Bob's check refuses them.
        rows = [bv("10"), bv("01"), bv("11")]
        assert solve(rows, [0, 0, 0], 2) == [bv("00")]
        for rhs in ([0, 0, 1], [1, 1, 0], [1, 0, 1]):
            assert solve(rows, rhs, 2) == brute_force_solutions(rows, rhs, 2)

    def test_exhaustive_small_instances(self):
        # Every (m, H, r) with m <= n <= 3 against the brute-force oracle. The
        # kernel basis spans the homogeneous solutions, with no repeat, whatever
        # r is, also when r contradicts the rows and there is no solution.
        seen = set()
        for n in (1, 2, 3):
            for m in range(n + 1):
                for combo in range(1 << (n * m)):
                    rows = [BitVector.from_int((combo >> (n * i)) & ((1 << n) - 1), n)
                            for i in range(m)]
                    kernel = brute_force_solutions(rows, [0] * m, n)
                    for rhs_combo in range(1 << m):
                        rhs = [(rhs_combo >> i) & 1 for i in range(m)]
                        found = solve(rows, rhs, n)
                        assert found == brute_force_solutions(rows, rhs, n)
                        basis = kernel_basis(rows, rhs, n)
                        assert span(basis, n) == kernel
                        assert len(basis) == n - rank(rows, n)
                        seen.add("contradiction" if not found else
                                 {0: "full rank", 1: "rank n - 1"}.get(len(basis)))
        assert seen >= {"full rank", "rank n - 1", "contradiction"}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_instances_match_brute_force(self, data):
        n = data.draw(st.integers(4, 6))
        m = data.draw(st.integers(0, n))
        rows = [BitVector.from_int(data.draw(st.integers(0, (1 << n) - 1)), n)
                for _ in range(m)]
        rhs = [data.draw(st.integers(0, 1)) for _ in range(m)]
        assert solve(rows, rhs, n) == brute_force_solutions(rows, rhs, n)

    def test_deterministic_ordering(self):
        rows = [bv("1100"), bv("0110")]
        first = solve(rows, [1, 1], 4)
        assert first == solve(rows, [1, 1], 4)
        assert [v.value for v in first] == sorted(v.value for v in first)


class TestSolveAffine:
    """The matrix form gives ``Echelon.solutions`` and refuses what it always refused."""

    def test_matches_echelon_on_small_instances(self):
        for n in (1, 2, 3):
            for m in range(n + 1):
                for combo in range(1 << (n * m)):
                    rows = [BitVector.from_int((combo >> (n * i)) & ((1 << n) - 1), n)
                            for i in range(m)]
                    for rhs_combo in range(1 << m):
                        rhs = [(rhs_combo >> (m - 1 - i)) & 1 for i in range(m)]
                        got = solve_affine(BitMatrix.from_rows(rows, n),
                                           BitVector.from_int(rhs_combo, m))
                        assert got == solve(rows, rhs, n)

    def test_refusals(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            solve_affine(BitMatrix.from_rows([bv("10")]), bv("10"))
        with pytest.raises(ValueError, match="overdetermined"):
            solve_affine(BitMatrix.from_rows([bv("10"), bv("01"), bv("11")]), bv("000"))
        with pytest.raises(ValueError, match="does not match matrix width"):
            BitMatrix.from_rows([bv("10"), bv("011")])
        with pytest.raises(ValueError, match="width n is required"):
            BitMatrix.from_rows([])


class TestRank:
    def test_empty(self):
        assert rank([], 3) == 0

    def test_duplicate_rows(self):
        assert rank([bv("101"), bv("101")], 3) == 1

    def test_dependent_third_row(self):
        # Third row is the sum of the first two; elimination oracle agrees.
        assert rank([bv("100"), bv("010"), bv("110")], 3) == 2

    def test_full_rank_identity(self):
        assert rank([bv("100"), bv("010"), bv("001")], 3) == 3


class TestEchelon:
    def test_add_reports_independence_and_a_contradiction_sticks(self):
        rows = Echelon(3)
        # 101 = 110 ^ 011 with a matching rhs: dependent, still consistent.
        assert [rows.add(h, r) for h, r in [(0b110, 1), (0b011, 0), (0b101, 1)]] == [True, True, False]
        assert rows.solutions() == [0b011, 0b100]
        assert rows.add(0b101, 0) is False
        assert rows.solutions() == []
        assert rows.add(0b001, 1) is True
        assert rows.solutions() == []

    def test_empty_system_lists_every_vector(self):
        assert Echelon(3).solutions() == list(range(8))
        assert Echelon(0).solutions() == [0]


class TestSampleIndependentRows:
    def test_empty(self):
        assert sample_independent_rows(0, 3, Random(0)) == ()

    def test_rank_always_full_over_seeds(self):
        for seed in range(1000):
            H = sample_independent_rows(2, 3, Random(seed))
            assert len(H) == 2 and rank(H, 3) == 2

    def test_square_sampler_gives_unique_solutions(self):
        rng = Random(7)
        for _ in range(50):
            H = sample_independent_rows(4, 4, rng)
            r = BitVector.from_int(rng.getrandbits(4), 4)
            solutions = solve(H, bits(r), 4)
            assert len(solutions) == 1
            assert solutions == brute_force_solutions(list(H), list(bits(r)), 4)

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            sample_independent_rows(4, 3, Random(0))

    def test_rows_are_reduced_into_a_given_echelon(self):
        rows = Echelon(5)
        H = sample_independent_rows(4, 5, Random(3), rows)
        assert H == sample_independent_rows(4, 5, Random(3))
        assert rows.solutions() == [y.value for y in solve(H, (0,) * 4, 5)]

    @pytest.mark.parametrize("width,row", [(4, 0), (5, 0b00001)], ids=["narrow", "nonempty"])
    def test_echelon_must_be_empty_and_as_wide(self, width, row):
        rows = Echelon(width)
        rows.add(row)
        with pytest.raises(ValueError, match="empty Echelon of width 5"):
            sample_independent_rows(1, 5, Random(0), rows)


class TestHashSystemShape:
    """The n-1 independent rows case the commit protocol relies on."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_two_solutions_whose_xor_spans_nullspace(self, n):
        for seed in range(30):
            rng = Random(seed)
            H = sample_independent_rows(n - 1, n, rng)
            r = BitVector.from_int(rng.getrandbits(n - 1), n - 1)
            y0, y1 = solve(H, bits(r), n)
            assert y0 < y1
            kernel = y0 ^ y1
            assert kernel.value != 0
            for h in H:
                assert dot(h.value, y0.value) == dot(h.value, y1.value)
                assert dot(h.value, kernel.value) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_solutions_satisfy_every_row(self, seed, n):
        rng = Random(seed)
        H = sample_independent_rows(n - 1, n, rng)
        rhs = [rng.getrandbits(1) for _ in range(n - 1)]
        for y in solve(H, rhs, n):
            assert all(dot(h.value, y.value) == r for h, r in zip(H, rhs))
