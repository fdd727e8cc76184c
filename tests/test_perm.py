import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsim.gf2 import BitVector
from bcsim.perm import ToyPermutation


class TestForward:
    def test_default_on_zero(self):
        # (5*0 + 3) mod 8 = 3
        p = ToyPermutation(3)
        assert p.forward(BitVector.parse("000")) == BitVector.parse("011")

    def test_default_wraps(self):
        # (5*1 + 3) mod 8 = 0
        p = ToyPermutation(3)
        assert p.forward(BitVector.parse("001")) == BitVector.parse("000")

    def test_identity_parameters(self):
        p = ToyPermutation(3, a=1, c=0)
        for v in range(8):
            x = BitVector.from_int(v, 3)
            assert p.forward(x) == x

    def test_matches_modular_arithmetic(self):
        p = ToyPermutation(4, a=7, c=9)
        for v in range(16):
            assert p.forward_int(v) == (7 * v + 9) % 16

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            ToyPermutation(3).forward(BitVector.parse("0000"))


class TestInverse:
    def test_default_inverse_of_three(self):
        # a^-1 = 5 mod 8, so x = 5*(3-3) mod 8 = 0
        p = ToyPermutation(3)
        assert p.inverse(BitVector.parse("011")) == BitVector.parse("000")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_inverse_of_forward_is_identity(self, n):
        p = ToyPermutation(n, a=min(5, (1 << n) - 1), c=min(3, (1 << n) - 1))
        for v in range(1 << n):
            x = BitVector.from_int(v, n)
            assert p.inverse(p.forward(x)) == x
            assert p.forward(p.inverse(x)) == x

    def test_identity_parameters(self):
        p = ToyPermutation(3, a=1, c=0)
        y = BitVector.parse("110")
        assert p.inverse(y) == y


class TestBijectivity:
    def test_default_image(self):
        p = ToyPermutation(3)
        assert [p.forward_int(x) for x in range(8)] == [3, 0, 5, 2, 7, 4, 1, 6]
        assert p.verify_bijection()

    def test_even_multiplier_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ToyPermutation(3, a=4)

    def test_negation_on_one_bit(self):
        p = ToyPermutation(1, a=1, c=1)
        assert p.verify_bijection()
        assert p.forward_int(0) == 1 and p.forward_int(1) == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_image_covers_all_strings(self, n):
        a = 5 if n >= 3 else 1
        c = 3 if n >= 2 else 1
        p = ToyPermutation(n, a=a, c=c)
        assert {p.forward_int(x) for x in range(1 << n)} == set(range(1 << n))

    def test_parameter_ranges_enforced(self):
        with pytest.raises(ValueError):
            ToyPermutation(2, a=5)
        with pytest.raises(ValueError):
            ToyPermutation(2, a=3, c=4)
        with pytest.raises(ValueError):
            ToyPermutation(0)

    def test_enumeration_limit(self):
        with pytest.raises(ValueError):
            ToyPermutation(21, a=3, c=0).verify_bijection()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_parameters_invert(self, data):
        n = data.draw(st.integers(1, 10))
        a = data.draw(st.integers(0, (1 << (n - 1)) - 1)) * 2 + 1
        c = data.draw(st.integers(0, (1 << n) - 1))
        x = data.draw(st.integers(0, (1 << n) - 1))
        p = ToyPermutation(n, a=a, c=c)
        assert p.inverse_int(p.forward_int(x)) == x

