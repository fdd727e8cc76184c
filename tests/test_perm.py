from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsim.perm import ToyPermutation


class TestForward:
    def test_default_on_zero(self):
        # (5*0 + 3) mod 8 = 3
        p = ToyPermutation(3)
        assert p.forward_int(0b000) == 0b011

    def test_default_wraps(self):
        # (5*1 + 3) mod 8 = 0
        p = ToyPermutation(3)
        assert p.forward_int(0b001) == 0b000

    def test_identity_parameters(self):
        p = ToyPermutation(3, a=1, c=0)
        for x in range(8):
            assert p.forward_int(x) == x

    def test_matches_modular_arithmetic(self):
        p = ToyPermutation(4, a=7, c=9)
        for v in range(16):
            assert p.forward_int(v) == (7 * v + 9) % 16


class TestInverse:
    def test_default_inverse_of_three(self):
        # a^-1 = 5 mod 8, so x = 5*(3-3) mod 8 = 0
        p = ToyPermutation(3)
        assert p.inverse_int(0b011) == 0b000

    @pytest.mark.parametrize("n", range(1, 11))
    def test_inverse_of_forward_is_identity(self, n):
        p = ToyPermutation(n, a=min(5, (1 << n) - 1), c=min(3, (1 << n) - 1))
        for x in range(1 << n):
            assert p.inverse_int(p.forward_int(x)) == x
            assert p.forward_int(p.inverse_int(x)) == x

    def test_identity_parameters(self):
        p = ToyPermutation(3, a=1, c=0)
        assert p.inverse_int(0b110) == 0b110

    def test_wide_inverse_of_forward_is_identity(self):
        rng = Random(1024)
        p = ToyPermutation(1024, a=rng.getrandbits(1024) | 1, c=rng.getrandbits(1024))
        for _ in range(200):
            x = rng.getrandbits(1024)
            assert p.inverse_int(p.forward_int(x)) == x
            assert p.forward_int(p.inverse_int(x)) == x


class TestBijectivity:
    def test_default_image(self):
        p = ToyPermutation(3)
        assert [p.forward_int(x) for x in range(8)] == [3, 0, 5, 2, 7, 4, 1, 6]

    def test_even_multiplier_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ToyPermutation(3, a=4)

    def test_negation_on_one_bit(self):
        p = ToyPermutation(1, a=1, c=1)
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

    @pytest.mark.parametrize("a, c, named", [(-1, 3, "multiplier a=-1 outside"),
                                             (1, -1, "constant c=-1 outside")],
                             ids=["a", "c"])
    def test_a_width_too_long_to_print_is_given_by_size(self, a, c, named):
        # Past the int-to-str digit limit, n has no repr: the message sizes it.
        n = 10 ** 5000
        with pytest.raises(ValueError) as info:
            ToyPermutation(n, a=a, c=c)
        assert str(info.value).startswith(named)
        assert "Exceeds the limit" not in str(info.value)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_parameters_invert(self, data):
        n = data.draw(st.integers(1, 10))
        a = data.draw(st.integers(0, (1 << (n - 1)) - 1)) * 2 + 1
        c = data.draw(st.integers(0, (1 << n) - 1))
        x = data.draw(st.integers(0, (1 << n) - 1))
        p = ToyPermutation(n, a=a, c=c)
        assert p.inverse_int(p.forward_int(x)) == x

