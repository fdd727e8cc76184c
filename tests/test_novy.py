import math
import tracemalloc
from random import Random

import pytest

from bcsim import gf2, novy
from bcsim.engine import NOVY_LINKS, Party, Phase, Transcript
from bcsim.gf2 import BitVector
from bcsim.perm import ToyPermutation
from bcsim.qsim import cached_layout, init_state
from test_gf2 import solve

RT2 = 1 / math.sqrt(2)

# One announced value of an honest n = 3 commitment, replaced.
MALFORMED_VALUES = [pytest.param(name, value, id=label) for name, value, label in [
    ("z", -1, "z=-1"), ("z", 2, "z=2"), ("z", "1", "z=str"), ("z", 1.0, "z=float"),
    ("r_1", 2, "r_1=2"), ("h_1", 5, "h_1-int"), ("h_1", BitVector.parse("11"), "h_1-narrow"),
]]
# One field of an honest n = 3 opening, replaced.
MALFORMED_OPENINGS = [pytest.param(field, value, id=label) for field, value, label in [
    ("b", 2, "b=2"), ("b", -1, "b=-1"), ("b", "x", "b=str"), ("b", 1.0, "b=float"),
    ("b", None, "b=None"), ("x", BitVector.parse("00"), "x-narrow"),
    ("x", BitVector.parse("0000"), "x-wide"), ("x", "000", "x-str"),
]]


def perm(n=3):
    return ToyPermutation(n) if n >= 3 else ToyPermutation(n, a=3, c=1)


class TestHonestCommit:
    def test_responses_hold_for_both_solutions(self):
        for seed in range(10):
            st = novy.honest_commit(0, 3, perm(), Random(seed))
            solutions = solve(st.hashes, st.responses, 3)
            assert len(solutions) == 2
            for y in solutions:
                assert all(gf2.dot(h.value, y.value) == r
                           for h, r in zip(st.hashes, st.responses))

    def test_z_xor_b_indexes_alice_solution(self):
        for seed in range(10):
            for b in (0, 1):
                st = novy.honest_commit(b, 3, perm(), Random(seed))
                solutions = solve(st.hashes, st.responses, 3)
                assert st.z ^ st.b == st.a
                assert solutions[st.a].value == st.y

    def test_transcript_contains_all_rounds(self):
        t = novy.honest_commit(1, 4, ToyPermutation(4), Random(3)).transcript
        assert len(t.series("h_")) == 3
        assert len(t.series("r_")) == 3
        assert t.value("z") in (0, 1)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            novy.honest_commit(0, 1, ToyPermutation(1, a=1, c=0), Random(0))

    def test_one_reduction_per_commit(self, monkeypatch):
        # Alice reads her kernel off the sampler's Echelon: one elimination,
        # holding one add per row drawn and nothing more.
        counts = {"made": 0, "adds": 0}

        class CountingEchelon(gf2.Echelon):
            def __init__(self, n):
                counts["made"] += 1
                super().__init__(n)

            def add(self, h, r=0):
                counts["adds"] += 1
                return super().add(h, r)

        class CountingRandom(Random):
            draws = 0

            def getrandbits(self, k):
                self.draws += 1
                return super().getrandbits(k)

        monkeypatch.setattr(gf2, "Echelon", CountingEchelon)
        rng = CountingRandom(5)
        novy.honest_commit(1, 64, ToyPermutation(64), rng)
        assert counts["made"] == 1
        assert counts["adds"] == rng.draws - 1  # every draw but x's is a row

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            novy.honest_commit(2, 3, perm(), Random(0))


class TestHonestUnveil:
    def test_true_opening_accepted(self):
        st = novy.honest_commit(1, 3, perm(), Random(5))
        b, x = novy.honest_unveil(st)
        assert (b, x) == (st.b, st.x)
        assert novy.honest_unveil_check(st.transcript, b, x, perm()) is True

    def test_flipped_bit_rejected(self):
        st = novy.honest_commit(1, 3, perm(), Random(6))
        assert novy.honest_unveil_check(st.transcript, 1 - st.b, st.x, perm()) is False

    def test_binding_is_only_computational(self):
        # With an invertible stand-in permutation the other preimage is
        # findable, so an equivocating opening verifies. Demonstration of a
        # known limitation, not a defect.
        p = perm()
        st = novy.honest_commit(0, 3, p, Random(7))
        solutions = solve(st.hashes, st.responses, 3)
        other = solutions[st.z ^ (1 - st.b)]
        x_forged = BitVector.from_int(p.inverse_int(other.value), 3)
        assert x_forged != st.x
        assert novy.honest_unveil_check(st.transcript, 1 - st.b, x_forged, p) is True

    def test_second_z_announcement_rejected(self):
        # If a later z replaced the first, Bob would read the flipped z and
        # accept the opening of the other bit.
        p = perm()
        st = novy.honest_commit(0, 3, p, Random(1))
        novy.honest_unveil(st)
        t = st.transcript
        with pytest.raises(ValueError, match="already has a message named 'z'"):
            t.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "z", 1 - st.z)
        assert t.value("z") == st.z
        assert novy.honest_unveil_check(t, 1, st.x, p) is False

    def test_malformed_transcript(self):
        with pytest.raises(ValueError):
            novy.honest_unveil_check(Transcript(NOVY_LINKS), 0, BitVector.parse("000"), perm())

    @pytest.mark.parametrize("name,value", MALFORMED_VALUES)
    def test_malformed_transcript_value_raises(self, name, value):
        # An honest b = 1 commitment with one announced value replaced.
        p = perm()
        for seed in range(4):
            st = novy.honest_commit(1, 3, p, Random(seed))
            forged = Transcript(NOVY_LINKS)
            for m in st.transcript.messages:
                forged.announce(m.sender, m.receiver, m.phase, m.name,
                                value if m.name == name else m.value)
            assert [m.round for m in forged.messages] == [m.round for m in st.transcript.messages]
            with pytest.raises(ValueError, match="malformed transcript"):
                novy.honest_unveil_check(forged, st.b, st.x, p)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("kind", ["rank-1", "rows-twice"])
    def test_rank_deficient_system_raises_before_solving(self, n, kind):
        # Consistent rows of rank below n - 1 leave 2^(n - rank) solutions;
        # Bob must refuse them without listing any.
        rng = Random(f"deficient:{n}")
        if kind == "rank-1":
            hs = [BitVector.from_int(rng.getrandbits(n) | 1, n)] * (n - 1)
        else:
            hs = [h for h in gf2.sample_independent_rows(n // 2, n, rng) for _ in (0, 1)][:n - 1]
        t = Transcript(NOVY_LINKS)
        for i, h in enumerate(hs, start=1):
            t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, f"h_{i}", h)
            t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, f"r_{i}", 0)
        t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", 0)
        p = ToyPermutation(n)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="malformed transcript"):
                novy.honest_unveil_check(t, 0, BitVector.from_int(0, n), p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("field,value", MALFORMED_OPENINGS)
    def test_malformed_opening_rejected(self, field, value):
        # Each opening is honest except for the one malformed field.
        p = perm()
        for seed in range(8):
            st = novy.honest_commit(seed % 2, 3, p, Random(seed))
            opening = {"b": st.b, "x": st.x, field: value}
            assert novy.honest_unveil_check(st.transcript, opening["b"], opening["x"], p) is False


class TestAttackCommit:
    def test_pre_announcement_state_is_four_term(self):
        # Rebuild the commit circuit with forced round outcomes; after the
        # inner-product rounds the registers hold the two preimage/image
        # pairs tensored with the input qubit: amplitudes alpha/sqrt(2) on
        # (0,x0,y0),(0,x1,y1) and beta/sqrt(2) on (1,x0,y0),(1,x1,y1).
        n, p = 3, perm()
        alpha, beta = 0.6, 0.8j
        rng = Random(11)
        hashes = gf2.sample_independent_rows(n - 1, n, rng)
        s = init_state(cached_layout((("B", 1), ("X", n), ("Y", n))))
        s = s.prepare_qubit("B", alpha, beta).uniform_superpose("X")
        s = s.coherent_eval(p.forward_int, ["X"], "Y")
        max_support = s.support_size
        responses = []
        for i, h in enumerate(hashes):
            r_i = i % 2  # any forced outcome branch works
            parity = lambda y: gf2.dot(h.value, y)
            s = next(post for v, _, post in s.branches(["Y"], parity) if v == r_i)
            responses.append(r_i)
            max_support = max(max_support, s.support_size)
            # every surviving label satisfies all constraints announced so far
            for label in s.amps:
                y_val = s.layout.value(label, "Y")
                assert all(gf2.dot(h2.value, y_val) == r2
                           for h2, r2 in zip(hashes, responses))
            assert s.support_size == 2 * (1 << (n - 1 - i))
        assert max_support <= 2 * (1 << n)
        assert s.support_size == 4
        y0, y1 = solve(hashes, responses, n)
        expected = {}
        for b_val, amp in ((0, alpha * RT2), (1, beta * RT2)):
            for y in (y0.value, y1.value):
                label = (b_val << (2 * n)) | (p.inverse_int(y) << n) | y
                expected[label] = amp
        assert set(s.amps) == set(expected)
        for label, amp in expected.items():
            assert abs(s.amps[label] - amp) < 1e-10

    @pytest.mark.parametrize("want_z", [0, 1])
    def test_post_commit_state_matches_two_term_display(self, want_z):
        n, p = 3, perm()
        alpha, beta = 0.6, 0.8
        for seed in range(64):
            st = novy.attack_commit((alpha, beta), n, p, Random(seed))
            if st.z != want_z:
                continue
            x0, x1 = p.inverse_int(st.y0), p.inverse_int(st.y1)
            if want_z == 0:
                expected = {(0, x0, st.y0): alpha, (1, x1, st.y1): beta}
            else:
                expected = {(0, x1, st.y1): alpha, (1, x0, st.y0): beta}
            labels = {(b << (2 * n)) | (x << n) | y: amp
                      for (b, x, y), amp in expected.items()}
            assert set(st.state.amps) == set(labels)
            for label, amp in labels.items():
                assert abs(st.state.amps[label] - amp) < 1e-10
            return
        pytest.fail(f"no seed below 64 produced z={want_z}")

    def test_exact_bit_marginal_is_born_weights(self):
        st = novy.attack_commit((0.6, 0.8j), 3, perm(), Random(4))
        marg = {v: p for v, p, _ in st.state.branches(["B"])}
        assert marg[0] == pytest.approx(0.36, abs=1e-12)
        assert marg[1] == pytest.approx(0.64, abs=1e-12)

    def test_support_is_exactly_two(self):
        for seed in range(10):
            st = novy.attack_commit((RT2, RT2), 4, ToyPermutation(4), Random(seed))
            assert st.state.support_size == 2


class TestAttackUnveil:
    def test_point_mass_always_unveils_zero(self):
        p = perm()
        for seed in range(20):
            st = novy.attack_commit((1, 0), 3, p, Random(seed))
            b, x = novy.attack_unveil(st, Random(seed + 100))
            assert b == 0
            assert novy.honest_unveil_check(st.transcript, b, x, p) is True

    def test_hadamard_acceptance_and_bit_frequency(self):
        p = perm()
        trials = 10_000
        ones = 0
        for seed in range(trials):
            rng = Random(f"unveil:{seed}")
            st = novy.attack_commit((RT2, RT2), 3, p, rng)
            b, x = novy.attack_unveil(st, rng)
            assert novy.honest_unveil_check(st.transcript, b, x, p) is True
            ones += b
        sigma = math.sqrt(0.25 / trials)
        assert abs(ones / trials - 0.5) <= 3 * sigma

    def test_unveiled_pair_points_at_measured_solution(self):
        p = perm()
        for seed in range(30):
            rng = Random(seed)
            st = novy.attack_commit((0.8, 0.6), 3, p, rng)
            z, y0, y1 = st.z, st.y0, st.y1
            b, x = novy.attack_unveil(st, rng)
            assert p.forward_int(x.value) == (y1 if z ^ b else y0)

    def test_unveil_requires_commit_phase(self):
        st = novy.attack_commit((1, 0), 3, perm(), Random(0))
        novy.attack_unveil(st, Random(1))
        with pytest.raises(ValueError):
            novy.attack_unveil(st, Random(2))


class TestAttackRecover:
    def test_point_mass_recovers_exactly(self):
        st = novy.attack_commit((0, 1), 3, perm(), Random(3))
        final = novy.attack_recover(st)
        assert final.layout.names == ("B",)
        assert final.amps == {1: pytest.approx(1.0 + 0j)}

    def test_complex_state_high_fidelity(self):
        psi = (RT2, 1j * RT2)
        st = novy.attack_commit(psi, 6, ToyPermutation(6), Random(12))
        final = novy.attack_recover(st)
        assert final.fidelity_pure("B", *psi) >= 1 - 1e-9
        assert final.support_size <= 2

    def test_recover_after_unveil_rejected(self):
        st = novy.attack_commit((1, 0), 3, perm(), Random(0))
        novy.attack_unveil(st, Random(1))
        with pytest.raises(ValueError):
            novy.attack_recover(st)
