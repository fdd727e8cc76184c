import math
from random import Random

import pytest

from bcsim import twoprover
from bcsim.engine import TWO_PROVER_LINKS, Party, Phase, SeparationBreachError, Transcript
from bcsim.gf2 import BitVector
from test_attack_reference import ref_pairs

RT2 = 1 / math.sqrt(2)


class TestHonestInit:
    def test_shared_string_is_copied(self):
        for seed in range(20):
            st = twoprover.honest_init(3, Random(seed))
            assert st.r == st.r_prime

    def test_split_blocks_prover_link(self):
        st = twoprover.honest_init(2, Random(0))
        with pytest.raises(SeparationBreachError):
            st.transcript.announce(Party.ALICE, Party.ALYSON, Phase.COMMIT, "leak", 1)

    def test_shared_string_marginal_uniform(self):
        # Chi-square over the 4 values of a width-2 string at 1e4 draws;
        # threshold is the df=3 critical value at alpha ~ 1e-3.
        draws = 10_000
        counts = [0, 0, 0, 0]
        for seed in range(draws):
            st = twoprover.honest_init(2, Random(f"r:{seed}"))
            counts[st.r.to_int()] += 1
        expected = draws / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 16.27


class TestHonestCommit:
    def test_bit_zero_sends_r(self):
        st = twoprover.honest_init(3, Random(1))
        twoprover.honest_commit(st, 0, Random(2))
        assert st.z == st.r

    def test_bit_one_sends_masked_r(self):
        st = twoprover.honest_init(3, Random(3))
        twoprover.honest_commit(st, 1, Random(4))
        assert st.z ^ st.m1 == st.r

    def test_fixed_z_explains_both_bits(self):
        # Bob's view is consistent with b=0 via r=z and with b=1 via r=z^m1.
        st = twoprover.honest_init(3, Random(5))
        t = twoprover.honest_commit(st, 0, Random(6))
        z, m1 = st.z, st.m1
        assert twoprover.honest_unveil_check(t, 0, z, z) is True
        assert twoprover.honest_unveil_check(t, 1, z ^ m1, z ^ m1) is True

    def test_mask_never_zero_by_default(self):
        for seed in range(200):
            st = twoprover.honest_init(2, Random(seed))
            twoprover.honest_commit(st, 0, Random(seed + 1000))
            assert not st.m1.is_zero()

    def test_zero_mask_reachable_when_allowed(self):
        seen_zero = False
        for seed in range(200):
            st = twoprover.honest_init(2, Random(seed))
            twoprover.honest_commit(st, 0, Random(seed + 1000), allow_zero_m1=True)
            seen_zero |= st.m1.is_zero()
        assert seen_zero


class TestHonestUnveil:
    def test_true_opening_accepted(self):
        st = twoprover.honest_init(3, Random(7))
        t = twoprover.honest_commit(st, 1, Random(8))
        twoprover.honest_unveil(st)
        assert twoprover.honest_unveil_check(t, st.b, st.r, st.r_prime) is True

    def test_flipped_bit_rejected(self):
        st = twoprover.honest_init(3, Random(9))
        t = twoprover.honest_commit(st, 1, Random(10))
        assert twoprover.honest_unveil_check(t, 0, st.r, st.r_prime) is False

    def test_disagreeing_provers_rejected(self):
        st = twoprover.honest_init(3, Random(11))
        t = twoprover.honest_commit(st, 0, Random(12))
        wrong = st.r ^ BitVector.parse("001")
        assert twoprover.honest_unveil_check(t, 0, st.r, wrong) is False

    @pytest.mark.parametrize("field,value", [
        ("b", 2), ("b", -1), ("b", "x"), ("b", 1.0), ("b", None),
        ("r", BitVector.parse("00")), ("r", BitVector.parse("0000")), ("r", "000"),
    ], ids=["b=2", "b=-1", "b=str", "b=float", "b=None",
            "r-narrow", "r-wide", "r-str"])
    def test_malformed_opening_rejected(self, field, value):
        # Each opening is honest except for the one malformed field; a bad r
        # is disclosed by both provers, so r = r' still holds.
        for seed in range(8):
            st = twoprover.honest_init(3, Random(seed))
            t = twoprover.honest_commit(st, seed % 2, Random(seed + 100))
            opening = {"b": st.b, "r": st.r, field: value}
            assert twoprover.honest_unveil_check(t, opening["b"], opening["r"], opening["r"]) is False

    def test_malformed_transcript(self):
        with pytest.raises(ValueError):
            twoprover.honest_unveil_check(Transcript(TWO_PROVER_LINKS), 0, BitVector.parse("000"),
                                          BitVector.parse("000"))

    @pytest.mark.parametrize("name,value", [
        ("m_0", None), ("m_1", 5), ("z", BitVector.parse("00")), ("m_1", BitVector.parse("0000")),
    ], ids=["m_0=None", "m_1-int", "z-narrow", "m_1-wide"])
    def test_malformed_transcript_value_raises(self, name, value):
        # An honest b = 1 commitment with one announced value replaced.
        st = twoprover.honest_init(3, Random(7))
        t = twoprover.honest_commit(st, 1, Random(8))
        forged = Transcript(TWO_PROVER_LINKS)
        for m in t.messages:
            forged.announce(m.sender, m.receiver, m.phase, m.name,
                            value if m.name == name else m.value)
        assert [m.round for m in forged.messages] == [m.round for m in t.messages]
        with pytest.raises(ValueError, match="malformed transcript"):
            twoprover.honest_unveil_check(forged, st.b, st.r, st.r_prime)


class TestAttackInit:
    # The shared pairs exist only inside attack_commit, which carries one
    # amplitude per block of B; the sparse reference build stands in for them.
    def test_single_pair_support(self):
        marg = {v: p for v, p, _ in ref_pairs(1).branches(["R", "Rp"])}
        assert marg == pytest.approx({0b00: 0.5, 0b11: 0.5})

    def test_marginal_of_r_uniform(self):
        assert {v: p for v, p, _ in ref_pairs(2).branches(["R"])} == pytest.approx(
            {v: 0.25 for v in range(4)})

    def test_any_measurement_interleaving_agrees(self):
        for seed in range(20):
            pairs = ref_pairs(2)
            rng = Random(seed)
            if seed % 2:
                r, _, s = pairs.measure(["R"], rng)
                rp, _, _ = s.measure(["Rp"], rng)
            else:
                rp, _, s = pairs.measure(["Rp"], rng)
                r, _, _ = s.measure(["R"], rng)
            assert r == rp


class TestAttackCommit:
    def test_post_measurement_state_is_two_term_display(self):
        n = 2
        alpha, beta = 0.6, 0.8
        for seed in range(10):
            st = twoprover.attack_init(n)
            twoprover.attack_commit(st, (alpha, beta), Random(seed))
            z, m1 = st.z.to_int(), st.m1.to_int()
            label0 = (0 << 3 * n) | (z << 2 * n) | (z << n) | z
            r1 = z ^ m1
            label1 = (1 << 3 * n) | (r1 << 2 * n) | (z << n) | r1
            assert set(st.state.amps) == {label0, label1}
            assert abs(st.state.amps[label0] - alpha) < 1e-10
            assert abs(st.state.amps[label1] - beta) < 1e-10

    def test_point_mass_state(self):
        st = twoprover.attack_init(2)
        twoprover.attack_commit(st, (1, 0), Random(5))
        z = st.z.to_int()
        assert st.state.amps == {((z << 4) | (z << 2) | z): pytest.approx(1.0 + 0j)}

    def test_announced_z_marginal_uniform_regardless_of_psi(self):
        n = 2
        for psi in ((1, 0), (0.6, 0.8j), (RT2, RT2)):
            s = ref_pairs(n).prepare_qubit("B", *psi)
            m1 = 0b10
            masks = (0, m1)
            s = s.coherent_eval(lambda b, r: r ^ masks[b], ["B", "R"], "Z")
            assert {v: p for v, p, _ in s.branches(["Z"])} == pytest.approx(
                {v: 0.25 for v in range(4)}, abs=1e-12)


class TestAttackUnveil:
    def test_provers_agree_without_communication(self):
        for seed in range(200):
            rng = Random(seed)
            st = twoprover.attack_init(3)
            t = twoprover.attack_commit(st, (0.6, 0.8), rng)
            b, r, rp = twoprover.attack_unveil(st, rng)
            assert r == rp
            assert r == st.z ^ (st.m1 if b else st.m0)
            assert twoprover.honest_unveil_check(t, b, r, rp) is True

    def test_hadamard_acceptance_and_bit_frequency(self):
        trials = 10_000
        ones = 0
        for seed in range(trials):
            rng = Random(f"2p:{seed}")
            st = twoprover.attack_init(2)
            t = twoprover.attack_commit(st, (RT2, RT2), rng)
            b, r, rp = twoprover.attack_unveil(st, rng)
            assert twoprover.honest_unveil_check(t, b, r, rp) is True
            ones += b
        sigma = math.sqrt(0.25 / trials)
        assert abs(ones / trials - 0.5) <= 3 * sigma

    def test_measurement_order_does_not_change_joint_distribution(self):
        # Alice-first vs Alyson-first branch walks produce identical exact
        # joint tables over (b, r, r').
        def joint(order):
            st = twoprover.attack_init(2)
            twoprover.attack_commit(st, (0.6, 0.8j), Random(77))
            table = {}

            def walk(s, prob, remaining, assigned):
                if not remaining:
                    key = (assigned["B"], assigned["R"], assigned["Rp"])
                    table[key] = table.get(key, 0.0) + prob
                    return
                reg = remaining[0]
                for v, p, collapsed in s.branches([reg]):
                    walk(collapsed, prob * p, remaining[1:], {**assigned, reg: v})

            walk(st.state, 1.0, order, {})
            return table

        alice_first = joint(["B", "R", "Rp"])
        alyson_first = joint(["Rp", "B", "R"])
        assert set(alice_first) == set(alyson_first)
        for key in alice_first:
            assert alice_first[key] == pytest.approx(alyson_first[key], abs=1e-12)


class TestAttackRecover:
    def test_point_mass_recovers_exactly(self):
        st = twoprover.attack_init(2)
        twoprover.attack_commit(st, (0, 1), Random(1))
        twoprover.reunite(st)
        final = twoprover.attack_recover(st)
        assert final.layout.names == ("B",)
        assert final.amps == {1: pytest.approx(1.0 + 0j)}

    def test_real_state_high_fidelity(self):
        st = twoprover.attack_init(4)
        twoprover.attack_commit(st, (0.6, 0.8), Random(2))
        twoprover.reunite(st)
        final = twoprover.attack_recover(st)
        assert final.fidelity_pure("B", 0.6, 0.8) >= 1 - 1e-9

    def test_recovery_blocked_while_separated(self):
        st = twoprover.attack_init(2)
        twoprover.attack_commit(st, (RT2, RT2), Random(3))
        with pytest.raises(SeparationBreachError):
            twoprover.attack_recover(st)

    def test_reunion_recorded_in_transcript(self):
        st = twoprover.attack_init(2)
        twoprover.attack_commit(st, (RT2, RT2), Random(4))
        twoprover.reunite(st)
        twoprover.attack_recover(st)
        reunion = [m for m in st.transcript.messages if m.name == "reunion"]
        assert len(reunion) == 1
        assert reunion[0].phase is Phase.RECOVER

    def test_reunite_requires_wait_phase(self):
        st = twoprover.attack_init(2)
        with pytest.raises(ValueError):
            twoprover.reunite(st)
