"""Both attacks' commits against the sparse-state bodies they replaced.

The references below build the whole 2^(n+1)-label superposition and
measure every announced value with ``ref_measure``, the loop a
measurement ran before it became a pick from ``branches``. The attacks
draw instead from the exact weights, 1/2 for each novy parity and z and
2^-n for 2p's z, and keep psi's own amplitudes on the labels z leaves.
For every scenario they must give the reference's transcript, draws,
labels in dict order, unveiled values and RNG use, with amplitudes within
1e-15 of its floats.
"""
import math
import tracemalloc
from fractions import Fraction
from functools import partial
from random import Random

import pytest

from bcsim import engine, gf2, novy, twoprover
from bcsim.engine import NOVY_LINKS, TWO_PROVER_LINKS, Party, Phase, Transcript
from bcsim.gf2 import BitVector
from bcsim.harness import ConfigError, ScenarioConfig, trial_rng
from bcsim.novy import NovyAttackState
from bcsim.perm import ToyPermutation
from bcsim.qsim import SparseState, cached_layout, init_state
from test_qsim import ref_epr_pairs, ref_measure
from test_unveil_reference import BitMatrix, bit_vector, echelon_solve_affine, parity_fn


def ref_novy_attack_commit(psi, n, p, rng, weights=None):
    """The sparse commit; the Born weight of each announced value is
    appended to weights when it is a list."""
    weights = [] if weights is None else weights
    alpha, beta = psi
    if n < 2:
        raise ValueError("n must be at least 2")
    if p.n != n:
        raise ValueError(f"permutation width {p.n} does not match n={n}")
    t = Transcript(NOVY_LINKS)
    layout = cached_layout((("B", 1), ("X", n), ("Y", n)))
    s = init_state(layout).prepare_qubit("B", alpha, beta).uniform_superpose("X")
    s = s.coherent_eval(p.forward_int, ["X"], "Y")
    hashes = gf2.sample_independent_rows(n - 1, n, rng)
    responses = []
    for i, h in enumerate(hashes, start=1):
        t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, f"h_{i}", h)
        r_i, weight, s = ref_measure(s, ["Y"], rng, parity_fn(h.value))
        weights.append(weight)
        responses.append(r_i)
        t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, f"r_{i}", r_i)
    y0, y1 = echelon_solve_affine(BitMatrix.from_rows(hashes, n), bit_vector(responses))
    y1_int = y1.value
    z, weight, s = ref_measure(s, ["B", "Y"], rng, lambda b, y: b ^ (y == y1_int))
    weights.append(weight)
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    st = NovyAttackState(n=n, perm=p, state=s, z=z, y0=y0.value, y1=y1_int, transcript=t)
    return st


def ref_pairs(n):
    """n EPR pairs on (R, R') next to zeroed B and Z."""
    layout = cached_layout((("B", 1), ("R", n), ("Z", n), ("Rp", n)))
    return ref_epr_pairs(init_state(layout), "R", "Rp")


def ref_twoprover_attack_commit(psi, n, rng, *, allow_zero_m1=False, weights=None):
    weights = [] if weights is None else weights
    alpha, beta = psi
    t = Transcript(TWO_PROVER_LINKS)
    m0 = BitVector.from_int(0, n)
    m1 = twoprover._sample_mask(n, rng, allow_zero_m1)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_0", m0)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_1", m1)
    masks = (0, m1.value)
    s = ref_pairs(n).prepare_qubit("B", alpha, beta)
    s = s.coherent_eval(lambda b, r: r ^ masks[b], ["B", "R"], "Z")
    z_int, weight, s = ref_measure(s, ["Z"], rng)
    weights.append(weight)
    z = BitVector.from_int(z_int, n)
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    return twoprover.TwoProverAttackState(n=n, state=s, m1=m1, z=z, transcript=t)


def amps(s):
    """A state's layout and its (label, amplitude) pairs in dict order."""
    return s.layout, list(s.amps.items())


def run_novy(commit, psi, n, seed, unveil):
    p = ToyPermutation(n, a=(2 * seed + 1) % (1 << n), c=seed % (1 << n))
    rng = Random(seed)
    st = commit(psi, n, p, rng)
    out = {"post_commit": amps(st.state), "z": st.z, "y": (st.y0, st.y1)}
    if unveil:
        out["unveiled"] = novy.attack_unveil(st, rng)
    out["final"] = amps(st.state if unveil else novy.attack_recover(st))
    out["transcript"] = st.transcript.to_json()
    out["next_random"] = rng.random()
    return out


def run_twoprover(commit, psi, n, seed, unveil, allow_zero_m1):
    rng = Random(seed)
    st = commit(psi, n, rng, allow_zero_m1=allow_zero_m1)
    out = {"post_commit": amps(st.state), "m1": st.m1, "z": st.z}
    if unveil:
        out["unveiled"] = twoprover.attack_unveil(st, rng)
        out["final"] = amps(st.state)
    else:
        twoprover.reunite(st)
        out["final"] = amps(twoprover.attack_recover(st))
    out["transcript"] = st.transcript.to_json()
    out["next_random"] = rng.random()
    return out


def random_psi(rng):
    alpha = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    beta = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


# An amplitude above the prune threshold that the reference's 2^(-n/2)
# scale takes below it from n = 5, since 5e-12 * 2^(-5/2) < 1e-12.
SCALE_PRUNED = [(1.0, 5e-12), (5e-12j, -1.0)]
# Point masses, inputs equal under == whose zero signs differ, in either
# part of either amplitude, and the scale-pruned pair.
EDGE_PSIS = [(1, 0), (0, 1), (complex(-0.6, -0.0), 0.8), (complex(-0.6, 0.0), 0.8),
             (complex(-0.0, -0.6), 0.8), (0.6, complex(-0.0, -0.8)), *SCALE_PRUNED]


def scenarios(role, n, unveil):
    """28 (psi, seed, allow_zero_m1) per width and branch, 56 per width:
    14 psi, and for 2p both mask rules, for novy two seeds."""
    rng = Random(f"{role}:{n}")
    psis = EDGE_PSIS + [random_psi(rng) for _ in range(6)]
    for k, psi in enumerate(psis):
        for j, allow_zero in enumerate((False, True)):
            seed = 1000 * n + 4 * k + 2 * j + unveil
            yield psi, seed, allow_zero if role == "2p" else False


def hexes(amp):
    return amp.real.hex(), amp.imag.hex()


def assert_matches_reference(got, want, psi, n, b_shift):
    """Everything but the amplitudes' last ulps is the reference's: the
    committed amplitudes are psi's own, and each amplitude is within 1e-15
    of the reference's. Only a scale-pruned psi from n = 5 keeps a block
    label, after the commit and in the recovered qubit, that the
    reference's states lack."""
    for key in want.keys() - {"post_commit", "final"}:
        assert got[key] == want[key], key
    own = (complex(psi[0]), complex(psi[1]))
    assert [hexes(amp) for label, amp in got["post_commit"][1]] == [
        hexes(own[label >> b_shift]) for label, _ in got["post_commit"][1]]
    pruned = psi in SCALE_PRUNED and n >= 5
    for stage in ("post_commit", "final"):
        (layout, got_amps), (want_layout, want_amps) = got[stage], want[stage]
        assert layout == want_layout
        want_of = dict(want_amps)
        shared = [(label, amp) for label, amp in got_amps if label in want_of]
        assert [label for label, _ in shared] == list(want_of), stage
        assert all(abs(amp - want_of[label]) <= 1e-15 for label, amp in shared), stage
        extra = len(got_amps) - len(shared)
        assert extra == (pruned and (stage == "post_commit" or "unveiled" not in got)), stage


BRANCHES = pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "recover"])


@BRANCHES
@pytest.mark.parametrize("n", range(2, 13))
def test_novy_commit_matches_sparse_reference(n, unveil):
    for psi, seed, _ in scenarios("novy", n, unveil):
        weights = []
        want = run_novy(partial(ref_novy_attack_commit, weights=weights), psi, n, seed, unveil)
        got = run_novy(novy.attack_commit, psi, n, seed, unveil)
        assert_matches_reference(got, want, psi, n, 2 * n)
        # Round i sums 2^(n-i+1) labels one at a time, so its float drifts
        # from 1/2 by up to that many unit roundoffs, 5.8e-14 at n = 12;
        # z sums two.
        *rounds, z_weight = weights
        assert len(rounds) == n - 1 and abs(z_weight - 0.5) <= 1e-15, weights
        assert all(abs(w - 0.5) <= (2 << (n - i)) * 2.0 ** -53
                   for i, w in enumerate(rounds, start=1)), weights


@BRANCHES
@pytest.mark.parametrize("n", range(1, 13))
def test_twoprover_commit_matches_sparse_reference(n, unveil):
    zero_masks = 0
    for psi, seed, allow_zero in scenarios("2p", n, unveil):
        weights = []
        want = run_twoprover(partial(ref_twoprover_attack_commit, weights=weights), psi, n, seed,
                             unveil, allow_zero)
        got = run_twoprover(twoprover.attack_commit, psi, n, seed, unveil, allow_zero)
        assert_matches_reference(got, want, psi, n, 3 * n)
        [weight] = weights
        assert abs(weight * (1 << n) - 1.0) <= 1e-15, weight
        zero_masks += want["m1"].value == 0
    if n == 1:
        assert zero_masks, "no scenario drew m_1 = 0"


@pytest.mark.parametrize("n", [4, 5, 12])
@pytest.mark.parametrize("psi", SCALE_PRUNED)
def test_scale_pruned_block_is_kept_where_the_reference_drops_it(psi, n):
    got = novy.attack_commit(psi, n, ToyPermutation(n), Random(n))
    want = ref_novy_attack_commit(psi, n, ToyPermutation(n), Random(n))
    got2 = twoprover.attack_commit(psi, n, Random(n))
    want2 = ref_twoprover_attack_commit(psi, n, Random(n))
    assert got.state.support_size == got2.state.support_size == 2
    assert want.state.support_size == want2.state.support_size == (n < 5) + 1
    assert got.transcript.to_json() == want.transcript.to_json()
    assert got2.transcript.to_json() == want2.transcript.to_json()


@pytest.mark.parametrize("commit", [
    lambda rng: novy.attack_commit((0.6, 0.8j), 5, ToyPermutation(5), rng),
    lambda rng: twoprover.attack_commit((0.6, 0.8j), 5, rng),
], ids=["novy", "2p"])
def test_commit_builds_no_checked_state_and_branches_nothing(monkeypatch, commit):
    # The commit's two labels are a collapse of a checked state, so they
    # skip the norm check, and its picks read exact weights, not a state.
    calls = []
    monkeypatch.setattr(SparseState, "__init__", lambda *args: calls.append("init"))
    monkeypatch.setattr(SparseState, "branches", lambda *args: calls.append("branches"))
    st = commit(Random(1))
    assert calls == [] and st.state.support_size == 2


class ScriptedRandom(Random):
    """A seeded Random that logs its random() and getrandbits() calls, gives
    u on random() call number at and, if bits is set, bits on each
    getrandbits() call after it."""

    def __init__(self, seed, at=0, u=None, bits=None):
        super().__init__(seed)
        self.log, self.at, self.u, self.bits, self.widths = [], at, u, bits, []

    def random(self):
        self.log.append("random")
        return self.u if self.log.count("random") == self.at else super().random()

    def getrandbits(self, k):
        self.log.append("getrandbits")
        self.widths.append(k)
        if self.bits is not None and self.log.count("random") == self.at:
            return self.bits
        return super().getrandbits(k)


@pytest.mark.parametrize("n", [2, 3, 9, 16])
def test_novy_commit_draws_once_per_round_and_once_for_z(n):
    # Rows come from getrandbits, so the n - 1 rounds' picks and then z's
    # are the commit's only random() calls.
    for seed in range(5):
        rng = ScriptedRandom(seed)
        novy.attack_commit((0.6, 0.8j), n, ToyPermutation(n, a=3, c=1), rng)
        assert rng.log.count("random") == n


@pytest.mark.parametrize("allow_zero_m1", [False, True])
@pytest.mark.parametrize("n", [1, 2, 9, 16, 53])
def test_twoprover_commit_draws_once_after_its_masks(n, allow_zero_m1):
    for seed in range(5):
        rng = ScriptedRandom(seed)
        twoprover.attack_commit((0.6, 0.8j), n, rng, allow_zero_m1=allow_zero_m1)
        assert rng.log[-1] == "random" and rng.log.count("random") == 1, rng.log


@pytest.mark.parametrize("n", [1, 2, 5, 16, 53])
def test_twoprover_z_is_the_floor_of_u_times_2_to_the_n(n):
    size = 1 << n
    ks = range(size) if n <= 5 else (0, 1, 2, size // 3, size // 2, size - 2, size - 1)
    us = {math.nextafter(1.0, 0.0)}
    for k in ks:
        u = k / size
        us.update(v for v in (math.nextafter(u, -math.inf), u, math.nextafter(u, math.inf))
                  if 0.0 <= v < 1.0)
    for u in sorted(us):
        st = twoprover.attack_commit((0.6, 0.8j), n, ScriptedRandom(n, 1, u))
        assert st.z.value == math.floor(Fraction(u) * size), u
    assert st.z.value == size - 1  # u = nextafter(1, 0), the largest random()


@pytest.mark.parametrize("allow_zero_m1", [False, True])
@pytest.mark.parametrize("n", [54, 64, 1024])
def test_twoprover_z_above_53_bits_takes_its_low_bits_from_getrandbits(n, allow_zero_m1):
    # random() gives z's top 53 bits, exactly, and one getrandbits the rest.
    low = n - 53
    for seed in range(5):
        rng = ScriptedRandom(seed)
        twoprover.attack_commit((0.6, 0.8j), n, rng, allow_zero_m1=allow_zero_m1)
        assert rng.log[-2:] == ["random", "getrandbits"] and rng.log.count("random") == 1
        assert rng.widths[-1] == low
        for u, bits in ((0.0, 0), (0.0, 1), (0.5, 0), (1 / 3, seed * 0x9e3779b9 % (1 << low)),
                        (math.nextafter(1.0, 0.0), 0), (math.nextafter(1.0, 0.0), (1 << low) - 1)):
            st = twoprover.attack_commit((0.6, 0.8j), n, ScriptedRandom(seed, 1, u, bits),
                                         allow_zero_m1=allow_zero_m1)
            assert st.z.value == math.floor(Fraction(u) * 2 ** 53) << low | bits, (u, bits)
        assert st.z.value == (1 << n) - 1  # the largest random() and all-ones bits


@pytest.mark.parametrize("n", [2, 3, 9, 16])
def test_novy_round_pick_splits_at_one_half(n):
    # Round i is random() call number i: r_i is 0 just below 1/2 and 1 from
    # 1/2 on, in every round, since each round weighs exactly 1/2.
    p = ToyPermutation(n, a=3, c=1)
    for i in range(1, n):
        for u in (math.nextafter(0.5, -math.inf), 0.5, math.nextafter(0.5, math.inf)):
            rng = ScriptedRandom(n, i, u)
            st = novy.attack_commit((0.6, 0.8j), n, p, rng)
            [r_i] = [m["value"] for m in st.transcript.to_json() if m["name"] == f"r_{i}"]
            assert r_i == (u >= 0.5) and rng.log.count("random") == n, (i, u)


def commit_with_z_draw(commit, psi, n, seed, u):
    p = ToyPermutation(n, a=(2 * seed + 1) % (1 << n), c=seed % (1 << n))
    rng = ScriptedRandom(seed, n, u)
    st = commit(psi, n, p, rng)
    assert rng.log.count("random") == n
    return st.z, list(st.state.amps), st.transcript.to_json(), rng.random()


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("psi", [(0.6, 0.8j), (0.8, -0.6)], ids=["complex", "real"])
def test_novy_z_pick_at_one_half_matches_the_reference(psi, n):
    # z's draw just below, at and just above 1/2. The exact pick splits z = 0
    # from z = 1 at 1/2, the reference at its float weight w0 of z = 0, which
    # may sit an ulp off; where both splits put u on one side, all matches.
    zs = set()
    for u in (math.nextafter(0.5, -math.inf), 0.5, math.nextafter(0.5, math.inf)):
        for seed in (n, n + 1):
            weights = []
            commit_with_z_draw(partial(ref_novy_attack_commit, weights=weights), psi, n, seed, 0.0)
            w0 = weights[-1]
            want = commit_with_z_draw(ref_novy_attack_commit, psi, n, seed, u)
            got = commit_with_z_draw(novy.attack_commit, psi, n, seed, u)
            assert got[0] == (u >= 0.5) and want[0] == (u >= w0), (u, seed, w0)
            if (u >= 0.5) == (u >= w0):
                assert got == want, (u, seed)
            zs.add(got[0])
    assert zs == {0, 1}


INDEPENDENCE_PSIS = [(1, 0), (0, 1), (1 / math.sqrt(2), 1 / math.sqrt(2)),
                     (1 / math.sqrt(2), 1j / math.sqrt(2)), (0.6, 0.8j),
                     random_psi(Random("independence")), (1.0, 5e-12)]


@pytest.mark.parametrize("width", ["narrowest", 9, 16, 64, 1024])
@pytest.mark.parametrize("protocol", ["novy-attack", "2p-attack"])
@BRANCHES
def test_attack_picks_do_not_depend_on_psi(protocol, unveil, width):
    # Every announced value weighs the same for every psi, so one seed
    # draws one commit, and the same number of random() calls, for all.
    # Novy's default permutation needs n >= 3, so novy runs a = 3, c = 1.
    # A novy trial at n = 1024 takes about 0.1 s, so that width runs 3 seeds.
    narrowest, own = {"novy-attack": (2, {"perm_a": 3, "perm_c": 1}),
                      "2p-attack": (1, {})}[protocol]
    n = narrowest if width == "narrowest" else width
    for seed in range(3 if n == 1024 else 20):
        seen = set()
        for psi in INDEPENDENCE_PSIS:
            config = ScenarioConfig(protocol=protocol, n=n, psi=psi, unveil=unveil, **own)
            rng = Random(seed)
            t, outcome = engine.run_protocol(config, rng)
            messages = t.to_json()
            if unveil:
                assert outcome.accepted
                messages = [m for m in messages if m["phase"] == "commit"]
            else:
                assert outcome.recovery_fidelity >= 1 - 1e-9, (psi, n, seed)
            seen.add((repr(messages), rng.random()))
        assert len(seen) == 1, (n, seed)


def test_every_block_above_the_prune_threshold_is_kept():
    # As prepare_qubit does, a commit drops a block only when its
    # amplitude is at most PRUNE_EPS, at every n.
    for n in range(2, 17):
        for psi, support in (((1.0, 5e-12), 2), ((5e-12j, -1.0), 2), ((1.0, 1e-13), 1)):
            st = novy.attack_commit(psi, n, ToyPermutation(n, a=3, c=1), Random(n))
            st2 = twoprover.attack_commit(psi, n, Random(n))
            assert st.state.support_size == st2.state.support_size == support, (psi, n)


@pytest.mark.parametrize("psi", [(1, 1), (float("nan"), 1), (0.6, complex(0.8, float("inf")))],
                         ids=["unnormalized", "nan", "inf"])
def test_bad_qubits_rejected_like_the_reference(psi):
    # Each commit raises the ConfigError text that validate gives its config.
    refusals = {}
    for protocol in ("novy-attack", "2p-attack"):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(protocol=protocol, n=3, psi=psi).validate()
        refusals[protocol] = str(info.value)
    with pytest.raises(ValueError):
        ref_novy_attack_commit(psi, 3, ToyPermutation(3), Random(0))
    with pytest.raises(ConfigError) as info:
        novy.attack_commit(psi, 3, ToyPermutation(3), Random(0))
    assert str(info.value) == refusals["novy-attack"]
    with pytest.raises(ValueError):
        ref_twoprover_attack_commit(psi, 3, Random(0))
    with pytest.raises(ConfigError) as info:
        twoprover.attack_commit(psi, 3, Random(0))
    assert str(info.value) == refusals["2p-attack"]


@pytest.mark.parametrize("protocol", ["novy-attack", "2p-attack"])
@pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "recover"])
def test_widest_trial_stays_small(protocol, unveil):
    # The 2^17-label states of the sparse commit peaked at 10-34 MB here.
    config = ScenarioConfig(protocol=protocol, n=16, psi=(0.6, 0.8j), unveil=unveil)
    tracemalloc.start()
    try:
        engine.run_protocol(config, trial_rng(5, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("protocol,widths", [("novy-attack", (3, 4, 9, 16)),
                                             ("2p-attack", (1, 2, 9, 16))])
@pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "recover"])
def test_trial_states_hold_at_most_two_labels(monkeypatch, protocol, widths, unveil):
    # Each attack commit builds only the labels its z leaves, one per block
    # of B, and every later step keeps or shrinks that support; a commit
    # that went back to the 2^(n+1)-label superposition, or to its four
    # labels, would fail here, on the unveil and on the recovery path.
    seen = []
    for op in ("branches", "coherent_eval", "discard_zeroed", "fidelity_pure"):
        def spy(self, *args, _op=getattr(SparseState, op), **kwargs):
            seen.append(self.support_size)
            return _op(self, *args, **kwargs)
        monkeypatch.setattr(SparseState, op, spy)
    for n in widths:
        config = ScenarioConfig(protocol=protocol, n=n, psi=(0.6, 0.8j), unveil=unveil)
        for i in range(3):
            engine.run_protocol(config, trial_rng(n, i))
    assert seen and max(seen) <= 2
