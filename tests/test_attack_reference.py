"""Both attacks' commits against the sparse-state bodies they replaced.

The references below build the whole 2^(n+1)-label superposition and
measure every announced value with ``ref_measure``, the loop a
measurement ran before it became a pick from ``branches``, as the
attacks did before they carried one amplitude per block of B. The block
form must give, for every scenario, the same transcript, the same
post-commit and final states (labels, dict order and ``float.hex``
amplitudes), the same unveiled values and the same RNG use, whether the
commits' per-(psi, n) caches start cold or hot.
"""
import math
import tracemalloc
from itertools import accumulate
from random import Random

import pytest

from bcsim import engine, gf2, novy, twoprover
from bcsim.engine import NOVY_LINKS, TWO_PROVER_LINKS, Party, Phase, Transcript
from bcsim.gf2 import BitVector
from bcsim.harness import ConfigError, ScenarioConfig, trial_rng
from bcsim.novy import NovyAttackState
from bcsim.perm import ToyPermutation
from bcsim.qsim import (SparseState, block_amplitudes, cached_layout, choose, init_state,
                        psi_key, repeated_weight)
from test_qsim import exact, ref_epr_pairs, ref_measure
from test_unveil_reference import BitMatrix, bit_vector, echelon_solve_affine, parity_fn


def ref_novy_attack_commit(psi, n, p, rng):
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
        r_i, _, s = ref_measure(s, ["Y"], rng, parity_fn(h.value))
        responses.append(r_i)
        t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, f"r_{i}", r_i)
    y0, y1 = echelon_solve_affine(BitMatrix.from_rows(hashes, n), bit_vector(responses))
    y1_int = y1.value
    z, _, s = ref_measure(s, ["B", "Y"], rng, lambda b, y: b ^ (y == y1_int))
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    st = NovyAttackState(n=n, perm=p, state=s, z=z, y0=y0.value, y1=y1_int, transcript=t)
    return st


def ref_pairs(n):
    """n EPR pairs on (R, R') next to zeroed B and Z."""
    layout = cached_layout((("B", 1), ("R", n), ("Z", n), ("Rp", n)))
    return ref_epr_pairs(init_state(layout), "R", "Rp")


def ref_twoprover_attack_commit(psi, n, rng, *, allow_zero_m1=False):
    alpha, beta = psi
    t = Transcript(TWO_PROVER_LINKS)
    m0 = BitVector.from_int(0, n)
    m1 = twoprover._sample_mask(n, rng, allow_zero_m1)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_0", m0)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_1", m1)
    masks = (0, m1.value)
    s = ref_pairs(n).prepare_qubit("B", alpha, beta)
    s = s.coherent_eval(lambda b, r: r ^ masks[b], ["B", "R"], "Z")
    z_int, _, s = ref_measure(s, ["Z"], rng)
    z = BitVector.from_int(z_int, n)
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    return twoprover.TwoProverAttackState(n=n, state=s, m1=m1, z=z, transcript=t)


def run_novy(commit, psi, n, seed, unveil):
    p = ToyPermutation(n, a=(2 * seed + 1) % (1 << n), c=seed % (1 << n))
    rng = Random(seed)
    st = commit(psi, n, p, rng)
    out = {"post_commit": exact(st.state), "z": st.z, "y": (st.y0, st.y1)}
    if unveil:
        out["unveiled"] = novy.attack_unveil(st, rng)
    out["final"] = exact(st.state if unveil else novy.attack_recover(st))
    out["transcript"] = st.transcript.to_json()
    out["next_random"] = rng.random()
    return out


def run_twoprover(commit, psi, n, seed, unveil, allow_zero_m1):
    rng = Random(seed)
    st = commit(psi, n, rng, allow_zero_m1=allow_zero_m1)
    out = {"post_commit": exact(st.state), "m1": st.m1, "z": st.z}
    if unveil:
        out["unveiled"] = twoprover.attack_unveil(st, rng)
        out["final"] = exact(st.state)
    else:
        twoprover.reunite(st)
        out["final"] = exact(twoprover.attack_recover(st))
    out["transcript"] = st.transcript.to_json()
    out["next_random"] = rng.random()
    return out


def random_psi(rng):
    alpha = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    beta = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


# Point masses; inputs equal under == whose zero signs differ, in either
# part of either amplitude; and an amplitude above the prune threshold that
# 2^(-n/2) takes below it from n = 5.
EDGE_PSIS = [(1, 0), (0, 1), (complex(-0.6, -0.0), 0.8), (complex(-0.6, 0.0), 0.8),
             (complex(-0.0, -0.6), 0.8), (0.6, complex(-0.0, -0.8)),
             (1.0, 5e-12), (5e-12j, -1.0)]


def scenarios(role, n):
    """56 (psi, seed, unveil, allow_zero_m1) per width: 14 psi, both
    branches, and for 2p both mask rules, for novy two seeds."""
    rng = Random(f"{role}:{n}")
    psis = EDGE_PSIS + [random_psi(rng) for _ in range(6)]
    for k, psi in enumerate(psis):
        for unveil in (True, False):
            for j, allow_zero in enumerate((False, True)):
                seed = 1000 * n + 4 * k + 2 * j + unveil
                yield psi, seed, unveil, allow_zero if role == "2p" else False


def clear_commit_caches():
    novy._round_weights.cache_clear()
    twoprover._commit_weights.cache_clear()
    twoprover._z_sums.cache_clear()


@pytest.mark.parametrize("n", range(2, 13))
def test_novy_commit_matches_sparse_reference(n):
    for psi, seed, unveil, _ in scenarios("novy", n):
        want = run_novy(ref_novy_attack_commit, psi, n, seed, unveil)
        clear_commit_caches()
        cold = run_novy(novy.attack_commit, psi, n, seed, unveil)
        hot = run_novy(novy.attack_commit, psi, n, seed, unveil)
        assert novy._round_weights.cache_info()[:2] == (1, 1)  # hits, misses
        assert cold == want and hot == want, (psi, seed, unveil)


@pytest.mark.parametrize("n", range(1, 13))
def test_twoprover_commit_matches_sparse_reference(n):
    zero_masks = 0
    for psi, seed, unveil, allow_zero in scenarios("2p", n):
        want = run_twoprover(ref_twoprover_attack_commit, psi, n, seed, unveil, allow_zero)
        clear_commit_caches()
        cold = run_twoprover(twoprover.attack_commit, psi, n, seed, unveil, allow_zero)
        hot = run_twoprover(twoprover.attack_commit, psi, n, seed, unveil, allow_zero)
        assert twoprover._commit_weights.cache_info()[:2] == (1, 1)
        assert twoprover._z_sums.cache_info()[:2] == (1, 1)
        assert cold == want and hot == want, (psi, seed, unveil, allow_zero)
        zero_masks += want["m1"].value == 0
    if n == 1:
        assert zero_masks, "no scenario drew m_1 = 0"


def cache_calls(module):
    """Hits plus misses so far of each lru_cache the module defines, by name."""
    return {name: sum(obj.cache_info()[:2]) for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}


@pytest.mark.parametrize("module,commit,reads", [
    (novy, lambda rng: novy.attack_commit((0.6, 0.8j), 5, ToyPermutation(5), rng),
     {"_round_weights": 1}),
    (twoprover, lambda rng: twoprover.attack_commit((0.6, 0.8j), 5, rng),
     {"_commit_weights": 1, "_z_sums": 1}),
], ids=["novy", "2p"])
def test_hot_commit_reads_one_per_psi_cache_and_builds_no_checked_state(monkeypatch, module,
                                                                         commit, reads):
    # The per-(psi, n) cache holds the layout too, and the commit's two
    # labels are a collapse of a checked state, so they skip the norm check.
    commit(Random(0))
    inits = []
    monkeypatch.setattr(SparseState, "__init__", lambda *args: inits.append(args))
    before = cache_calls(module)
    st = commit(Random(1))
    after = cache_calls(module)
    assert {name: after[name] - before[name] for name in after if after[name] != before[name]} == reads
    assert inits == [] and st.state.support_size == 2


# Equal under == and hash, but block_amplitudes keeps the zero's sign.
SIGNED_ZERO_PAIR = ((complex(-0.0, 0.6), 0.8), (complex(0.0, 0.6), 0.8))


@pytest.mark.parametrize("n", [2, 5, 9])
def test_zero_signs_get_their_own_cached_weights(n):
    first, second = SIGNED_ZERO_PAIR
    assert first == second and hash(first) == hash(second)
    assert ([a.real.hex() for a in block_amplitudes(*first, n).values()]
            != [a.real.hex() for a in block_amplitudes(*second, n).values()])
    for order in (SIGNED_ZERO_PAIR, SIGNED_ZERO_PAIR[::-1]):
        clear_commit_caches()
        for psi in order:
            for seed in (n, n + 1):
                assert (run_novy(novy.attack_commit, psi, n, seed, False)
                        == run_novy(ref_novy_attack_commit, psi, n, seed, False)), (psi, seed)
                assert (run_twoprover(twoprover.attack_commit, psi, n, seed, True, False)
                        == run_twoprover(ref_twoprover_attack_commit, psi, n, seed, True, False))
        # One miss per psi: the second sign did not hit the first's entry.
        for cache in (novy._round_weights, twoprover._commit_weights):
            assert cache.cache_info()[:2] == (2, 2), cache


class StubRandom:
    """random() always gives u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def outcome(pick, *args):
    try:
        return pick(*args)
    except ValueError as exc:
        return str(exc)


def ref_pick_z(up, down, n, m, rng):
    """The 2p commit's z pick before it bisected cached running sums."""
    return choose(((z, up if z <= z ^ m else down) for z in range(1 << n)), rng)


@pytest.mark.parametrize("path", ["cold", "growing"])
@pytest.mark.parametrize("allow_zero_m1", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_table_pick_matches_choose(n, allow_zero_m1, path, monkeypatch):
    # Chunks of 3 sums leave a table part made between picks: "cold" picks
    # each u from a new table, "growing" from one the earlier picks made.
    monkeypatch.setattr(twoprover, "_CHUNK", 3)
    clear_commit_caches()
    psis = [(0.6, 0.8j), (1, 0), *(random_psi(Random(k)) for k in range(3))]
    weights = [(repeated_weight([(amp, 1) for amp in blocks.values()]),
                repeated_weight([(amp, 1) for amp in reversed(blocks.values())]))
               for blocks in (block_amplitudes(*psi, n) for psi in psis)]
    # Up and down far apart, so a pick that reads the wrong bit shows; and
    # a weight of 0, which both picks must refuse when they land on it.
    weights += [(1.5 / (1 << n), 0.5 / (1 << n)), (0.0, 2.0 / (1 << n))]
    masks = [0] * allow_zero_m1 + [m for lead in range(n) for m in (1 << lead, (2 << lead) - 1)]
    for up, down in weights:
        for m in masks:
            top = 1 << m.bit_length() >> 1
            sums = list(accumulate(down if z & top else up for z in range(1 << n)))
            us = {0.0, math.nextafter(sums[-1], math.inf), max(sums[-1], math.nextafter(1.0, 0.0))}
            for total in sums:
                us.update((math.nextafter(total, -math.inf), total, math.nextafter(total, math.inf)))
            for u in sorted(us) + sorted(us, reverse=True):
                if path == "cold":
                    twoprover._z_sums.cache_clear()
                got = outcome(twoprover._pick_z, up, down, n, m, StubRandom(u))
                want = outcome(ref_pick_z, up, down, n, m, StubRandom(u))
                assert got == want, (up, down, m, u)


def test_second_trial_repeats_no_weight_sum(monkeypatch):
    novy_sums, made, twoprover_labels = [], [], []
    real_weight, real_accumulate = novy.repeated_weight, twoprover.accumulate

    def novy_spy(runs):
        novy_sums.append(runs)
        return real_weight(runs)

    def twoprover_spy(runs):
        twoprover_labels.append(sum(count for _, count in runs))
        return real_weight(runs)

    def accumulate_spy(weights):
        table = len(made)  # one table per leading bit; count the sums it makes
        made.append(0)
        for total in real_accumulate(weights):
            made[table] += 1
            yield total

    monkeypatch.setattr(novy, "repeated_weight", novy_spy)
    monkeypatch.setattr(twoprover, "repeated_weight", twoprover_spy)
    monkeypatch.setattr(twoprover, "accumulate", accumulate_spy)
    clear_commit_caches()
    n, psi = 12, (0.6, 0.8j)
    novy.attack_commit(psi, n, ToyPermutation(n), Random(1))
    assert len(novy_sums) == n  # the n - 1 rounds and z
    novy_sums.clear()
    for seed in range(2, 50):  # other rows, same weights
        novy.attack_commit(psi, n, ToyPermutation(n), Random(seed))
    assert novy_sums == []

    twoprover.attack_commit(psi, n, Random(1))
    first = list(made)
    assert len(first) == 1 and 0 < first[0] <= 1 << n
    twoprover.attack_commit(psi, n, Random(1))  # the same draw makes nothing new
    assert made == first
    # Over many masks, one table per leading bit of m_1, each sum made at
    # most once; each trial weighs its two labels, twice.
    leads = {twoprover.attack_commit(psi, n, Random(seed)).m1.value.bit_length()
             for seed in range(1, 200)}
    assert len(made) == len(leads) > 1
    assert max(made) <= 1 << n
    assert set(twoprover_labels) == {2}
    # A cold pick makes the sums only up to the chunk that passes its draw.
    twoprover._pick_z(2.0 ** -n, 2.0 ** -n, n, 1, StubRandom(0.1))
    assert made[-1] == twoprover._CHUNK < 1 << n


class ScriptedRandom(Random):
    """A seeded Random whose random() gives u on call number at only."""

    def __init__(self, seed, at, u):
        super().__init__(seed)
        self.calls, self.at, self.u = 0, at, u

    def random(self):
        self.calls += 1
        return self.u if self.calls == self.at else super().random()


def commit_with_z_draw(commit, psi, n, seed, u):
    # Rows come from getrandbits, so the n - 1 rounds' picks and then z's
    # are the commit's only random() calls: z's is call number n.
    p = ToyPermutation(n, a=(2 * seed + 1) % (1 << n), c=seed % (1 << n))
    rng = ScriptedRandom(seed, n, u)
    st = commit(psi, n, p, rng)
    assert rng.calls == n
    return exact(st.state), st.z, st.transcript.to_json(), rng.random()


@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("psi", [(0.6, 0.8j), (1.0, 5e-12)], ids=["two-block", "pruned"])
def test_novy_z_pick_at_its_boundaries_matches_the_reference(psi, n):
    # Both z classes weigh w; u below, at and above w, at 2w, which choose
    # sums exactly, and at the largest random() the float dust must send to z = 1.
    _, _, ((_, w), _), _, _ = novy._round_weights(psi_key(*psi), n)
    zs = set()
    for u in (math.nextafter(w, -math.inf), w, math.nextafter(w, math.inf), 2 * w,
              math.nextafter(1.0, 0.0)):
        for seed in (n, n + 1):
            want = commit_with_z_draw(ref_novy_attack_commit, psi, n, seed, u)
            got = commit_with_z_draw(novy.attack_commit, psi, n, seed, u)
            assert got == want, (u, seed)
            zs.add(got[1])
    assert zs == {0, 1}


def test_hot_novy_commit_branches_nothing(monkeypatch):
    calls = []
    real_branches = SparseState.branches

    def spy(self, *args, **kwargs):
        calls.append(self.support_size)
        return real_branches(self, *args, **kwargs)

    n = 10
    novy.attack_commit((0.6, 0.8j), n, ToyPermutation(n), Random(1))  # fill the caches
    monkeypatch.setattr(SparseState, "branches", spy)
    for seed in range(2, 10):
        novy.attack_commit((0.6, 0.8j), n, ToyPermutation(n), Random(seed))
    assert calls == []


@pytest.mark.parametrize("module", [novy, twoprover], ids=["novy", "2p"])
def test_only_a_cold_commit_builds_its_layout(module, monkeypatch):
    calls = []
    real = module.cached_layout
    monkeypatch.setattr(module, "cached_layout", lambda registers: calls.append(registers) or
                        real(registers))
    n = 9
    clear_commit_caches()
    for seed in range(1, 6):
        if module is novy:
            st = novy.attack_commit((0.6, 0.8j), n, ToyPermutation(n), Random(seed))
        else:
            st = twoprover.attack_commit((0.6, 0.8j), n, Random(seed))
        assert st.state.layout is real(calls[0])
    assert len(calls) == 1


def test_pruned_blocks_are_reached():
    # 5e-12 survives prepare_qubit and is pruned after scaling: one block left.
    for n in (4, 10):
        st = novy.attack_commit((1.0, 5e-12), n, ToyPermutation(n), Random(1))
        st2 = twoprover.attack_commit((1.0, 5e-12), n, Random(1))
        assert st.state.support_size == st2.state.support_size == (n < 5) + 1


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


def test_dependent_hash_row_rejected(monkeypatch):
    # The halving weights hold only for independent rows.
    rows = (BitVector.parse("011"), BitVector.parse("011"))
    monkeypatch.setattr(gf2, "sample_independent_rows", lambda m, n, rng: rows)
    with pytest.raises(ValueError, match="h_2 depends"):
        novy.attack_commit((0.6, 0.8), 3, ToyPermutation(3), Random(0))


@pytest.mark.parametrize("protocol", ["novy-attack", "2p-attack"])
@pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "recover"])
def test_widest_trial_stays_small(protocol, unveil):
    # The 2^17-label states of the sparse commit peaked at 10-34 MB here.
    # A cold 2p commit builds its 2^16 running sums, 512 KiB as doubles.
    config = ScenarioConfig(protocol=protocol, n=16, psi=(0.6, 0.8j), unveil=unveil)
    clear_commit_caches()
    tracemalloc.start()
    try:
        engine.run_protocol(config, trial_rng(5, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


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
