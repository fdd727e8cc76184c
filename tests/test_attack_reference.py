"""Both attacks' commits against the sparse-state bodies they replaced.

The references below build the whole 2^(n+1)-label superposition and
measure every announced value with ``ref_measure``, the loop
``SparseState.measure`` ran before it picked from ``branches``, as the
attacks did before they carried one amplitude per block of B. The block
form must give, for every scenario, the same transcript, the same
post-commit and final states (labels, dict order and ``float.hex``
amplitudes), the same unveiled values and the same RNG use.
"""
import math
import tracemalloc
from random import Random

import pytest

from bcsim import engine, gf2, novy, twoprover
from bcsim.engine import NOVY_LINKS, Party, Phase, Transcript
from bcsim.gf2 import BitVector
from bcsim.harness import ScenarioConfig, trial_rng
from bcsim.novy import NovyAttackState, _parity_fn
from bcsim.perm import ToyPermutation
from bcsim.qsim import SparseState, cached_layout, init_state
from test_qsim import exact, ref_epr_pairs, ref_measure


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
    for i, h in enumerate(hashes.rows, start=1):
        t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, f"h_{i}", h)
        r_i, _, s = ref_measure(s, ["Y"], rng, _parity_fn(h.to_int()))
        responses.append(r_i)
        t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, f"r_{i}", r_i)
    y0, y1 = gf2.solve_affine(hashes, BitVector(tuple(responses)))
    y1_int = y1.to_int()
    z, _, s = ref_measure(s, ["B", "Y"], rng, lambda b, y: b ^ (y == y1_int))
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    st = NovyAttackState(n=n, perm=p, state=s, z=z, y0=y0, y1=y1, transcript=t)
    return st, t


def ref_pairs(n):
    """n EPR pairs on (R, R') next to zeroed B and Z."""
    layout = cached_layout((("B", 1), ("R", n), ("Z", n), ("Rp", n)))
    return ref_epr_pairs(init_state(layout), "R", "Rp")


def ref_twoprover_attack_commit(st, psi, rng, *, allow_zero_m1=False):
    alpha, beta = psi
    t, n = st.transcript, st.n
    m0 = BitVector.zeros(n)
    m1 = twoprover._sample_mask(n, rng, allow_zero_m1)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_0", m0)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_1", m1)
    masks = (0, m1.to_int())
    s = ref_pairs(n).prepare_qubit("B", alpha, beta)
    s = s.coherent_eval(lambda b, r: r ^ masks[b], ["B", "R"], "Z")
    z_int, _, s = ref_measure(s, ["Z"], rng)
    z = BitVector.from_int(z_int, n)
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    st.m0, st.m1, st.z = m0, m1, z
    st.state = s
    st.phase = Phase.WAIT
    return t


def run_novy(commit, psi, n, seed, unveil):
    p = ToyPermutation(n, a=(2 * seed + 1) % (1 << n), c=seed % (1 << n))
    rng = Random(seed)
    st, t = commit(psi, n, p, rng)
    out = {"post_commit": exact(st.state), "z": st.z, "y": (st.y0, st.y1)}
    if unveil:
        out["unveiled"] = novy.attack_unveil(st, rng)
    out["final"] = exact(st.state if unveil else novy.attack_recover(st))
    out["transcript"] = t.to_json()
    out["next_random"] = rng.random()
    return out


def run_twoprover(commit, psi, n, seed, unveil, allow_zero_m1):
    rng = Random(seed)
    st = twoprover.attack_init(n)
    commit(st, psi, rng, allow_zero_m1=allow_zero_m1)
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


@pytest.mark.parametrize("n", range(2, 13))
def test_novy_commit_matches_sparse_reference(n):
    for psi, seed, unveil, _ in scenarios("novy", n):
        got = run_novy(novy.attack_commit, psi, n, seed, unveil)
        want = run_novy(ref_novy_attack_commit, psi, n, seed, unveil)
        assert got == want, (psi, seed, unveil)


@pytest.mark.parametrize("n", range(1, 13))
def test_twoprover_commit_matches_sparse_reference(n):
    zero_masks = 0
    for psi, seed, unveil, allow_zero in scenarios("2p", n):
        got = run_twoprover(twoprover.attack_commit, psi, n, seed, unveil, allow_zero)
        want = run_twoprover(ref_twoprover_attack_commit, psi, n, seed, unveil, allow_zero)
        assert got == want, (psi, seed, unveil, allow_zero)
        zero_masks += got["m1"].is_zero()
    if n == 1:
        assert zero_masks, "no scenario drew m_1 = 0"


def test_pruned_blocks_are_reached():
    # 5e-12 survives prepare_qubit and is pruned after scaling: one block left.
    for n in (4, 10):
        st, _ = novy.attack_commit((1.0, 5e-12), n, ToyPermutation(n), Random(1))
        st2 = twoprover.attack_init(n)
        twoprover.attack_commit(st2, (1.0, 5e-12), Random(1))
        assert st.state.support_size == st2.state.support_size == (n < 5) + 1


@pytest.mark.parametrize("psi", [(1, 1), (float("nan"), 1), (0.6, complex(0.8, float("inf")))],
                         ids=["unnormalized", "nan", "inf"])
def test_bad_qubits_rejected_like_the_reference(psi):
    with pytest.raises(ValueError):
        ref_novy_attack_commit(psi, 3, ToyPermutation(3), Random(0))
    with pytest.raises(ValueError, match="not normalized"):
        novy.attack_commit(psi, 3, ToyPermutation(3), Random(0))
    with pytest.raises(ValueError):
        ref_twoprover_attack_commit(twoprover.attack_init(3), psi, Random(0))
    with pytest.raises(ValueError, match="not normalized"):
        twoprover.attack_commit(twoprover.attack_init(3), psi, Random(0))


def test_dependent_hash_row_rejected(monkeypatch):
    # The halving weights hold only for independent rows.
    rows = gf2.BitMatrix.from_rows([BitVector.parse("011"), BitVector.parse("011")])
    monkeypatch.setattr(gf2, "sample_independent_rows", lambda m, n, rng: rows)
    with pytest.raises(ValueError, match="h_2 depends"):
        novy.attack_commit((0.6, 0.8), 3, ToyPermutation(3), Random(0))


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
    assert peak < 2 << 20


@pytest.mark.parametrize("protocol,widths", [("novy-attack", (3, 4, 9, 16)),
                                             ("2p-attack", (1, 2, 9, 16))])
@pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "recover"])
def test_trial_states_hold_at_most_four_labels(monkeypatch, protocol, widths, unveil):
    # measure picks from branches and coherent_eval has one loop because no
    # trial state is larger than this; a commit that went back to the
    # 2^(n+1)-label superposition would make both slow again.
    seen = []
    for op in ("measure", "coherent_eval"):
        def spy(self, *args, _op=getattr(SparseState, op), **kwargs):
            seen.append(self.support_size)
            return _op(self, *args, **kwargs)
        monkeypatch.setattr(SparseState, op, spy)
    for n in widths:
        config = ScenarioConfig(protocol=protocol, n=n, psi=(0.6, 0.8j), unveil=unveil)
        for i in range(3):
            engine.run_protocol(config, trial_rng(n, i))
    assert seen and max(seen) <= 4
