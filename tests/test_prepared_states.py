"""Each attack's trial-invariant superposition is built once and shared.

The caches must not show: a cached state equals a fresh build byte for
byte, trials never write to it, reports are the same with the caches
cleared or bypassed, and every cache is bounded.
"""
import math
from random import Random

import pytest

from bcsim import novy, perm, twoprover
from bcsim.harness import ScenarioConfig, emit_report, run_trials
from bcsim.perm import ToyPermutation
from bcsim.qsim import cached_layout, init_state, zero_signs

RT2 = 1 / math.sqrt(2)
CACHES = {
    "novy._committed_superposition": novy._committed_superposition,
    "twoprover._shared_pairs": twoprover._shared_pairs,
    "twoprover._with_input_qubit": twoprover._with_input_qubit,
}
# Every cache of states or 2^n-entry tables, the permutation tables included.
BOUNDED = {**CACHES, "perm._forward_table": perm._forward_table}
# The two middle entries are equal under == but differ in the sign of a
# zero, which reaches the prepared amplitudes.
PSIS = [(0.6, 0.8j), (1, 0), (complex(-0.6, -0.0), 0.8), (complex(-0.6, 0.0), 0.8),
        (complex(RT2, -0.0), complex(0, RT2))]
PSI_IDS = ["complex", "point", "neg-zero", "pos-zero", "neg-zero-imag"]


def fresh_novy(p, alpha, beta):
    layout = cached_layout((("B", 1), ("X", p.n), ("Y", p.n)))
    s = init_state(layout).prepare_qubit("B", alpha, beta).uniform_superpose("X")
    return s.coherent_eval(p.forward_fn(), ["X"], "Y")


def fresh_pairs(n):
    layout = cached_layout((("B", 1), ("R", n), ("Z", n), ("Rp", n)))
    return init_state(layout).epr_pairs("R", "Rp")


def cached_hit(cache, *args):
    """cache(*args), asserting it was already cached."""
    misses = cache.cache_info().misses
    state = cache(*args)
    assert cache.cache_info().misses == misses, "expected a cached entry"
    return state


@pytest.mark.parametrize("psi", PSIS, ids=PSI_IDS)
@pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "recover"])
def test_novy_cached_state_equals_fresh_build(psi, unveil):
    p = ToyPermutation(3, a=3, c=5)
    config = ScenarioConfig(protocol="novy-attack", n=3, psi=psi, perm_a=3, perm_c=5,
                            unveil=unveil, trials=4, seed=1)
    run_trials(config)
    alpha, beta = config.psi
    cached = cached_hit(novy._committed_superposition, p, alpha, beta, zero_signs(alpha, beta))
    assert cached.dump() == fresh_novy(p, alpha, beta).dump()


@pytest.mark.parametrize("psi", PSIS, ids=PSI_IDS)
@pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "recover"])
def test_twoprover_cached_states_equal_fresh_builds(psi, unveil):
    n = 3
    config = ScenarioConfig(protocol="2p-attack", n=n, psi=psi, unveil=unveil, trials=4, seed=1)
    run_trials(config)
    alpha, beta = config.psi
    pairs = cached_hit(twoprover._shared_pairs, n)
    assert pairs.dump() == fresh_pairs(n).dump()
    prepared = cached_hit(twoprover._with_input_qubit, pairs, alpha, beta, zero_signs(alpha, beta))
    assert prepared.dump() == fresh_pairs(n).prepare_qubit("B", alpha, beta).dump()


def test_zero_signs_tell_the_cached_states_apart():
    p = ToyPermutation(3)
    (a_neg, beta), (a_pos, _) = PSIS[2], PSIS[3]
    assert fresh_novy(p, a_neg, beta).dump() != fresh_novy(p, a_pos, beta).dump()
    assert zero_signs(a_neg, beta) != zero_signs(a_pos, beta)


@pytest.mark.parametrize("protocol", ["novy-attack", "2p-attack"])
@pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "recover"])
def test_reports_unchanged_by_clearing_or_bypassing_caches(protocol, unveil, monkeypatch):
    config = ScenarioConfig(protocol=protocol, n=4, psi=(0.6, 0.8j), unveil=unveil,
                            trials=50, seed=7)
    run_trials(config)
    warm = emit_report(run_trials(config), "json")
    for cache in CACHES.values():
        cache.cache_clear()
    cold = emit_report(run_trials(config), "json")
    # Unwrapped, every trial builds its own states, as before the caches.
    for name, cache in CACHES.items():
        module, attr = name.split(".")
        monkeypatch.setattr({"novy": novy, "twoprover": twoprover}[module], attr, cache.__wrapped__)
    bypassed = emit_report(run_trials(config), "json")
    assert warm == cold == bypassed


def test_twoprover_commit_on_an_unshared_state():
    # attack_commit on a state attack_init did not hand out gives the same
    # transcript and state as on the shared one.
    runs = []
    for shared in (True, False):
        st = twoprover.attack_init(3)
        if not shared:
            st.state = fresh_pairs(3)
        t = twoprover.attack_commit(st, (0.6, 0.8j), Random(5))
        runs.append((t.to_json(), st.state.dump()))
    assert runs[0] == runs[1]


def test_attack_init_shares_one_state_per_width():
    assert twoprover.attack_init(3).state is twoprover.attack_init(3).state
    assert twoprover.attack_init(3).state is not twoprover.attack_init(4).state


@pytest.mark.parametrize("name", list(BOUNDED))
def test_every_cache_is_bounded(name):
    maxsize = BOUNDED[name].cache_parameters()["maxsize"]
    assert maxsize is not None and 1 <= maxsize <= 8
