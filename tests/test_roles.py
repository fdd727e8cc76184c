"""The roles' shared shape: what goes on the wire, and when each step may run.

Every string a party announces is a ``BitVector`` of width n; every other
announced value is a bit, and every string that stays inside a role state
is a plain int. Every role step checks the phase its state is in and
refuses, without announcing anything, to run out of order, and every
commit refuses, before any draw, a width its scenario config refuses, as
every honest commit does a committed bit and every attack commit a psi.
"""
import math
import re
import time
from random import Random

import pytest

from bcsim import novy, twoprover
from bcsim.engine import ATTACK_MAX_N, HONEST_MAX_N, SeparationBreachError, run_protocol
from bcsim.gf2 import BitVector
from bcsim.harness import PROTOCOLS, ConfigError, ScenarioConfig, trial_rng
from bcsim.perm import ToyPermutation

N = 4
STRINGS = {"h_", "x", "m_", "r", "r_prime", "r_disclosed"}
BITS = {"r_", "b", "reunion"}


def _is_bit(value) -> bool:
    return type(value) is int and value in (0, 1)


@pytest.mark.parametrize("unveil", [True, False], ids=["unveil", "no-unveil"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_announced_strings_are_bit_vectors_and_the_rest_bits(protocol, unveil):
    inputs = {"psi": (0.6, 0.8j)} if protocol.endswith("attack") else {"b": 1}
    config = ScenarioConfig(protocol=protocol, n=N, unveil=unveil, **inputs).validate()
    strings = STRINGS | ({"z"} if protocol.startswith("2p") else set())
    bits = BITS | ({"z"} if protocol.startswith("novy") else set())
    for i in range(5):
        transcript, _ = run_protocol(config, trial_rng(3, i))
        kinds = set()
        for m in transcript.messages:
            kind = re.sub(r"_\d+$", "_", m.name)  # h_1 -> h_, m_0 -> m_
            kinds.add(kind)
            if kind in strings:
                assert type(m.value) is BitVector and len(m.value) == N, m
            else:
                assert kind in bits and _is_bit(m.value), m
        assert kinds & strings


@pytest.mark.parametrize("seed", range(5))
def test_role_states_hold_plain_ints(seed):
    p = ToyPermutation(N)
    honest = novy.honest_commit(seed % 2, N, p, Random(seed))
    attack = novy.attack_commit((0.6, 0.8j), N, p, Random(seed))
    for value in (honest.y, attack.y0, attack.y1):
        assert type(value) is int and 0 <= value < 1 << N
    assert p.forward_int(honest.x.value) == honest.y


def _novy_honest():
    return novy.honest_commit(1, 3, ToyPermutation(3), Random(0))


def _novy_attack():
    return novy.attack_commit((0.6, 0.8), 3, ToyPermutation(3), Random(0))


def _twop_honest():
    return twoprover.honest_commit(1, 3, Random(0))


def _twop_attack():
    return twoprover.attack_commit((0.6, 0.8), 3, Random(0))


def _novy_attack_unveil(st):
    return novy.attack_unveil(st, Random(1))


def _twop_attack_unveil(st):
    return twoprover.attack_unveil(st, Random(1))


# (commit, steps that succeed, the step that must then raise, error, message)
PHASE_GUARDS = {
    "novy-honest-unveil-twice": (_novy_honest, [novy.honest_unveil], novy.honest_unveil,
                                 ValueError, "cannot unveil from phase unveil"),
    "2p-honest-unveil-twice": (_twop_honest, [twoprover.honest_unveil], twoprover.honest_unveil,
                               ValueError, "cannot unveil from phase unveil"),
    "novy-attack-unveil-after-recover": (_novy_attack, [novy.attack_recover], _novy_attack_unveil,
                                         ValueError, "cannot unveil from phase recover"),
    "novy-attack-recover-after-unveil": (_novy_attack, [_novy_attack_unveil], novy.attack_recover,
                                         ValueError, "cannot recover from phase unveil"),
    "2p-attack-unveil-after-reunite": (_twop_attack, [twoprover.reunite], _twop_attack_unveil,
                                       ValueError, "cannot unveil from phase recover"),
    "2p-reunite-twice": (_twop_attack, [twoprover.reunite], twoprover.reunite,
                         ValueError, "cannot reunite from phase recover"),
    "2p-recover-before-reunite": (_twop_attack, [], twoprover.attack_recover,
                                  SeparationBreachError, "current phase is wait"),
    "2p-attack-recover-after-unveil": (_twop_attack, [_twop_attack_unveil],
                                       twoprover.attack_recover,
                                       ValueError, "cannot recover from phase unveil"),
}


@pytest.mark.parametrize("commit,steps,step,error,match", list(PHASE_GUARDS.values()),
                         ids=list(PHASE_GUARDS))
def test_phase_guard(commit, steps, step, error, match):
    st = commit()
    for ok in steps:
        ok(st)
    phase, messages = st.phase, list(st.transcript.messages)
    with pytest.raises(error, match=match):
        step(st)
    assert st.phase is phase
    assert st.transcript.messages == messages


PSI = (0.6, 0.8j)


def _perm(n):
    # The default multiplier needs 3 bits. Below that, a 2-bit permutation:
    # a novy commit checks n before it reads p.n.
    return ToyPermutation(n) if n >= 3 else ToyPermutation(2, a=3, c=1)


ROLE_COMMITS = {
    "novy-honest": lambda n, rng: novy.honest_commit(1, n, _perm(n), rng),
    "novy-attack": lambda n, rng: novy.attack_commit(PSI, n, _perm(n), rng),
    "2p-honest": lambda n, rng: twoprover.honest_commit(1, n, rng),
    "2p-attack": lambda n, rng: twoprover.attack_commit(PSI, n, rng),
}


def _unvalidated_config(protocol, n):
    inputs = {"psi": PSI} if protocol.endswith("attack") else {"b": 1}
    return ScenarioConfig(protocol=protocol, n=n, **inputs)


@pytest.mark.parametrize("via", ["role", "run_protocol"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commits_refuse_what_the_config_refuses(protocol, via):
    widest = ATTACK_MAX_N if protocol.endswith("attack") else HONEST_MAX_N
    commit = ROLE_COMMITS[protocol] if via == "role" else (
        lambda n, rng: run_protocol(_unvalidated_config(protocol, n), rng))
    commit(widest, Random(0))
    for n in (widest + 1, 10 ** 6):
        with pytest.raises(ConfigError, match=f"n <= {widest}, got {n}"):
            _unvalidated_config(protocol, n).validate()
        rng = Random(n)
        state = rng.getstate()
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"n must be in \[[12], {widest}\], got {n}"):
            commit(n, rng)
        assert time.perf_counter() - start < 0.5
        assert rng.getstate() == state


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commits_refuse_widths_below_the_narrowest(protocol):
    narrowest = 2 if protocol.startswith("novy") else 1
    ROLE_COMMITS[protocol](narrowest, Random(0))
    for n in (narrowest - 1, -1):
        with pytest.raises(ConfigError, match=f"got {n}$|need n >= {narrowest}$"):
            _unvalidated_config(protocol, n).validate()
        rng = Random(n)
        state = rng.getstate()
        with pytest.raises(ValueError, match=rf"n must be in \[{narrowest}, \d+\], got {n}$"):
            ROLE_COMMITS[protocol](n, rng)
        assert rng.getstate() == state


@pytest.mark.parametrize("n", [True, 2.5], ids=["bool", "float"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commits_refuse_a_width_that_is_not_an_int(protocol, n):
    with pytest.raises(ConfigError, match=f"n must be a positive integer, got {n}$"):
        _unvalidated_config(protocol, n).validate()
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"n must be an int, got {n}$"):
        ROLE_COMMITS[protocol](n, rng)
    assert rng.getstate() == state


HONEST_COMMITS = {
    "novy-honest": lambda b, rng: novy.honest_commit(b, N, ToyPermutation(N), rng),
    "2p-honest": lambda b, rng: twoprover.honest_commit(b, N, rng),
}


@pytest.mark.parametrize("via", ["role", "run_protocol"])
@pytest.mark.parametrize("b", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("protocol", list(HONEST_COMMITS))
def test_honest_commits_refuse_a_bit_that_is_not_an_int(protocol, b, via):
    config = ScenarioConfig(protocol=protocol, n=N, b=b)
    with pytest.raises(ConfigError, match="honest scenarios take b in"):
        config.validate()
    commit = HONEST_COMMITS[protocol] if via == "role" else (
        lambda b, rng: run_protocol(config, rng))
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"committed bit must be the int 0 or 1, got {b}$"):
        commit(b, rng)
    assert rng.getstate() == state


ATTACK_COMMITS = {
    "novy-attack": lambda psi, rng: novy.attack_commit(psi, N, ToyPermutation(N), rng),
    "2p-attack": lambda psi, rng: twoprover.attack_commit(psi, N, rng),
}


@pytest.mark.parametrize("via", ["role", "run_protocol"])
@pytest.mark.parametrize("psi", [(1, 1), (math.nan, 1), (0.6,), None, (True, 0), ("0.6", "0.8")],
                         ids=["unnormalized", "nan", "one-part", "none", "bool", "str"])
@pytest.mark.parametrize("protocol", list(ATTACK_COMMITS))
def test_attack_commits_refuse_a_psi_that_the_config_refuses(protocol, psi, via):
    config = ScenarioConfig(protocol=protocol, n=N, psi=psi)
    with pytest.raises(ConfigError, match="psi"):
        config.validate()
    commit = ATTACK_COMMITS[protocol] if via == "role" else (
        lambda psi, rng: run_protocol(config, rng))
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        commit(psi, rng)
    assert rng.getstate() == state
