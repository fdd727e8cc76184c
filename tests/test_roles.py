"""The roles' shared shape: what goes on the wire, and when each step may run.

Every string a party announces is a ``BitVector`` of width n; every other
announced value is a bit, and every string that stays inside a role state
is a plain int. Every role step checks the phase its state is in and
refuses, without announcing anything, to run out of order, and every
commit refuses, before any draw and with the ConfigError text that making
its scenario config raises, the n, b, psi or 2p allow_zero_m1 that config
refuses.
"""
import math
import re
import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsim import novy, twoprover
from bcsim.engine import MAX_N, SeparationBreachError, run_protocol
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


def _fields(protocol, n):
    inputs = {"psi": PSI} if protocol.endswith("attack") else {"b": 1}
    return {"protocol": protocol, "n": n, **inputs}


def _refusal(**fields):
    """The text of the ConfigError that making a config of fields raises."""
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(**fields)
    return str(info.value)


@pytest.mark.parametrize("via", ["role", "run_protocol"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commits_refuse_what_the_config_refuses(protocol, via):
    commit = ROLE_COMMITS[protocol] if via == "role" else (
        lambda n, rng: run_protocol(ScenarioConfig(**_fields(protocol, n)), rng))
    commit(MAX_N, Random(0))
    for n in (MAX_N + 1, 10 ** 6):
        with pytest.raises(ConfigError, match=f"n <= {MAX_N}, got {n}"):
            ScenarioConfig(**_fields(protocol, n))
        rng = Random(n)
        state = rng.getstate()
        start = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            commit(n, rng)
        assert time.perf_counter() - start < 0.5
        assert str(info.value) == _refusal(**_fields(protocol, n))
        assert rng.getstate() == state


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commits_refuse_widths_below_the_narrowest(protocol):
    narrowest = 2 if protocol.startswith("novy") else 1
    ROLE_COMMITS[protocol](narrowest, Random(0))
    for n in (narrowest - 1, -1):
        with pytest.raises(ConfigError, match=f"got {n}$|need n >= {narrowest}$"):
            ScenarioConfig(**_fields(protocol, n))
        rng = Random(n)
        state = rng.getstate()
        with pytest.raises(ConfigError) as info:
            ROLE_COMMITS[protocol](n, rng)
        assert str(info.value) == _refusal(**_fields(protocol, n))
        assert rng.getstate() == state


@pytest.mark.parametrize("n", [True, 2.5], ids=["bool", "float"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commits_refuse_a_width_that_is_not_an_int(protocol, n):
    with pytest.raises(ConfigError, match=f"n must be a positive integer, got {n}$"):
        ScenarioConfig(**_fields(protocol, n))
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigError) as info:
        ROLE_COMMITS[protocol](n, rng)
    assert str(info.value) == _refusal(**_fields(protocol, n))
    assert rng.getstate() == state


@pytest.mark.parametrize("via", ["role", "run_protocol"])
@pytest.mark.parametrize("n", [10 ** 5000, -10 ** 5000], ids=["huge", "huge-negative"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_commits_refuse_a_width_too_long_to_print(protocol, n, via):
    # Past the int-to-str digit limit, n has no repr: the refusal names its size.
    fields = _fields(protocol, n)
    commit = ROLE_COMMITS[protocol] if via == "role" else (
        lambda n, rng: run_protocol(ScenarioConfig(**fields), rng))
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigError) as info:
        commit(n, rng)
    assert str(info.value) == _refusal(**fields)
    assert rng.getstate() == state


@pytest.mark.parametrize("n", [None, 2.5, True, 2], ids=["none", "float", "bool", "default-perm"])
@pytest.mark.parametrize("protocol", ["novy-honest", "novy-attack"])
def test_run_protocol_refuses_a_novy_width_as_validate_does(protocol, n):
    # A config builds its permutation after it checks n, so a width the
    # permutation cannot take raises the config's ConfigError, not the
    # permutation's error, and does so before run_protocol can draw.
    rng = Random(0)
    state = rng.getstate()
    refused = "^n must be a positive integer|^invalid permutation: .* needs n >= 3"
    with pytest.raises(ConfigError, match=refused) as info:
        run_protocol(ScenarioConfig(**_fields(protocol, n)), rng)
    assert str(info.value) == _refusal(**_fields(protocol, n))
    assert rng.getstate() == state


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_run_protocol_validates_nothing_on_the_valid_path(protocol, monkeypatch):
    def never(self):
        raise AssertionError("a valid config was validated")
    monkeypatch.setattr(ScenarioConfig, "validate", never)
    run_protocol(ScenarioConfig(**_fields(protocol, 3)), Random(0))


HONEST_COMMITS = {
    "novy-honest": lambda b, rng: novy.honest_commit(b, N, ToyPermutation(N), rng),
    "2p-honest": lambda b, rng: twoprover.honest_commit(b, N, rng),
}


@pytest.mark.parametrize("via", ["role", "run_protocol"])
@pytest.mark.parametrize("b", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("protocol", list(HONEST_COMMITS))
def test_honest_commits_refuse_a_bit_that_is_not_an_int(protocol, b, via):
    fields = {"protocol": protocol, "n": N, "b": b}
    with pytest.raises(ConfigError, match="honest scenarios take b in"):
        ScenarioConfig(**fields)
    commit = HONEST_COMMITS[protocol] if via == "role" else (
        lambda b, rng: run_protocol(ScenarioConfig(**fields), rng))
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigError) as info:
        commit(b, rng)
    assert str(info.value) == _refusal(**fields)
    assert rng.getstate() == state


ATTACK_COMMITS = {
    "novy-attack": lambda psi, rng: novy.attack_commit(psi, N, ToyPermutation(N), rng),
    "2p-attack": lambda psi, rng: twoprover.attack_commit(psi, N, rng),
}


@pytest.mark.parametrize("via", ["role", "run_protocol"])
@pytest.mark.parametrize("psi", [(1, 1), (math.nan, 1), (0.6,), None, (True, 0), ("0.6", "0.8"),
                                 (1e200, 0), (10 ** 400, 0), (10 ** 5000, 0), (0, 10 ** 5000)],
                         ids=["unnormalized", "nan", "one-part", "none", "bool", "str",
                              "overflow-float", "overflow-int", "too-long-alpha", "too-long-beta"])
@pytest.mark.parametrize("protocol", list(ATTACK_COMMITS))
def test_attack_commits_refuse_a_psi_that_the_config_refuses(protocol, psi, via):
    fields = {"protocol": protocol, "n": N, "psi": psi}
    with pytest.raises(ConfigError, match="psi"):
        ScenarioConfig(**fields)
    commit = ATTACK_COMMITS[protocol] if via == "role" else (
        lambda psi, rng: run_protocol(ScenarioConfig(**fields), rng))
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigError) as info:
        commit(psi, rng)
    assert str(info.value) == _refusal(**fields)
    assert rng.getstate() == state


@pytest.mark.parametrize("via", ["role", "run_protocol"])
@pytest.mark.parametrize("flag", ["yes", [0], 1, None], ids=["str", "list", "int", "none"])
@pytest.mark.parametrize("protocol", ["2p-honest", "2p-attack"])
def test_2p_commits_refuse_an_allow_zero_m1_that_is_not_a_bool(protocol, flag, via):
    fields = {**_fields(protocol, N), "allow_zero_m1": flag}
    with pytest.raises(ConfigError, match="^allow_zero_m1 must be true or false$"):
        ScenarioConfig(**fields)
    role = twoprover.attack_commit if protocol.endswith("attack") else twoprover.honest_commit
    secret = PSI if protocol.endswith("attack") else 1
    commit = (lambda rng: role(secret, N, rng, allow_zero_m1=flag)) if via == "role" else (
        lambda rng: run_protocol(ScenarioConfig(**fields), rng))
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigError) as info:
        commit(rng)
    assert str(info.value) == _refusal(**fields)
    assert rng.getstate() == state


# Widths and secrets like TestConfigFuzz's scalars, and a few that are valid.
_SCALARS = [True, False, 0.5, 1.0, math.nan, math.inf, -math.inf, 1e200, 10 ** 400, -1, 0, 1,
            2, 3, None, "1"]
_PARTS = st.sampled_from(_SCALARS + [0.6, 0.8j, -0.0, complex(1e308, 1e308), complex(0, math.nan)])
_PSIS = (st.sampled_from([PSI, (1, 0), [0, 1.0], (0.6, -0.8), (-0.0, 1j)])
         | st.sampled_from(_SCALARS) | st.tuples(_PARTS, _PARTS) | st.lists(_PARTS, max_size=3))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_commits_refuse_exactly_what_validate_refuses(protocol, data):
    attack, novy_family = protocol.endswith("attack"), protocol.startswith("novy")
    n = data.draw(st.sampled_from(_SCALARS + [MAX_N + 1]) | st.integers(1, 4), label="n")
    secret = data.draw(_PSIS if attack else st.sampled_from(_SCALARS) | st.integers(0, 1),
                       label="secret")
    fields = {"psi": secret} if attack else {"b": secret}
    options = {} if novy_family else {"allow_zero_m1": data.draw(
        st.sampled_from([False, True, 0, "no"]), label="allow_zero_m1")}
    perm_fields = {"perm_a": 1, "perm_c": 0} if novy_family else {}
    try:
        config = ScenarioConfig(protocol=protocol, n=n, **fields, **options, **perm_fields)
        refusal = None
    except ConfigError as exc:
        refusal = str(exc)
    role = novy if novy_family else twoprover
    commit = role.attack_commit if attack else role.honest_commit
    # A refused n need not be a width: a novy commit must refuse it before it reads p.n.
    perm = () if not novy_family else (
        config.own_keyword["p"] if refusal is None else ToyPermutation(1, a=1, c=0),)
    rng = Random(0)
    state = rng.getstate()
    if refusal is None:
        commit(secret, n, *perm, rng, **options)
        return
    with pytest.raises(ConfigError) as info:
        commit(secret, n, *perm, rng, **options)
    assert str(info.value) == refusal
    assert rng.getstate() == state
