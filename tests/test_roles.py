"""The roles' shared shape: what goes on the wire, and when each step may run.

Every string a party announces is a ``BitVector`` of width n; every other
announced value is a bit, and every string that stays inside a role state
is a plain int. Every role step checks the phase its state is in and
refuses, without announcing anything, to run out of order.
"""
import re
from random import Random

import pytest

from bcsim import novy, twoprover
from bcsim.engine import SeparationBreachError, run_protocol
from bcsim.gf2 import BitVector
from bcsim.harness import PROTOCOLS, ScenarioConfig, trial_rng
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
