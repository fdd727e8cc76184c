import importlib
import json
import math
import re
from dataclasses import dataclass, replace
from random import Random

import pytest

from bcsim import engine, novy, twoprover
from bcsim.engine import (
    NOVY,
    NOVY_LINKS,
    TWO_PROVER,
    TWO_PROVER_LINKS,
    Message,
    Party,
    Phase,
    SeparationBreachError,
    Transcript,
    run_protocol,
)
from bcsim.gf2 import BitVector
from bcsim.harness import PROTOCOLS, ConfigError, ScenarioConfig
from bcsim.perm import ToyPermutation

A, B, Y = Party.ALICE, Party.BOB, Party.ALYSON


@dataclass(frozen=True)
class DataclassMessage:
    """``Message`` as the frozen dataclass it was before it became a NamedTuple."""

    sender: Party
    receiver: Party
    phase: Phase
    round: int
    name: str
    value: object

    def to_json(self) -> dict:
        value = str(self.value) if isinstance(self.value, BitVector) else self.value
        return {
            "sender": self.sender.value,
            "receiver": self.receiver.value,
            "phase": self.phase.value,
            "round": self.round,
            "name": self.name,
            "value": value,
        }


class TestLinks:
    def test_novy_links_are_alice_bob_in_every_phase(self):
        assert NOVY_LINKS == {(s, r, phase) for s, r in ((A, B), (B, A)) for phase in Phase}
        assert len(NOVY_LINKS) == 10

    def test_two_prover_links(self):
        prover_pair = {(s, r, phase) for s, r in ((A, Y), (Y, A))
                       for phase in (Phase.INIT, Phase.RECOVER)}
        with_bob = {(s, r, phase) for s, r in ((A, B), (B, A), (Y, B), (B, Y))
                    for phase in Phase}
        assert TWO_PROVER_LINKS == with_bob | prover_pair
        assert len(TWO_PROVER_LINKS) == 24

    def test_every_role_carries_its_protocols_links(self):
        p = ToyPermutation(3)
        assert novy.honest_commit(0, 3, p, Random(0)).transcript.links is NOVY_LINKS
        assert novy.attack_commit((0.6, 0.8), 3, p, Random(0)).transcript.links is NOVY_LINKS
        assert twoprover.honest_commit(0, 3, Random(0)).transcript.links is TWO_PROVER_LINKS
        assert twoprover.attack_commit((0.6, 0.8), 3, Random(0)).transcript.links \
            is TWO_PROVER_LINKS

    def test_commit_message_between_alice_and_bob(self):
        t = Transcript(NOVY_LINKS)
        msg = t.announce(A, B, Phase.COMMIT, "r_1", 1)
        assert msg.round == 1
        assert t.value("r_1") == 1

    def test_prover_link_blocked_during_commit(self):
        t = Transcript(TWO_PROVER_LINKS)
        with pytest.raises(SeparationBreachError,
                           match="alice -> alyson is not permitted during commit"):
            t.announce(A, Y, Phase.COMMIT, "leak", 1)

    def test_prover_link_blocked_during_unveil(self):
        t = Transcript(TWO_PROVER_LINKS)
        with pytest.raises(SeparationBreachError):
            t.announce(Y, A, Phase.UNVEIL, "leak", 1)
        assert t.messages == []

    def test_prover_link_open_during_init_and_recover(self):
        t = Transcript(TWO_PROVER_LINKS)
        t.announce(A, Y, Phase.INIT, "r_prime", BitVector.parse("01"))
        t.announce(A, Y, Phase.RECOVER, "reunion", 1)
        assert len(t.messages) == 2


class TestTranscript:
    def test_links_are_required(self):
        with pytest.raises(TypeError):
            Transcript()

    def test_rounds_auto_increment_per_link(self):
        t = Transcript(NOVY_LINKS)
        m1 = t.announce(B, A, Phase.COMMIT, "h_1", BitVector.parse("10"))
        m2 = t.announce(A, B, Phase.COMMIT, "r_1", 0)
        m3 = t.announce(B, A, Phase.COMMIT, "h_2", BitVector.parse("01"))
        assert (m1.round, m2.round, m3.round) == (1, 1, 2)

    def test_transcripts_on_one_link_set_number_rounds_apart(self):
        first, second = Transcript(NOVY_LINKS), Transcript(NOVY_LINKS)
        got = []
        for i in (1, 2, 3):
            for t in (first, second):
                got.append(t.announce(A, B, Phase.COMMIT, f"r_{i}", 0).round)
        assert got == [1, 1, 2, 2, 3, 3]
        assert second.announce(B, A, Phase.COMMIT, "h_1", 0).round == 1
        assert [m.round for m in first.messages] == [1, 2, 3]

    def test_custom_link_set_numbers_its_pair_across_phases_and_refuses_the_rest(self):
        links = frozenset({(A, B, Phase.COMMIT), (A, B, Phase.UNVEIL)})
        t = Transcript(links)
        assert t.links is links
        rounds = [t.announce(A, B, phase, f"m_{i}", i).round
                  for i, phase in enumerate((Phase.COMMIT, Phase.UNVEIL, Phase.COMMIT))]
        assert rounds == [1, 2, 3]
        for sender in Party:
            for receiver in Party:
                for phase in Phase:
                    if (sender, receiver, phase) in links:
                        continue
                    text = f"{sender.value} -> {receiver.value} is not permitted during {phase.value}"
                    with pytest.raises(SeparationBreachError, match=f"^{re.escape(text)}$"):
                        t.announce(sender, receiver, phase, "leak", 1)
        assert len(t.messages) == 3
        assert t.announce(A, B, Phase.UNVEIL, "m_3", 3).round == 4

    def test_repeated_name_rejected_and_not_recorded(self):
        t = Transcript(NOVY_LINKS)
        t.announce(A, B, Phase.COMMIT, "z", 0)
        with pytest.raises(ValueError, match="already has a message named 'z'"):
            t.announce(A, B, Phase.UNVEIL, "z", 1)
        assert t.value("z") == 0
        # The rejected message took no round.
        assert t.announce(A, B, Phase.UNVEIL, "b", 1).round == 2

    def test_series_collects_indexed_names(self):
        t = Transcript(NOVY_LINKS)
        for i in (1, 2):
            t.announce(A, B, Phase.COMMIT, f"r_{i}", i % 2)
        assert t.series("r_") == [1, 0]

    def test_json_serialization(self):
        t = Transcript(NOVY_LINKS)
        t.announce(B, A, Phase.COMMIT, "h_1", BitVector.parse("101"))
        assert t.to_json() == [{
            "sender": "bob", "receiver": "alice", "phase": "commit",
            "round": 1, "name": "h_1", "value": "101",
        }]

    def test_missing_value(self):
        with pytest.raises(KeyError):
            Transcript(NOVY_LINKS).value("z")


class TestMessage:
    def test_json_matches_the_dataclass_for_every_kind(self):
        names, kinds = set(), set()
        for protocol, n in [("novy-honest", 3), ("novy-attack", 3), ("2p-honest", 2),
                            ("2p-attack", 2)]:
            known = {"psi": (0.6, 0.8j)} if protocol.endswith("attack") else {"b": 1}
            for unveil in (True, False):
                config = ScenarioConfig(protocol=protocol, n=n, unveil=unveil, **known).validate()
                for seed in range(5):
                    transcript, _ = run_protocol(config, Random(seed))
                    for m in transcript.messages:
                        want = DataclassMessage(*m).to_json()
                        assert json.dumps(m.to_json()) == json.dumps(want)
                        names.add(m.name.rstrip("0123456789"))
                        kinds.add(type(m.value))
        assert kinds == {int, BitVector}
        assert names >= {"h_", "r_", "z", "b", "x", "m_", "r", "r_disclosed", "reunion"}

    def test_fields_cannot_be_assigned(self):
        m = Transcript(NOVY_LINKS).announce(A, B, Phase.COMMIT, "z", 1)
        assert type(m) is Message and m == Message(A, B, Phase.COMMIT, 1, "z", 1)
        for field in Message._fields:
            with pytest.raises(AttributeError):
                setattr(m, field, 0)
        with pytest.raises(AttributeError):
            m.extra = 0


class TestRunProtocol:
    def test_novy_honest_always_accepted(self):
        config = ScenarioConfig(protocol="novy-honest", n=3, b=0).validate()
        _, outcome = run_protocol(config, Random(1))
        assert outcome.accepted is True
        assert outcome.unveiled_bit == 0

    def test_2p_attack_point_mass_unveils_one(self):
        config = ScenarioConfig(protocol="2p-attack", n=2, psi=(0, 1)).validate()
        _, outcome = run_protocol(config, Random(5))
        assert outcome.accepted is True
        assert outcome.unveiled_bit == 1

    def test_novy_attack_recovery_fidelity(self):
        config = ScenarioConfig(protocol="novy-attack", n=3,
                                psi=(0.6, 0.8j), unveil=False).validate()
        _, outcome = run_protocol(config, Random(9))
        assert outcome.recovery_fidelity >= 1 - 1e-9

    def test_acceptance_is_function_of_transcript(self):
        # Bob's decision re-derived from the recorded messages alone.
        config = ScenarioConfig(protocol="novy-attack", n=3,
                                psi=(1 / math.sqrt(2), 1j / math.sqrt(2))).validate()
        transcript, outcome = run_protocol(config, Random(2))
        b = transcript.value("b")
        x = transcript.value("x")
        assert novy.honest_unveil_check(transcript, b, x, config.permutation()) \
            == outcome.accepted

    def test_unknown_protocol(self):
        config = ScenarioConfig(protocol="novy-honest", n=3, b=0)
        with pytest.raises(ValueError):
            run_protocol(replace(config, protocol="telepathy"), Random(0))

    # Each of these names no family. Before the family lookup, the first
    # three raised AttributeError and the rest ran as novy or 2p; now the
    # config is refused when it is made, before run_protocol can draw.
    @pytest.mark.parametrize("protocol", [None, 5, ["novy-honest"], "novy-honestx", "novyattack",
                                          "2p-honest-attack", "novy"])
    def test_unvalidated_protocol_naming_no_family_draws_nothing(self, protocol):
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(ConfigError, match=f"^unknown protocol {re.escape(repr(protocol))}$"):
            run_protocol(ScenarioConfig(protocol=protocol, n=3, b=0, psi=(0.6, 0.8)), rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("protocol,inputs", [("2p-honest", {"b": 1}),
                                                 ("2p-attack", {"psi": (0.6, 0.8)})],
                             ids=["2p-honest", "2p-attack"])
    def test_2p_accepts_a_zero_m1_it_allows(self, protocol, inputs):
        # Bob's check takes the config's allow_zero_m1, so a drawn m_1 = 0^n passes.
        config = ScenarioConfig(protocol=protocol, n=2, allow_zero_m1=True, **inputs).validate()
        for seed in range(64):
            transcript, outcome = run_protocol(config, Random(seed))
            if transcript.value("m_1") == BitVector.from_int(0, 2):
                break
        else:
            pytest.fail("no seed drew m_1 = 0^n")
        assert outcome.accepted is True
        assert outcome.unveiled_bit == transcript.value("b")

    def test_each_phase_is_looked_up_on_its_module_when_it_runs(self, monkeypatch):
        # The benchmark's recovery probe and tracer rebind role functions as
        # module attributes; a driver that bound them earlier would skip them.
        configs = [ScenarioConfig(protocol=protocol, n=3, psi=(0.6, 0.8j), unveil=False).validate()
                   for protocol in ("novy-attack", "2p-attack")]
        for config in configs:  # resolve anything resolved on a first call
            run_protocol(config, Random(0))
        calls = []
        for mod in (novy, twoprover):
            def counted(st, mod=mod, recover=mod.attack_recover):
                calls.append(mod)
                return recover(st)
            monkeypatch.setattr(mod, "attack_recover", counted)
        for config in configs:
            _, outcome = run_protocol(config, Random(1))
            assert outcome.recovery_fidelity >= 1 - 1e-9
        assert calls == [novy, twoprover]


class TestFamilies:
    def test_protocols_are_the_family_names_in_order(self):
        assert PROTOCOLS == tuple(engine.PROTOCOLS) == ("novy-honest", "novy-attack",
                                                        "2p-honest", "2p-attack")
        assert [engine.PROTOCOLS[p][0] for p in PROTOCOLS] == [
            NOVY, NOVY, TWO_PROVER, TWO_PROVER]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_config_family_is_the_record(self, protocol):
        inputs = {"psi": (0.6, 0.8)} if protocol.endswith("attack") else {"b": 0}
        family = ScenarioConfig(protocol=protocol, n=3, **inputs).validate().family
        assert family is engine.PROTOCOLS[protocol][0]
        assert protocol.startswith(f"{family.name}-")

    @pytest.mark.parametrize("protocol", [None, 5, 2.5, ["novy-honest"], {"novy-honest": 1},
                                          ("novy-honest",), "", "NOVY-HONEST", "telepathy"])
    def test_config_family_refuses_every_other_value(self, protocol):
        with pytest.raises(ConfigError, match="^unknown protocol "):
            ScenarioConfig(protocol=protocol, n=3, b=0)
        with pytest.raises(ConfigError, match="^unknown protocol "):
            replace(ScenarioConfig(protocol="novy-honest", n=3, b=0), protocol=protocol)

    # Every phase run_protocol reads off a family's role module.
    PHASES = ("honest_commit", "honest_unveil", "attack_commit", "attack_unveil",
              "honest_unveil_check", "attack_recover")

    @pytest.mark.parametrize("family", dict.fromkeys(f for f, _ in engine.PROTOCOLS.values()),
                             ids=lambda f: f.name)
    def test_each_record_matches_its_role_module(self, family):
        # The record names its module; it never holds a role function.
        assert isinstance(family.module, str)
        mod = importlib.import_module(f"bcsim.{family.module}")
        assert engine._roles()[family] is mod
        assert all(callable(getattr(mod, phase, None)) for phase in self.PHASES)
        assert callable(getattr(mod, "reunite", None)) is family.reunites

    def test_records_are_frozen(self):
        with pytest.raises(AttributeError):
            NOVY.narrowest = 1

    def test_each_name_is_its_family_and_role(self):
        roles = [(family, "attack" if attack else "honest")
                 for family, attack in engine.PROTOCOLS.values()]
        assert list(engine.PROTOCOLS) == [f"{family.name}-{role}" for family, role in roles]
        assert roles == [(NOVY, "honest"), (NOVY, "attack"), (TWO_PROVER, "honest"),
                         (TWO_PROVER, "attack")]
        assert list(PROTOCOLS) == list(engine.PROTOCOLS)
