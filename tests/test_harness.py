import contextlib
import copy
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, fields as dataclass_fields, replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcsim
from bcsim import engine, harness, novy, twoprover
from bcsim.cli import main as cli_main
from bcsim.harness import (
    ATTACK_MAX_N,
    ENUM_MAX_N,
    FAMILY_ENTRIES,
    HONEST_MAX_N,
    PROTOCOLS,
    ConfigError,
    ScenarioConfig,
    bob_view_distribution,
    compare_distributions,
    emit_report,
    exact_transcript_distribution,
    expected_bit_distribution,
    mixed_honest_distribution,
    outcome_layout,
    outcome_strings,
    run_trials,
    trial_rng,
)
from bcsim.perm import ToyPermutation
from bcsim.selftest import HADAMARD
from test_oracle_reference import novy_outcome_key, twop_outcome_key

RT2 = 1 / math.sqrt(2)


def outcome_key_from_transcript(config, t):
    """Key an unveiled run by its announced values plus disclosed secrets."""
    if config.protocol.startswith("novy"):
        return novy_outcome_key(t.series("h_"), t.series("r_"), t.value("z"),
                                t.value("b"), t.value("x"))
    return twop_outcome_key(t.value("m_0"), t.value("m_1"), t.value("z"),
                            t.value("b"), t.value("r"), t.value("r_disclosed"))


def empirical_transcript_distribution(config, trials, seed):
    """Outcome-key frequencies over seeded unveiling runs."""
    counts = {}
    for i in range(trials):
        transcript, _ = engine.run_protocol(config, trial_rng(seed, i))
        key = outcome_key_from_transcript(config, transcript)
        counts[key] = counts.get(key, 0) + 1
    return {key: c / trials for key, c in counts.items()}


# Values other than the default for each family's own field, by role (honest,
# attack): a perm with only c moved must be refused too. Each protocol's config
# fields take another family's field set to its role's value.
OWN_FIELDS = {"perm": ({"perm_a": 4, "perm_c": 99}, {"perm_c": 0}),
              "allow_zero_m1": ({"allow_zero_m1": True},) * 2}
OTHER_FIELDS = [
    (dict(protocol=protocol, n=3, **({"psi": (0.6, 0.8)} if attack else {"b": 0}),
          **OWN_FIELDS[FAMILY_ENTRIES[other].field][attack]), FAMILY_ENTRIES[other].field)
    for protocol, (family, attack) in engine.PROTOCOLS.items()
    for other in dict.fromkeys(f for f, _ in engine.PROTOCOLS.values()) if other is not family
]


class TestScenarioConfig:
    def test_from_dict_roundtrip(self):
        raw = {"protocol": "novy-attack", "n": 3,
               "psi": {"alpha": [RT2, 0], "beta": [0, RT2]},
               "perm": {"a": 5, "c": 3}, "unveil": False,
               "trials": 10, "seed": 4}
        config = ScenarioConfig.from_dict(raw)
        assert config.psi == (complex(RT2), complex(0, RT2))
        assert config.to_dict()["perm"] == {"a": 5, "c": 3}

    def test_real_amplitudes_accepted(self):
        config = ScenarioConfig.from_dict(
            {"protocol": "2p-attack", "n": 2, "psi": {"alpha": 0.6, "beta": 0.8}})
        assert config.psi == (0.6 + 0j, 0.8 + 0j)

    @pytest.mark.parametrize("raw", [
        {"protocol": "coinflip", "n": 2, "b": 0},
        {"protocol": "novy-honest", "n": 3},
        {"protocol": "novy-honest", "n": 3, "b": 2},
        {"protocol": "novy-honest", "n": 1, "b": 0},
        {"protocol": "novy-honest", "n": 3, "b": 0, "psi": {"alpha": 1, "beta": 0}},
        {"protocol": "novy-attack", "n": 3, "psi": {"alpha": 1, "beta": 1}},
        {"protocol": "2p-attack", "n": 2, "psi": {"alpha": "x", "beta": 0}},
        {"protocol": "2p-honest", "n": 2, "b": 0, "bogus": 1},
        {"protocol": "novy-honest", "n": 2, "b": 0},  # default a=5 invalid mod 4
        {"protocol": "novy-honest", "n": 3, "b": 0, "trials": 0},
        {"protocol": "2p-honest", "n": 2, "b": 0, 1: 0, "bogus": 1},  # keys sort apart
        {"protocol": "2p-honest", "n": 2, "b": 0, 10 ** 5000: 0},  # a key too long to print
    ])
    def test_invalid_configs_rejected(self, raw):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    # Each of these was accepted, coerced or echoed back before strict checks.
    @pytest.mark.parametrize("raw", [
        {"protocol": "novy-honest", "n": 3, "b": 0, "unveil": "false"},
        {"protocol": "2p-honest", "n": 2, "b": 0, "allow_zero_m1": "no"},
        {"protocol": "novy-honest", "n": 3, "b": True},
        {"protocol": "novy-honest", "n": 3, "b": 0, "trials": True},
        {"protocol": "2p-honest", "n": True, "b": 0},
        {"protocol": "novy-honest", "n": 3, "b": 0, "seed": [1, 2]},
        {"protocol": "novy-honest", "n": 3, "b": 0, "perm": {"a": 5.0}},
        {"protocol": "novy-honest", "n": 3, "b": 0, "perm": {"a": 5, "d": 1}},
        {"protocol": "2p-attack", "n": 2, "psi": {"alpha": float("nan"), "beta": 1.0}},
        {"protocol": "2p-attack", "n": 2, "psi": {"alpha": [0.6, "x"], "beta": 0.8}},
        {"protocol": "2p-attack", "n": 2, "psi": {"alpha": True, "beta": 0}},
        {"protocol": "novy-attack", "n": 200, "psi": {"alpha": 1, "beta": 0}},
        {"protocol": "2p-honest", "n": 3, "b": 0, "perm": {"a": 4, "c": 99}},
        {"protocol": "novy-honest", "n": 3, "b": 0, "allow_zero_m1": True},
    ], ids=["unveil-str", "allow_zero_m1-str", "b-bool", "trials-bool", "n-bool",
            "seed-list", "perm-float", "perm-unknown-key", "psi-nan", "psi-str-component",
            "psi-bool", "attack-too-wide", "perm-on-2p", "allow_zero_m1-on-novy"])
    def test_malformed_types_rejected_with_exit_2(self, raw, tmp_path, capsys):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("fields,field", OTHER_FIELDS, ids=[
        f"{field}-on-{fields['protocol']}" for fields, field in OTHER_FIELDS])
    def test_validate_refuses_the_other_familys_field(self, fields, field):
        # to_dict would leave the field out of the report's config.
        with pytest.raises(ConfigError, match=f"^{field} does not apply to {fields['protocol']}"):
            ScenarioConfig(**fields)

    @pytest.mark.parametrize("psi", [(1,), (1, 0, 0), ("a", "b"), 5, (True, False),
                                     (10 ** 400, 0), (1e200, 0), (complex(1e308, 1e308), 0)],
                             ids=["one", "three", "str", "scalar", "bool", "int-overflow",
                                  "norm-overflow", "abs-overflow"])
    def test_malformed_psi_rejected(self, psi):
        with pytest.raises(ConfigError):
            ScenarioConfig(protocol="2p-attack", n=2, psi=psi).validate()

    # An int past the interpreter's int-to-str digit limit has no repr, so
    # each message names its size instead (unless the limit is switched off).
    HUGE = 10 ** 5000
    TOO_LONG = {
        "n": ({"protocol": "2p-honest", "n": HUGE, "b": 0}, "a 16610-bit int"),
        "n-negative": ({"protocol": "2p-honest", "n": -HUGE, "b": 0}, "a 16610-bit int"),
        "n-attack": ({"protocol": "novy-attack", "n": HUGE, "psi": (0.6, 0.8)}, "a 16610-bit int"),
        "psi-alpha": ({"protocol": "2p-attack", "n": 2, "psi": (HUGE, 0)}, "a long tuple"),
        "psi-beta": ({"protocol": "2p-attack", "n": 2, "psi": (0, HUGE)}, "a long tuple"),
        "psi-one-part": ({"protocol": "2p-attack", "n": 2, "psi": [HUGE]}, "a long list"),
        "trials": ({"protocol": "2p-honest", "n": 2, "b": 0, "trials": -HUGE}, "a 16610-bit int"),
        "trials-tuple": ({"protocol": "2p-honest", "n": 2, "b": 0, "trials": (HUGE,)},
                         "a long tuple"),
        "seed": ({"protocol": "2p-honest", "n": 2, "b": 0, "seed": HUGE}, "a 16610-bit int"),
        "seed-negative": ({"protocol": "2p-honest", "n": 2, "b": 0, "seed": -HUGE},
                          "a 16610-bit int"),
        "seed-list": ({"protocol": "2p-honest", "n": 2, "b": 0, "seed": [HUGE]}, "a long list"),
        "perm-a": ({"protocol": "novy-honest", "n": 3, "b": 0, "perm_a": HUGE}, None),
        "perm-c": ({"protocol": "novy-honest", "n": 3, "b": 0, "perm_c": HUGE}, None),
        "perm-a-beside-a-bad-c": ({"protocol": "novy-honest", "n": 3, "b": 0, "perm_a": HUGE,
                                   "perm_c": None}, "a 16610-bit int, None"),
        "perm-c-beside-a-bad-a": ({"protocol": "novy-honest", "n": 3, "b": 0, "perm_a": "5",
                                   "perm_c": HUGE}, "'5', a 16610-bit int"),
        "protocol": ({"protocol": (HUGE,), "n": 2, "b": 0}, "a long tuple"),
    }

    @pytest.mark.parametrize("name", list(TOO_LONG))
    def test_an_int_too_long_to_print_is_a_config_error(self, name):
        fields, shown_as = self.TOO_LONG[name]
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(**fields)
        with pytest.raises(ConfigError) as ran:
            run_trials(ScenarioConfig(**fields))
        assert str(ran.value) == str(info.value)
        try:
            repr(self.HUGE)
        except ValueError:
            if shown_as is not None:
                assert str(info.value).endswith(shown_as)

    @pytest.mark.parametrize("field, value, named",
                             [("perm_a", HUGE, "multiplier a="), ("perm_c", HUGE, "constant c="),
                              ("perm_a", -HUGE, "multiplier a=")],
                             ids=["a", "c", "a-negative"])
    def test_a_perm_too_long_to_print_is_named_with_its_size(self, field, value, named):
        fields = {"protocol": "novy-honest", "n": 3, "b": 0, field: value}
        with pytest.raises(ConfigError) as validated:
            ScenarioConfig(**fields)
        with pytest.raises(ConfigError) as ran:
            engine.run_protocol(ScenarioConfig(**fields), Random(0))
        with pytest.raises(ValueError) as built:
            ToyPermutation(3, **{field[-1]: value})
        assert str(ran.value) == str(validated.value)
        for info in (validated, built):
            message = str(info.value)
            assert f"{named}{engine.shown(value)} " in message
            assert "Exceeds the limit" not in message

    def test_a_long_seed_that_prints_is_accepted(self):
        seed = -10 ** 700  # over 2,000 bits, under the default 4,300-digit limit
        try:
            str(seed)
        except ValueError:
            pytest.skip("the int-to-str digit limit is below 701 digits")
        config = ScenarioConfig(protocol="2p-honest", n=2, b=0, seed=seed).validate()
        assert run_trials(config).config["seed"] == seed

    def test_huge_amplitude_in_json_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"protocol": "2p-attack", "n": 2,
                                      "psi": {"alpha": 10 ** 400, "beta": [0, 10 ** 400]}})

    def test_huge_width_rejected_without_allocating(self):
        # The width bound comes first, and the permutation bounds are
        # checked by bit length, not against 2^n.
        with pytest.raises(ConfigError, match="n <="):
            ScenarioConfig(protocol="novy-honest", n=10 ** 15, b=0).validate()
        assert ToyPermutation(10 ** 15).n == 10 ** 15

    @pytest.mark.parametrize("protocol", ["novy-honest", "2p-honest"])
    def test_honest_width_rejected_before_running(self, protocol, monkeypatch, tmp_path, capsys):
        def never(*args):
            raise AssertionError("a rejected scenario must not run")
        monkeypatch.setattr(engine, "run_protocol", never)
        # n = 10**18 passed validation and died in rng.getrandbits with exit 1.
        for n in (HONEST_MAX_N + 1, 10 ** 18):
            raw = {"protocol": protocol, "n": n, "b": 0}
            with pytest.raises(ConfigError, match=f"n <= {HONEST_MAX_N}"):
                ScenarioConfig.from_dict(raw)
            path = tmp_path / "wide.json"
            path.write_text(json.dumps(raw))
            assert cli_main(["run", "--config", str(path)]) == 2
            assert "config error" in capsys.readouterr().err
        assert ScenarioConfig.from_dict({"protocol": protocol, "n": HONEST_MAX_N, "b": 0})

    def test_default_permutation_error_names_the_fix(self):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict({"protocol": "novy-honest", "n": 2, "b": 0})
        message = str(info.value)
        assert "default perm" in message and "n >= 3" in message and '"perm"' in message
        # An explicit permutation is not blamed on the default.
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict({"protocol": "novy-honest", "n": 2, "b": 0,
                                      "perm": {"a": 7, "c": 1}})
        assert "default" not in str(info.value)
        # The defaults and their echo are unchanged.
        config = ScenarioConfig.from_dict({"protocol": "novy-honest", "n": 3, "b": 0})
        assert config.to_dict()["perm"] == {"a": 5, "c": 3}

    def test_attack_width_rejected_before_running(self, monkeypatch):
        def never(*args):
            raise AssertionError("a rejected scenario must not run")
        monkeypatch.setattr(engine, "run_protocol", never)
        assert 10 <= ATTACK_MAX_N <= 16
        for protocol in ("novy-attack", "2p-attack"):
            with pytest.raises(ConfigError, match="n <="):
                run_trials(ScenarioConfig(protocol=protocol, n=ATTACK_MAX_N + 1, psi=(RT2, RT2)))
            assert ScenarioConfig(protocol=protocol, n=ATTACK_MAX_N, psi=(RT2, RT2)).validate()
        # Honest work is polynomial in n, so honest widths reach HONEST_MAX_N.
        assert ScenarioConfig(protocol="2p-honest", n=200, b=1).validate()

    def test_n2_needs_explicit_small_permutation(self):
        config = ScenarioConfig.from_dict(
            {"protocol": "novy-honest", "n": 2, "b": 0, "perm": {"a": 3, "c": 1}})
        p = config.own_keyword["p"]
        assert {p.forward_int(x) for x in range(4)} == set(range(4))

    @pytest.mark.parametrize("protocol", ["novy-honest", "novy-attack"])
    def test_every_trial_takes_the_permutation_the_config_built(self, protocol, monkeypatch):
        config = ScenarioConfig(protocol=protocol, n=4, perm_a=7, perm_c=9, trials=3,
                                **({"psi": (RT2, RT2)} if "attack" in protocol else {"b": 1}))
        p = config.own_keyword["p"]
        assert p == ToyPermutation(4, 7, 9)
        assert replace(config, perm_c=8).own_keyword["p"] == ToyPermutation(4, 7, 8)
        assert replace(config, n=5).own_keyword["p"].n == 5
        seen = []
        for phase in ("honest_commit", "attack_commit", "honest_unveil_check"):
            def spy(*args, p, _phase=getattr(novy, phase), **kwargs):
                seen.append(p)
                return _phase(*args, p=p, **kwargs)
            monkeypatch.setattr(novy, phase, spy)
        assert run_trials(config).acceptance_rate == 1.0
        assert len(seen) == 2 * config.trials and all(q is p for q in seen)

    def test_invalid_permutation_refused_on_every_validate(self):
        for _ in range(3):
            with pytest.raises(ConfigError, match="invalid permutation"):
                ScenarioConfig(protocol="novy-honest", n=3, b=0, perm_a=4, perm_c=1)


def _valid_config(protocol, **changes):
    inputs = {"psi": (0.6, 0.8j)} if protocol.endswith("attack") else {"b": 1}
    return ScenarioConfig(protocol=protocol, n=3, **inputs, **changes)


class TestCheckedWhenMade:
    # A config is checked once, when it is made: no invalid one can exist.

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_no_field_of_a_made_config_can_be_set(self, protocol):
        config = _valid_config(protocol)
        made = repr(config)
        stored = ["family", "is_attack", "own_keyword"]
        for name in [f.name for f in dataclass_fields(config)] + stored:
            with pytest.raises(FrozenInstanceError):
                setattr(config, name, getattr(config, name))
        assert repr(config) == made

    @pytest.mark.parametrize("bad", [{"n": 10 ** 6}, {"psi": (1, 1)}, {"trials": 0}],
                             ids=["n", "psi", "trials"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_replace_refuses_what_making_the_config_refuses(self, protocol, bad):
        valid = _valid_config(protocol)
        given = {f.name: getattr(valid, f.name) for f in dataclass_fields(valid)}
        with pytest.raises(ConfigError) as made:
            ScenarioConfig(**given | bad)
        with pytest.raises(ConfigError) as replaced:
            replace(valid, **bad)
        assert str(replaced.value) == str(made.value)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_run_reads_the_own_keyword_made_with_the_config(self, monkeypatch, protocol):
        config = _valid_config(protocol, trials=50)
        entry = harness.FAMILY_ENTRIES[config.family]
        calls = 0

        def own(c):
            nonlocal calls
            calls += 1
            return entry.own(c)

        monkeypatch.setitem(harness.FAMILY_ENTRIES, config.family, entry._replace(own=own))
        assert run_trials(config).trials == 50
        assert calls == 0

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_copy_is_the_config_made_again_from_its_fields(self, protocol, copier):
        # psi off norm 1 by 6e-11 is stored divided by its norm; made again, it stays.
        inputs = ({"psi": (0.6 * (1 + 3e-11), 0.8j * (1 + 3e-11))} if protocol.endswith("attack")
                  else {"b": 1})
        config = ScenarioConfig(protocol=protocol, n=3, trials=5, seed=7, **inputs)
        twin = copier(config)
        assert twin == config and twin.own_keyword == config.own_keyword
        assert twin.family is config.family and twin.roles is config.roles
        assert run_trials(twin).payload() == run_trials(config).payload()


# Each own-field refusal by its way in, with the exact text: a config's fields, a
# config file's fields, or a 2p commit's n, secret and flag, which must refuse
# before any draw. Inputs with two faults pin which one is named.
PERM_HINT = (' (the default perm a=5, c=3 needs n >= 3;'
             ' pass "perm": {"a": odd a < 2^n, "c": c < 2^n})')
OWN_FIELD_REFUSALS = {
    "perm-float": ("config", {"protocol": "novy-honest", "n": 3, "b": 0, "perm_c": 3.0},
                   "perm a and c must be integers, got 5, 3.0"),
    "perm-float-file": ("file", {"protocol": "novy-honest", "n": 3, "b": 0, "perm": {"a": 5.0}},
                        "perm a and c must be integers, got 5.0, 3"),
    "perm-float-before-n": ("config", {"protocol": "novy-honest", "n": 0, "b": 0, "perm_c": 3.0},
                            "perm a and c must be integers, got 5, 3.0"),
    "perm-str-on-2p": ("config", {"protocol": "2p-honest", "n": 3, "b": 0, "perm_a": "5"},
                       "perm a and c must be integers, got '5', 3"),
    "perm-default-at-n2": ("file", {"protocol": "novy-honest", "n": 2, "b": 0},
                           "invalid permutation: multiplier a=5 outside [1, 2^2)" + PERM_HINT),
    "perm-default-given-at-n2": ("config", {"protocol": "novy-attack", "n": 2, "psi": (0.6, 0.8),
                                            "perm_a": 5, "perm_c": 3},
                                 "invalid permutation: multiplier a=5 outside [1, 2^2)"
                                 + PERM_HINT),
    "perm-moved-at-n2": ("file", {"protocol": "novy-honest", "n": 2, "b": 0, "perm": {"a": 7}},
                         "invalid permutation: multiplier a=7 outside [1, 2^2)"),
    "perm-on-2p-file": ("file", {"protocol": "2p-honest", "n": 3, "b": 0,
                                 "perm": {"a": 4, "c": 99}},
                        "perm does not apply to 2p-honest scenarios"),
    "empty-perm-on-2p-file": ("file", {"protocol": "2p-attack", "n": 3, "perm": {},
                                       "psi": {"alpha": 1, "beta": 0}},
                              "perm does not apply to 2p-attack scenarios"),
    "flag-zero-on-novy": ("config", {"protocol": "novy-honest", "n": 3, "b": 0, "allow_zero_m1": 0},
                          "allow_zero_m1 does not apply to novy-honest scenarios"),
    "flag-false-on-novy-file": ("file", {"protocol": "novy-attack", "n": 3, "allow_zero_m1": False,
                                         "psi": {"alpha": 1, "beta": 0}},
                                "allow_zero_m1 does not apply to novy-attack scenarios"),
    "flag-str-file": ("file", {"protocol": "2p-honest", "n": 3, "b": 0, "allow_zero_m1": "no"},
                      "unveil and allow_zero_m1 must be true or false"),
    "flag-str-after-n": ("config", {"protocol": "2p-attack", "n": 0, "psi": (0.6, 0.8),
                                    "allow_zero_m1": "no"}, "n must be a positive integer, got 0"),
    "flag-str-after-n-honest-commit": ("honest_commit", {"n": 0, "b": 1, "allow_zero_m1": "no"},
                                       "n must be a positive integer, got 0"),
    "flag-zero-after-psi-attack-commit": ("attack_commit",
                                          {"n": 3, "psi": (1, 1), "allow_zero_m1": 0},
                                          "psi must be normalized"),
    "flag-float-attack-commit": ("attack_commit", {"n": 3, "psi": (1, 0), "allow_zero_m1": 0.0},
                                 "unveil and allow_zero_m1 must be true or false"),
    "perm-int-file": ("file", {"protocol": "novy-honest", "n": 3, "b": 0, "perm": 5},
                      'perm must be {"a": int, "c": int}'),
    "perm-list-on-2p-file": ("file", {"protocol": "2p-honest", "n": 3, "b": 0, "perm": [5, 3]},
                             'perm must be {"a": int, "c": int}'),
}


@pytest.mark.parametrize("name", list(OWN_FIELD_REFUSALS))
def test_own_field_refusals_name_their_fault(name):
    via, fields, text = OWN_FIELD_REFUSALS[name]
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(ConfigError) as info:
        if via == "config":
            ScenarioConfig(**fields)
        elif via == "file":
            ScenarioConfig.from_dict(fields)
        else:
            fields = dict(fields)
            secret = fields.pop("psi" if via == "attack_commit" else "b")
            getattr(twoprover, via)(secret, fields.pop("n"), rng, **fields)
    assert str(info.value) == text
    assert rng.getstate() == state


class TestCompareDistributions:
    def test_identical(self):
        assert compare_distributions({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0

    def test_disjoint_point_masses(self):
        assert compare_distributions({"a": 1.0}, {"b": 1.0}) == 1.0

    def test_direct_sum(self):
        assert compare_distributions({0: 0.5, 1: 0.5}, {0: 0.25, 1: 0.75}) == 0.25

    def test_partial_overlap(self):
        p = {"a": 0.5, "b": 0.25, "c": 0.25}
        q = {"a": 0.25, "b": 0.25, "d": 0.5}
        # |0.5 - 0.25| on a, 0.25 only in p, 0.5 only in q.
        assert compare_distributions(p, q) == 0.5

    @pytest.mark.parametrize("p, q, tv", [
        ({"a": 1.0}, {"a": 0.5, "c": 0.5}, 0.5),
        ({"a": 0.5, "c": 0.5}, {"a": 1.0}, 0.5),
        ({}, {"a": 1.0}, 0.5),
        ({"a": 1.0}, {}, 0.5),
    ], ids=["q-superset", "q-subset", "p-empty", "q-empty"])
    def test_one_support_inside_the_other(self, p, q, tv):
        # The keys only q has count whenever q has any, and only then.
        assert compare_distributions(p, q) == tv

    def test_symmetric(self):
        rng = Random(7)

        def draw():
            weights = {k: rng.random() for k in rng.sample(range(40), 25)}
            total = sum(weights.values())
            return {k: w / total for k, w in weights.items()}

        for _ in range(50):
            p, q = draw(), draw()
            assert abs(compare_distributions(p, q) - compare_distributions(q, p)) <= 1e-15


class TestIndependentRowTuples:
    def test_counts_match_the_full_rank_formula(self):
        # Ordered tuples of n - 1 independent rows, prod_{i<n-1} (2^n - 2^i),
        # each with 2^(n-1) response vectors.
        for n, tuples in [(2, 3), (3, 7 * 6), (4, 15 * 14 * 12)]:
            assert harness._tuple_count(n, n - 1) == tuples
            assert len(harness._novy_systems.__wrapped__(n)) == tuples << (n - 1)


class TestExactEnumeration:
    def test_tables_sum_to_one(self):
        for config in (
            ScenarioConfig(protocol="novy-honest", n=3, b=0),
            ScenarioConfig(protocol="novy-attack", n=2, psi=(0.6, 0.8), perm_a=3, perm_c=1),
            ScenarioConfig(protocol="2p-honest", n=2, b=1),
            ScenarioConfig(protocol="2p-attack", n=2, psi=(RT2, RT2)),
        ):
            table = exact_transcript_distribution(config)
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)

    def test_no_oracle_calls_a_role_function(self, monkeypatch):
        # harness holds each role module only to hand it to configs: the
        # tables are built apart from the roles that trials are checked by.
        def refuse(*args, **kwargs):
            raise AssertionError("an oracle called a role function")

        for obj in vars(harness).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == harness.__name__:
                obj.cache_clear()
        for mod in (novy, twoprover):
            for name, obj in list(vars(mod).items()):
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    monkeypatch.setattr(mod, name, refuse)
        for protocol, (_, attack) in engine.PROTOCOLS.items():
            config = ScenarioConfig(protocol=protocol, n=3,
                                    **({"psi": (0.6, 0.8j)} if attack else {"b": 1}))
            assert sum(exact_transcript_distribution(config).values()) == pytest.approx(1.0)
            assert sum(bob_view_distribution(config).values()) == pytest.approx(1.0)
            assert sum(mixed_honest_distribution(config, 0.25).values()) == pytest.approx(1.0)
        early = ScenarioConfig(protocol="novy-attack", n=3, psi=(RT2, RT2))
        assert sum(exact_transcript_distribution(early, early_measure=True).values()) \
            == pytest.approx(1.0)

    def test_novy_bob_view_identical_across_bits(self):
        views = [bob_view_distribution(
            ScenarioConfig(protocol="novy-honest", n=2, b=b, perm_a=3, perm_c=1))
            for b in (0, 1)]
        assert compare_distributions(*views) < 1e-12

    def test_2p_z_uniform_for_either_bit(self):
        for b in (0, 1):
            config = ScenarioConfig(protocol="2p-honest", n=1, b=b)
            layout = outcome_layout(config)
            z_marginal = {}
            for label, prob in exact_transcript_distribution(config).items():
                z = layout.value(label, "Z")
                z_marginal[z] = z_marginal.get(z, 0.0) + prob
            assert z_marginal == pytest.approx({0: 0.5, 1: 0.5})

    @pytest.mark.parametrize("psi", [(1, 0), (0, 1), (0.6, 0.8j), (RT2, -1j * RT2), (RT2, RT2)],
                             ids=["zero", "one", "real-imag", "minus-i", "plus"])
    @pytest.mark.parametrize("protocol, n, perm", [
        ("novy", 2, (3, 1)), ("novy", 3, (5, 3)), ("2p", 2, (5, 3)), ("2p", 3, (5, 3))],
        ids=["novy-n2", "novy-n3", "2p-n2", "2p-n3"])
    def test_attack_view_matches_honest_view(self, protocol, n, perm, psi):
        # Bob's commit view must not tell an attack from an honest commit.
        perm_a, perm_c = perm
        honest = bob_view_distribution(ScenarioConfig(
            protocol=f"{protocol}-honest", n=n, b=0, perm_a=perm_a, perm_c=perm_c))
        attack = bob_view_distribution(ScenarioConfig(
            protocol=f"{protocol}-attack", n=n, psi=psi, perm_a=perm_a, perm_c=perm_c))
        assert compare_distributions(honest, attack) < 1e-10

    def test_attack_table_equals_honest_bernoulli_mix(self):
        for q in (0.0, 0.5, 1.0):
            psi = (math.sqrt(1 - q), math.sqrt(q))
            config = ScenarioConfig(protocol="novy-attack", n=2, psi=psi,
                                    perm_a=3, perm_c=1)
            tv = compare_distributions(exact_transcript_distribution(config),
                                       mixed_honest_distribution(config, q))
            assert tv < 1e-10

    @pytest.mark.parametrize("q", [1.5, -0.2, math.nan], ids=["above-1", "negative", "nan"])
    def test_mixture_rejects_a_weight_outside_0_1(self, q):
        config = ScenarioConfig(protocol="novy-attack", n=2, psi=(RT2, RT2), perm_a=3, perm_c=1)
        with pytest.raises(ConfigError, match="q must be a probability"):
            mixed_honest_distribution(config, q)

    @pytest.mark.parametrize("q", [0, abs(HADAMARD[1]) ** 2, 1], ids=["zero", "hadamard", "one"])
    def test_mixture_accepts_the_ends_and_hadamard_weight(self, q):
        config = ScenarioConfig(protocol="novy-attack", n=2, psi=(RT2, RT2), perm_a=3, perm_c=1)
        table = mixed_honest_distribution(config, q)
        assert all(0.0 <= prob <= 1.0 for prob in table.values())
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("protocol", ["novy-honest", "2p-honest", "2p-attack"])
    def test_early_measure_is_refused_off_novy_attack(self, protocol):
        # Only novy-attack has an early order; a default table in its place
        # would make every early-vs-late comparison read 0.
        config = ScenarioConfig.from_dict(self._scenario(protocol, 3))
        with pytest.raises(ConfigError, match="early_measure applies to novy-attack only"):
            exact_transcript_distribution(config, early_measure=True)
        assert exact_transcript_distribution(config)

    @pytest.mark.parametrize("early", ["yes", 1, 0, "no", None])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_early_measure_must_be_a_bool(self, monkeypatch, protocol, early):
        # A truthy non-bool must not pick the early order: it is refused
        # before any table is built, as a non-bool unveil is.
        config = ScenarioConfig.from_dict(self._scenario(protocol, 3))
        tables = [exact_transcript_distribution(config, early_measure=False)]
        if protocol == "novy-attack":
            tables.append(exact_transcript_distribution(config, early_measure=True))
        assert all(tables)

        def refuse(*args, **kwargs):
            raise AssertionError("a table was built")

        for name in ("_novy_honest_table", "_novy_attack_table", "_twop_honest_table",
                     "_twop_attack_table", "_systems_table"):
            monkeypatch.setattr(harness, name, refuse)
        with pytest.raises(ConfigError, match="early_measure must be true or false"):
            exact_transcript_distribution(config, early_measure=early)

    @pytest.mark.parametrize("oracle", ["exact", "mixed", "view", "layout"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_each_oracle_validates_its_config_once(self, monkeypatch, protocol, oracle):
        attack = protocol.endswith("attack")
        config = ScenarioConfig(protocol=protocol, n=3, b=None if attack else 0,
                                psi=(0.6, 0.8) if attack else None)
        calls = {
            "exact": exact_transcript_distribution,
            "mixed": lambda c: mixed_honest_distribution(c, 0.3),
            "view": bob_view_distribution,
            "layout": outcome_layout,
        }
        validate = ScenarioConfig.validate
        count = 0

        def counted(self):
            nonlocal count
            count += 1
            return validate(self)

        monkeypatch.setattr(ScenarioConfig, "validate", counted)
        calls[oracle](config)
        assert count == 0  # checked when it was made

    def test_enumeration_bounds_enforced(self):
        with pytest.raises(ConfigError):
            exact_transcript_distribution(
                ScenarioConfig(protocol="novy-honest", n=4, b=0))

    @staticmethod
    def _scenario(protocol, n):
        if protocol.endswith("attack"):
            return {"protocol": protocol, "n": n, "psi": {"alpha": 0.6, "beta": [0, 0.8]}}
        return {"protocol": protocol, "n": n, "b": 1}

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_one_bound_for_every_protocol(self, protocol, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self._scenario(protocol, ENUM_MAX_N)))
        config = ScenarioConfig.from_json_file(str(path))
        assert sum(exact_transcript_distribution(config).values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(bob_view_distribution(config).values()) == pytest.approx(1.0, abs=1e-9)
        assert cli_main(["enumerate", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sum(out["distribution"].values()) == pytest.approx(1.0, abs=1e-9)

        path.write_text(json.dumps(self._scenario(protocol, ENUM_MAX_N + 1)))
        config = ScenarioConfig.from_json_file(str(path))
        for oracle in (exact_transcript_distribution, bob_view_distribution):
            with pytest.raises(ConfigError, match=f"n <= {ENUM_MAX_N}"):
                oracle(config)
        assert cli_main(["enumerate", "--config", str(path)]) == 2
        assert f"n <= {ENUM_MAX_N}" in capsys.readouterr().err

    def test_oracle_agreement_with_trials(self):
        config = ScenarioConfig(protocol="novy-attack", n=2, psi=(RT2, RT2),
                                perm_a=3, perm_c=1)
        exact = outcome_strings(outcome_layout(config), exact_transcript_distribution(config))
        trials = 10_000
        empirical = empirical_transcript_distribution(config, trials, seed=50)
        assert set(empirical) <= set(exact)
        for key, p in exact.items():
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(empirical.get(key, 0.0) - p) <= max(3 * sigma, 1e-9)


class TestRunTrials:
    def test_honest_completeness(self):
        config = ScenarioConfig(protocol="novy-honest", n=3, b=1,
                                trials=100, seed=1)
        report = run_trials(config)
        assert report.acceptance_rate == 1.0
        assert report.b_counts == {"1": 100}

    def test_recovery_report(self):
        config = ScenarioConfig(protocol="2p-attack", n=2, psi=(0.6, 0.8),
                                unveil=False, trials=100, seed=2)
        report = run_trials(config)
        assert report.acceptance_rate is None
        assert report.min_fidelity >= 1 - 1e-9
        assert report.mean_fidelity >= 1 - 1e-9

    def test_reports_are_deterministic(self):
        config = ScenarioConfig(protocol="2p-attack", n=2, psi=(RT2, RT2),
                                trials=50, seed=9)
        first = emit_report(run_trials(config), "json")
        second = emit_report(run_trials(config), "json")
        assert first == second

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # A fresh fidelity float per trial, without the protocol's cost.
        monkeypatch.setattr(engine, "run_protocol", lambda config, rng: (
            engine.Transcript(engine.TWO_PROVER_LINKS),
            engine.ProtocolOutcome(recovery_fidelity=rng.random())))
        config = ScenarioConfig(protocol="2p-attack", n=1, psi=(RT2, RT2), unveil=False, seed=4)
        run_trials(replace(config, trials=10))
        peaks = []
        for trials in (10_000, 20_000):
            tracemalloc.start()
            try:
                run_trials(replace(config, trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 64 << 10

    @pytest.mark.parametrize("protocol", ["novy-attack", "2p-attack"])
    def test_a_psi_off_norm_is_stored_normalized(self, protocol):
        config = ScenarioConfig(protocol=protocol, n=3, psi=(1 + 4e-11, 0), unveil=False, trials=2)
        assert config.psi == (1.0, 0.0)
        assert config.to_dict()["psi"] == {"alpha": [1.0, 0.0], "beta": [0.0, 0.0]}
        assert run_trials(config).min_fidelity <= 1 + 1e-12
        for psi in (HADAMARD, (0.6, 0.8j)):  # norms within 2^-50 of 1 stay as given
            assert replace(config, psi=psi).psi is psi

    def test_transcript_sample_present(self):
        config = ScenarioConfig(protocol="2p-honest", n=2, b=0, trials=3, seed=3)
        report = run_trials(config)
        names = [m["name"] for m in report.transcript_sample]
        assert names[:4] == ["r_prime", "m_0", "m_1", "z"]


class TestEmitReport:
    def test_json_roundtrip(self):
        config = ScenarioConfig(protocol="novy-honest", n=3, b=0, trials=5, seed=0)
        report = run_trials(config)
        parsed = json.loads(emit_report(report, "json"))
        assert parsed == report.payload()

    def test_text_has_acceptance_line(self):
        config = ScenarioConfig(protocol="novy-honest", n=3, b=0, trials=5, seed=0)
        text = emit_report(run_trials(config), "text")
        assert "acceptance_rate: 1.0" in text

    def test_nan_is_not_emitted(self):
        report = run_trials(ScenarioConfig(protocol="2p-attack", n=1, psi=(RT2, RT2),
                                           unveil=False))
        report.min_fidelity = float("nan")
        with pytest.raises(ValueError):
            emit_report(report, "json")

    def test_psi_echo_does_not_depend_on_its_number_types(self):
        # psi given as ints, as floats, or parsed from JSON is one scenario.
        raw = {"protocol": "2p-attack", "n": 2, "trials": 3, "seed": 4}
        configs = [ScenarioConfig(**raw, psi=(1, 0)), ScenarioConfig(**raw, psi=(1.0, 0.0)),
                   ScenarioConfig.from_dict({**raw, "psi": {"alpha": 1, "beta": 0}})]
        reports = {emit_report(run_trials(config), "json") for config in configs}
        assert len(reports) == 1
        assert '"psi":{"alpha":[1.0,0.0],"beta":[0.0,0.0]}' in reports.pop()

    def test_unknown_format(self):
        config = ScenarioConfig(protocol="novy-honest", n=3, b=0, trials=1, seed=0)
        with pytest.raises(ValueError):
            emit_report(run_trials(config), "yaml")


class TestCli:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "protocol": "2p-attack", "n": 2,
            "psi": {"alpha": RT2, "beta": RT2},
            "trials": 20, "seed": 5,
        }))
        return str(path)

    def test_run_emits_parseable_json(self, config_file, capsys):
        assert cli_main(["run", "--config", config_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["acceptance_rate"] == 1.0

    def test_run_text_format(self, config_file, capsys):
        assert cli_main(["run", "--config", config_file, "--format", "text",
                         "--trials", "5"]) == 0
        assert "acceptance_rate: 1.0" in capsys.readouterr().out

    def test_overrides_are_the_config_that_ran(self, config_file, tmp_path, capsys):
        # The report must echo the seed and trials it ran with, so that
        # re-running its config reproduces it.
        assert cli_main(["run", "--config", config_file, "--seed", "7", "--trials", "5"]) == 0
        overridden = capsys.readouterr().out
        raw = json.loads(Path(config_file).read_text())
        path = tmp_path / "recorded.json"
        path.write_text(json.dumps({**raw, "seed": 7, "trials": 5}))
        assert cli_main(["run", "--config", str(path)]) == 0
        assert overridden == capsys.readouterr().out
        report = json.loads(overridden)
        assert (report["config"]["seed"], report["config"]["trials"]) == (7, 5)

    def test_bad_override_exits_2(self, config_file, capsys):
        assert cli_main(["run", "--config", config_file, "--trials", "0"]) == 2
        assert "trials must be a positive integer" in capsys.readouterr().err

    def test_enumerate_distribution(self, config_file, capsys):
        assert cli_main(["enumerate", "--config", config_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sum(out["distribution"].values()) == pytest.approx(1.0, abs=1e-10)

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": "novy-honest", "n": 3}))
        assert cli_main(["run", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self):
        assert cli_main(["run", "--config", "/nonexistent.json"]) == 2

    # Each of these used to escape json.load as a raw traceback with exit 1.
    UNPARSABLE = {
        "non-utf8": b'{"protocol": "novy-honest", "n": 3, "b": \xff1}',
        "int-past-digit-limit": b'{"protocol": "novy-honest", "n": ' + b"9" * 5000 + b', "b": 1}',
        "nested-100000-deep": b'{"protocol": ' + b"[" * 100000 + b"]" * 100000 + b"}",
    }

    @pytest.mark.parametrize("command", ["run", "enumerate"])
    @pytest.mark.parametrize("name", list(UNPARSABLE))
    def test_unparsable_file_is_a_config_error(self, name, command, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(self.UNPARSABLE[name])
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_file(str(path))
        assert cli_main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# Any JSON value, and numbers at the edges of what floats and ints can hold.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_scalars = (st.sampled_from([0, 1, 2, -1, 2 ** 63, 10 ** 400, -10 ** 400, 1e-320, 1e154, 1e308,
                             -0.0, math.inf, math.nan, True, False, "1", None])
            | st.integers() | st.floats())
_values = _scalars | _json
_amplitudes = _scalars | st.lists(_scalars, min_size=2, max_size=2) | _json
_field_values = {
    "protocol": st.sampled_from(PROTOCOLS) | _values,
    "psi": st.fixed_dictionaries({"alpha": _amplitudes, "beta": _amplitudes}) | _values,
    "perm": st.fixed_dictionaries({}, optional={"a": _values, "c": _values}) | _values,
}


@st.composite
def _small_valid_configs(draw):
    protocol = draw(st.sampled_from(PROTOCOLS))
    raw = {"protocol": protocol, "unveil": draw(st.booleans()),
           "trials": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 2 ** 32))}
    if protocol.startswith("novy"):
        n = raw["n"] = draw(st.integers(2, 6))
        raw["perm"] = {"a": 2 * draw(st.integers(0, (1 << (n - 1)) - 1)) + 1,
                       "c": draw(st.integers(0, (1 << n) - 1))}
    else:
        raw["n"] = draw(st.integers(1, 6))
        raw["allow_zero_m1"] = draw(st.booleans())
    if protocol.endswith("attack"):
        theta = draw(st.floats(0, math.pi / 2))
        phi = draw(st.floats(-math.pi, math.pi))
        raw["psi"] = {"alpha": math.cos(theta),
                      "beta": [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)]}
    else:
        raw["b"] = draw(st.integers(0, 1))
    return raw


def _rejected_or_valid(raw):
    try:
        config = ScenarioConfig.from_dict(raw)
    except ConfigError:
        return
    assert replace(config) == config  # made again, it is checked again and accepted
    # The report's config echoes every field the input gave.
    assert set(raw) <= set(config.to_dict()), sorted(set(raw) - set(config.to_dict()))
    json.dumps(config.to_dict(), allow_nan=False)


class TestConfigFuzz:
    # Every input either raises ConfigError or validates.
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_json)
    def test_any_json_value(self, raw):
        _rejected_or_valid(raw)

    @pytest.mark.parametrize("field", ["protocol", "n", "b", "psi", "psi.alpha", "psi.beta",
                                       "perm", "perm.a", "unveil", "trials", "seed",
                                       "allow_zero_m1", "extra"])
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(raw=_small_valid_configs(), data=st.data())
    def test_valid_config_with_one_field_dropped_or_replaced(self, field, raw, data):
        *parents, key = field.split(".")
        owner = raw
        for name in parents:
            owner = owner.setdefault(name, {})
        if data.draw(st.integers(0, 3), label="drop") == 0:
            owner.pop(key, None)
        else:
            owner[key] = data.draw(_amplitudes if parents == ["psi"] else
                                   _field_values.get(field, _values), label=field)
        _rejected_or_valid(raw)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_small_valid_configs(), st.floats(-4e-11, 4e-11))
    def test_reports_stay_physical(self, raw, off):
        if "psi" in raw:  # off norm 1 by up to 8e-11, inside qsim.NORM_EPS
            raw["psi"] = {"alpha": raw["psi"]["alpha"] * (1 + off),
                          "beta": [part * (1 + off) for part in raw["psi"]["beta"]]}
        report = run_trials(ScenarioConfig.from_dict(raw))
        for fidelity in (report.min_fidelity, report.mean_fidelity):
            assert fidelity is None or 1 - 1e-9 <= fidelity <= 1 + 1e-12
        for share in (report.acceptance_rate, report.tv_unveiled_bit):
            assert share is None or 0 <= share <= 1
        assert sum(report.b_counts.values()) == (report.trials if raw["unveil"] else 0)
        emit_report(report, "json")

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_small_valid_configs())
    def test_small_valid_configs_run_to_a_finite_report(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli_main(["run", "--config", path]) == 0
        report = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert report["trials"] == raw["trials"]
        assert report["acceptance_rate"] in (None, 1.0)
        assert report["min_fidelity"] is None or report["min_fidelity"] >= 1 - 1e-9


class TestModuleEntryPoint:
    def _run(self, *args):
        src = str(Path(bcsim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "bcsim", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_run_matches_cli_main(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"protocol": "novy-attack", "n": 3,
                                    "psi": {"alpha": 0.6, "beta": [0, 0.8]},
                                    "trials": 5, "seed": 9}))
        proc = self._run("run", "--config", str(path))
        assert proc.returncode == 0, proc.stderr
        assert cli_main(["run", "--config", str(path)]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"protocol": "novy-honest", "n": 3}))
        proc = self._run("run", "--config", str(path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr


class TestOutputErrors:
    """A stdout that cannot be written exits 3 with one line on stderr."""

    class BrokenStdout(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"protocol": "novy-attack", "n": 3,
                                    "psi": {"alpha": 0.6, "beta": 0.8}, "trials": 3}))
        return str(path)

    @pytest.mark.parametrize("command", ["run", "enumerate", "selftest"])
    def test_broken_pipe_exits_3(self, command, config_path, monkeypatch, capsys):
        from bcsim import selftest
        monkeypatch.setattr(selftest, "ALL_CRITERIA", (
            lambda: selftest.CriterionOutcome("quick", True, "detail", 0.0, 1.0),))
        monkeypatch.setattr(sys, "stdout", self.BrokenStdout())
        argv = [command] if command == "selftest" else [command, "--config", config_path]
        assert cli_main(argv) == 3
        assert capsys.readouterr().err == "output error: [Errno 32] Broken pipe\n"

    def _child(self, *args, **kwargs):
        src = str(Path(bcsim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.Popen([sys.executable, "-m", "bcsim", *args], env=env,
                                stderr=subprocess.PIPE, text=True, **kwargs)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["run", "enumerate"])
    def test_full_device_exits_3(self, command, config_path):
        with open("/dev/full", "w") as full:
            proc = self._child(command, "--config", config_path, stdout=full)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err == "output error: [Errno 28] No space left on device\n"

    def test_closed_pipe_exits_3(self, config_path):
        # Nothing reads the pipe, so the first write the child makes fails.
        proc = self._child("enumerate", "--config", config_path, stdout=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err == "output error: [Errno 32] Broken pipe\n"


class TestProtocolNamingNoFamily:
    # Each names no family. mixed_honest_distribution rewrote the name with
    # str.replace before validating it, so a non-string one raised
    # AttributeError there.
    PROTOCOLS = [None, 5, ["novy-attack"], {"protocol": "novy-attack"}, "telepathy"]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("oracle", [
        exact_transcript_distribution,
        lambda config: mixed_honest_distribution(config, 0.5),
        bob_view_distribution,
        outcome_layout,
    ], ids=["exact", "mixed", "view", "layout"])
    def test_oracles_raise_config_error(self, oracle, protocol):
        with pytest.raises(ConfigError, match=f"^unknown protocol {re.escape(repr(protocol))}$"):
            oracle(ScenarioConfig(protocol=protocol, n=2, psi=(0.6, 0.8)))

    # is_attack tested the name's suffix: None raised AttributeError, and
    # "2p-honest-attack" read as an attack.
    @pytest.mark.parametrize("protocol", [None, 5, ["novy-attack"], "novy", "2p-honest-attack"])
    @pytest.mark.parametrize("read", [
        lambda config: config.is_attack,
        expected_bit_distribution,
    ], ids=["is_attack", "expected_bit"])
    def test_role_reads_raise_config_error(self, read, protocol):
        with pytest.raises(ConfigError, match=f"^unknown protocol {re.escape(repr(protocol))}$"):
            read(ScenarioConfig(protocol=protocol, n=2, psi=(0.6, 0.8)))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("command", ["run", "enumerate"])
    def test_cli_exits_2(self, command, protocol, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"protocol": protocol, "n": 2, "b": 0}))
        assert cli_main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown protocol ")
