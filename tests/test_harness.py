import json
import math
from random import Random

import pytest

from bcsim import engine
from bcsim.cli import main as cli_main
from bcsim.harness import (
    ATTACK_MAX_N,
    ConfigError,
    ScenarioConfig,
    bob_view_distribution,
    compare_distributions,
    emit_report,
    empirical_transcript_distribution,
    exact_transcript_distribution,
    independent_row_tuples,
    mixed_honest_distribution,
    run_trials,
)

RT2 = 1 / math.sqrt(2)


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
    ], ids=["unveil-str", "allow_zero_m1-str", "b-bool", "trials-bool", "n-bool",
            "seed-list", "perm-float", "perm-unknown-key", "psi-nan", "psi-str-component",
            "psi-bool", "attack-too-wide"])
    def test_malformed_types_rejected_with_exit_2(self, raw, tmp_path, capsys):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_attack_width_rejected_before_running(self, monkeypatch):
        def never(*args):
            raise AssertionError("a rejected scenario must not run")
        monkeypatch.setattr(engine, "run_protocol", never)
        assert 10 <= ATTACK_MAX_N <= 16
        for protocol in ("novy-attack", "2p-attack"):
            config = ScenarioConfig(protocol=protocol, n=ATTACK_MAX_N + 1, psi=(RT2, RT2))
            with pytest.raises(ConfigError, match="n <="):
                run_trials(config)
            assert ScenarioConfig(protocol=protocol, n=ATTACK_MAX_N, psi=(RT2, RT2)).validate()
        # Honest work is polynomial in n, so honest widths stay unbounded.
        assert ScenarioConfig(protocol="2p-honest", n=200, b=1).validate()

    def test_n2_needs_explicit_small_permutation(self):
        config = ScenarioConfig.from_dict(
            {"protocol": "novy-honest", "n": 2, "b": 0, "perm": {"a": 3, "c": 1}})
        assert config.permutation().verify_bijection()


class TestCompareDistributions:
    def test_identical(self):
        assert compare_distributions({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0

    def test_disjoint_point_masses(self):
        assert compare_distributions({"a": 1.0}, {"b": 1.0}) == 1.0

    def test_direct_sum(self):
        assert compare_distributions({0: 0.5, 1: 0.5}, {0: 0.25, 1: 0.75}) == 0.25


class TestIndependentRowTuples:
    def test_counts_match_the_full_rank_formula(self):
        # Ordered tuples of m independent rows: prod_{i<m} (2^n - 2^i).
        assert len(independent_row_tuples(2, 1)) == 3
        assert len(independent_row_tuples(3, 2)) == 7 * 6
        assert len(independent_row_tuples(3, 3)) == 7 * 6 * 4


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

    def test_novy_bob_view_identical_across_bits(self):
        views = [bob_view_distribution(
            ScenarioConfig(protocol="novy-honest", n=2, b=b, perm_a=3, perm_c=1))
            for b in (0, 1)]
        assert compare_distributions(*views) < 1e-12

    def test_2p_z_uniform_for_either_bit(self):
        for b in (0, 1):
            table = exact_transcript_distribution(
                ScenarioConfig(protocol="2p-honest", n=1, b=b))
            z_marginal = {}
            for key, prob in table.items():
                z = dict(part.split("=") for part in key.split())["z"]
                z_marginal[z] = z_marginal.get(z, 0.0) + prob
            assert z_marginal == pytest.approx({"0": 0.5, "1": 0.5})

    def test_2p_attack_view_matches_honest_view(self):
        honest = bob_view_distribution(ScenarioConfig(protocol="2p-honest", n=2, b=0))
        for psi in ((1, 0), (RT2, RT2), (0.6, 0.8j)):
            attack = bob_view_distribution(
                ScenarioConfig(protocol="2p-attack", n=2, psi=psi))
            assert compare_distributions(honest, attack) < 1e-10

    def test_attack_table_equals_honest_bernoulli_mix(self):
        for q in (0.0, 0.5, 1.0):
            psi = (math.sqrt(1 - q), math.sqrt(q))
            config = ScenarioConfig(protocol="novy-attack", n=2, psi=psi,
                                    perm_a=3, perm_c=1)
            tv = compare_distributions(exact_transcript_distribution(config),
                                       mixed_honest_distribution(config, q))
            assert tv < 1e-10

    def test_enumeration_bounds_enforced(self):
        with pytest.raises(ConfigError):
            exact_transcript_distribution(
                ScenarioConfig(protocol="novy-honest", n=4, b=0))
        with pytest.raises(ConfigError):
            exact_transcript_distribution(
                ScenarioConfig(protocol="2p-honest", n=3, b=0))

    def test_oracle_agreement_with_trials(self):
        config = ScenarioConfig(protocol="novy-attack", n=2, psi=(RT2, RT2),
                                perm_a=3, perm_c=1)
        exact = exact_transcript_distribution(config)
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
