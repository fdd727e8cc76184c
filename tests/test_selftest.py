"""The selftest's shared checks: each exact criterion is a list of
(label, table, table) cases run by one TV loop, which stops at the first
failing case, and each criterion's detail names every case it ran. The
completeness and recovery criteria run every attack protocol through
run_trials, and also stop at the first that fails."""
import re
from dataclasses import replace

import pytest

from bcsim import engine, selftest
from bcsim.harness import compare_distributions, run_trials


def test_tv_loop_stops_at_the_first_case_at_the_tolerance():
    def cases():
        yield "same", {0: 1.0}, {0: 1.0}
        yield "half", {0: 0.5, 1: 0.5}, {0: 1.0}
        raise AssertionError("a case after the failure was built")

    assert selftest._tv_cases(cases(), "{!r}", 0.5) == (False, "same: tv=0.0; half: tv=0.5")


def test_tv_loop_passes_below_the_tolerance_and_formats_each_tv():
    cases = [("a", {0: 1.0}, {0: 1.0}), ("b", {0: 0.5, 1: 0.5}, {0: 1.0})]
    assert selftest._tv_cases(iter(cases), "{:.2e}", 0.6) == (
        True, "a: tv=0.00e+00; b: tv=5.00e-01")


WIDTHS = [("novy", 2), ("novy", 3), ("2p", 1), ("2p", 2), ("2p", 3)]
# Each exact criterion's case labels, in order, and the form of its TVs:
# concealment prints each TV's repr, the others two decimals.
EXACT_CASES = {
    "exact_concealment": ([f"{family} n={n}" for family, n in WIDTHS], r"\d\.\d+(e-\d+)?"),
    "transcript_equivalence": ([f"{family} n={n} q={q}"
                                for q in (0.0, 0.5, 1.0, "0.5 psi=(1,i)/sqrt2")
                                for family, n in WIDTHS], r"\d\.\d\de[+-]\d\d"),
    "commuting_controls": (["novy n=2", "novy n=3"], r"\d\.\d\de[+-]\d\d"),
}


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_exact_criteria_report_every_case(name):
    labels, tv = EXACT_CASES[name]
    outcome = getattr(selftest, name)()
    assert outcome.passed, outcome.detail
    assert re.fullmatch("; ".join(f"{re.escape(label)}: tv={tv}" for label in labels),
                        outcome.detail), outcome.detail


ATTACKS = [protocol for protocol, (_, attack) in engine.PROTOCOLS.items() if attack]


def record_runs(monkeypatch, edit=lambda config, report: report):
    """The protocol of each run_trials call the selftest makes, in order;
    edit may change the report of each before the criterion sees it."""
    protocols = []

    def recorded(config):
        protocols.append(config.protocol)
        return edit(config, run_trials(config))

    monkeypatch.setattr(selftest, "run_trials", recorded)
    return protocols


# The novy-attack completeness run is the one the selftest has always made,
# so its numbers stay; a recovery fidelity's last bits are not pinned.
@pytest.mark.parametrize("name, runs, novy", [
    ("attack_completeness", 1,
     "novy-attack: acceptance_rate=1.0, b1_freq=0.4897 (want 0.5 within 0.0150); "),
    ("attack_recovery", 120, "novy-attack: min_fidelity=")])
def test_claim_criteria_run_each_attack_protocol(name, runs, novy, monkeypatch):
    protocols = record_runs(monkeypatch)
    outcome = getattr(selftest, name)()
    assert outcome.passed, outcome.detail
    assert protocols == [protocol for protocol in ATTACKS for _ in range(runs)]
    assert [entry.split(":")[0] for entry in outcome.detail.split("; ")] == ATTACKS
    assert outcome.detail.startswith(novy)


def test_completeness_fails_on_a_rejected_unveiling_and_names_the_protocol(monkeypatch):
    record_runs(monkeypatch, lambda config, report: replace(report, acceptance_rate=0.5)
                if config.protocol == "2p-attack" else report)
    outcome = selftest.attack_completeness()
    assert not outcome.passed
    assert outcome.detail.split("; ")[-1].startswith("2p-attack: acceptance_rate=0.5, ")


def test_recovery_fails_on_a_low_fidelity_and_stops_there(monkeypatch):
    protocols = record_runs(monkeypatch, lambda config, report: replace(report, min_fidelity=0.9)
                            if config.protocol == "novy-attack" else report)
    outcome = selftest.attack_recovery()
    assert not outcome.passed
    assert outcome.detail == ("novy-attack: min_fidelity=0.9 over 120 random states, "
                              "n in 3..8, 64 and 256")
    assert set(protocols) == {"novy-attack"}


def test_gf2_oracle_checks_every_instance():
    outcome = selftest.gf2_solver_oracle()
    assert outcome.passed
    assert outcome.detail.startswith("6447 solver instances match brute force")
    assert sum(1 for _ in selftest._solver_systems()) == 6447 - 1000


# The float.hex of every TV each exact criterion computes, in case order,
# recorded before compare_distributions paired tables that list the same
# keys in the same order. Replaying the compensated sum() of Python 3.12
# and later on each TV's terms gives the plain sum's float, so these hold
# on every supported version.
EXACT_TVS = {
    "exact_concealment": ["0x0.0p+0"] * 5,
    "transcript_equivalence": [
        "0x1.8000000000000p-54", "0x1.5000000000000p-52", "0x1.0000000000000p-53",
        "0x0.0p+0", "0x1.c000000000000p-54",
        "0x0.0p+0", "0x1.5000000000000p-52", "0x1.0000000000000p-53",
        "0x1.8000000000000p-53", "0x1.c000000000000p-54",
        "0x1.8000000000000p-54", "0x1.5000000000000p-52", "0x1.0000000000000p-53",
        "0x0.0p+0", "0x1.c000000000000p-54",
        # psi = (1, i)/sqrt2, added after the real psi: the q = 0.5 TVs again.
        "0x0.0p+0", "0x1.5000000000000p-52", "0x1.0000000000000p-53",
        "0x1.8000000000000p-53", "0x1.c000000000000p-54",
    ],
    "commuting_controls": ["0x1.2000000000000p-53", "0x1.5000000000000p-53"],
}


@pytest.mark.parametrize("name", list(EXACT_TVS))
def test_exact_criteria_tvs_are_pinned_bit_for_bit(name, monkeypatch):
    tvs = []

    def recorded(p, q):
        tvs.append(compare_distributions(p, q))
        return tvs[-1]

    monkeypatch.setattr(selftest, "compare_distributions", recorded)
    assert getattr(selftest, name)().passed
    assert [tv.hex() for tv in tvs] == EXACT_TVS[name]
