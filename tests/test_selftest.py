"""The selftest's shared checks: each criterion yields Case records that
one runner runs up to the first failing case, and the outcome keeps the
cases it ran. Each exact criterion's cases carry the TV it compared. The
completeness and recovery criteria run every attack protocol through
run_trials, and also stop at the first that fails."""
import math
from dataclasses import replace

import pytest

from bcsim import engine, selftest
from bcsim.harness import run_trials


def test_check_stops_at_the_first_failing_case():
    def cases():
        yield selftest.Case("same", True, "tv=0.0", 0.0)
        yield selftest.Case("half", False, "tv=0.5", 0.5)
        raise AssertionError("a case after the failure was built")

    outcome = selftest._check("tv", 1.0, cases)
    assert (outcome.passed, outcome.detail) == (False, "same: tv=0.0; half: tv=0.5")


def test_an_exception_is_the_only_case_kept():
    def cases():
        yield selftest.Case("ran", True, "fine")
        raise ValueError("broken")

    outcome = selftest._check("raises", 1.0, cases)
    assert (outcome.passed, outcome.detail) == (False, "ValueError: broken")
    assert outcome.cases == (selftest.Case(None, False, "ValueError: broken"),)


def test_a_passing_criterion_over_its_budget_fails(monkeypatch):
    monkeypatch.setattr(selftest.time, "perf_counter", iter([0.0, 2.0]).__next__)
    outcome = selftest._check("slow", 1.0, selftest._one(lambda: (True, "detail")))
    assert not outcome.passed
    assert outcome.detail == "detail [exceeded budget 1.0s: took 2.00s]"


WIDTHS = [("novy", 2), ("novy", 3), ("2p", 1), ("2p", 2), ("2p", 3)]
# Each exact criterion's case labels, in order, the form of its TVs
# (concealment prints each TV's repr, the others two decimals), and the
# bound each TV must stay below.
EXACT_CASES = {
    "exact_concealment": ([f"{family} n={n}" for family, n in WIDTHS], "tv={!r}", 1e-12),
    "transcript_equivalence": ([f"{family} n={n} q={q}"
                                for q in (0.0, 0.5, 1.0, "0.5 psi=(1,i)/sqrt2")
                                for family, n in WIDTHS], "tv={:.2e}", 1e-10),
    "commuting_controls": (["novy n=2", "novy n=3"], "tv={:.2e}", 1e-10),
}


@pytest.mark.parametrize("name", list(EXACT_CASES))
def test_exact_criteria_report_every_case(name):
    labels, text, _ = EXACT_CASES[name]
    outcome = getattr(selftest, name)()
    assert outcome.passed, outcome.detail
    assert [case.label for case in outcome.cases] == labels
    assert all(case.passed and case.detail == text.format(case.value) for case in outcome.cases)


@pytest.mark.parametrize("name", list(EXACT_CASES))
@pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
def test_exact_criteria_pass_only_below_their_bound(name, below, monkeypatch):
    labels, _, bound = EXACT_CASES[name]
    tv = math.nextafter(bound, 0) if below else bound
    monkeypatch.setattr(selftest, "compare_distributions", lambda p, q: tv)
    outcome = getattr(selftest, name)()
    assert outcome.passed is below
    assert [case.value for case in outcome.cases] == [tv] * (len(labels) if below else 1)


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
    assert [case.label for case in outcome.cases] == ATTACKS
    assert outcome.detail.startswith(novy)


def test_completeness_fails_on_a_rejected_unveiling_and_names_the_protocol(monkeypatch):
    record_runs(monkeypatch, lambda config, report: replace(report, acceptance_rate=0.5)
                if config.protocol == "2p-attack" else report)
    outcome = selftest.attack_completeness()
    assert not outcome.passed
    assert [(c.label, c.passed) for c in outcome.cases] == list(zip(ATTACKS, [True, False]))
    assert outcome.cases[-1].detail.startswith("acceptance_rate=0.5, ")


def test_recovery_fails_on_a_low_fidelity_and_stops_there(monkeypatch):
    protocols = record_runs(monkeypatch, lambda config, report: replace(report, min_fidelity=0.9)
                            if config.protocol == "novy-attack" else report)
    outcome = selftest.attack_recovery()
    assert not outcome.passed
    assert outcome.detail == ("novy-attack: min_fidelity=0.9 over 120 random states, "
                              "n in 3..8, 64 and 256")
    assert set(protocols) == {"novy-attack"}


@pytest.mark.parametrize("fidelity, passed", [(1 - 1e-9, True),
                                              (math.nextafter(1 - 1e-9, 0), False)])
def test_recovery_passes_from_its_fidelity_floor(fidelity, passed, monkeypatch):
    record_runs(monkeypatch, lambda config, report: replace(report, min_fidelity=fidelity))
    assert selftest.attack_recovery().passed is passed


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
def test_exact_criteria_tvs_are_pinned_bit_for_bit(name):
    outcome = getattr(selftest, name)()
    assert outcome.passed
    assert [case.value.hex() for case in outcome.cases] == EXACT_TVS[name]
