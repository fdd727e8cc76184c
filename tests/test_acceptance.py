"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints its criterion's `bcsim selftest` line (visible with -s
or in failure output). The same criterion functions back `bcsim selftest`.
"""
import io
import sys

import pytest

from bcsim import selftest
from bcsim.cli import main as cli_main
from bcsim.qsim import UncomputationError


@pytest.mark.parametrize(
    "criterion",
    selftest.ALL_CRITERIA,
    ids=[fn.__name__ for fn in selftest.ALL_CRITERIA],
)
def test_criterion(criterion, monkeypatch):
    monkeypatch.setattr(selftest, "ALL_CRITERIA", (criterion,))
    assert selftest.run_selftest(sys.stdout)


def test_selftest_lines_show_budget_share(monkeypatch):
    def criterion(name, passed, seconds):
        return lambda: selftest.CriterionOutcome(name, passed, "detail", seconds, 10.0)
    monkeypatch.setattr(selftest, "ALL_CRITERIA", (
        criterion("quick", True, 1.0), criterion("half", True, 5.0),
        criterion("slow", True, 6.0), criterion("broken", False, 0.5)))
    out = io.StringIO()
    assert selftest.run_selftest(out) is False
    quick, half, slow, broken = out.getvalue().splitlines()
    assert quick == "PASS quick (1.00s/10s, 10%): detail"
    assert half == "PASS half (5.00s/10s, 50%): detail"
    assert slow == "PASS slow (6.00s/10s, 60%, OVER HALF OF BUDGET): detail"
    assert broken.startswith("FAIL broken (0.50s/10s, 5%)")


def test_a_criterion_that_raises_fails_and_the_rest_still_run(monkeypatch, capsys):
    def uncomputed(config):
        raise UncomputationError("register X is not all zeros")

    monkeypatch.setattr(selftest, "run_trials", uncomputed)
    monkeypatch.setattr(selftest, "ALL_CRITERIA", (selftest.attack_recovery,
                                                   selftest.twoprover_separation))
    out = io.StringIO()
    assert selftest.run_selftest(out) is False
    raised, passed = out.getvalue().splitlines()
    assert raised.startswith("FAIL attack recovery")
    assert raised.endswith("): UncomputationError: register X is not all zeros")
    assert passed.startswith("PASS two-prover separation")
    assert cli_main(["selftest"]) == 1
    assert [line[:4] for line in capsys.readouterr().out.splitlines()] == ["FAIL", "PASS"]
