"""Seeded scenarios and the timed operations of each benchmark workload.

The workload seed draws every scenario's input: each attack's psi (a
random normalised complex qubit), each honest scenario's committed bit,
each novy permutation (odd ``a``, any ``c``) and each oracle round's
``q``. The program only ever sees the resulting ``ScenarioConfig``s,
driven through its public API: ``engine.run_protocol`` with
``harness.trial_rng`` for trials, the ``harness`` oracles for exact
checks. Calls go through module attributes at call time, so a tracer
that rebinds them sees every call.

Importing this module imports ``bcsim`` from the ``src`` directory next
to the benchmark, and nothing else: the benchmark measures the sources
of the checkout it sits in.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "bcsim" / "__init__.py").is_file():
    raise SystemExit(f"bcsim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import bcsim  # noqa: E402
from bcsim import engine, harness, novy, twoprover  # noqa: E402
from bcsim.harness import ScenarioConfig  # noqa: E402

if Path(bcsim.__file__).resolve().parent != SRC / "bcsim":
    raise SystemExit(f"imported bcsim from {bcsim.__file__}, not from {SRC}")

FIDELITY_FLOOR = 1 - 1e-9
EQUIVALENCE_TV = 1e-10
CONCEALMENT_TV = 1e-12
TABLE_SUM_TOL = 1e-9
BIT_FREQ_SIGMAS = 5.0
ORACLE_POOL = 100  # distinct seeded oracle rounds, cycled; a run times at least 100 rounds

# (protocol, n) of each trial workload; every entry runs in both branches.
# wide-attack carries the honest protocols at the same widths so that every
# per-protocol latency has a value on every workload; they add about 3% to
# its round time.
TRIAL_MIXES = {
    "wide-attack": (("novy-attack", 10), ("2p-attack", 9),
                    ("novy-honest", 10), ("2p-honest", 9)),
    "narrow-trials": (("novy-attack", 6), ("2p-attack", 4),
                      ("novy-honest", 6), ("2p-honest", 4)),
}
WORKLOADS = (*TRIAL_MIXES, "oracles")
PROTOCOLS = harness.PROTOCOLS


def random_qubit(rng: Random) -> tuple[complex, complex]:
    alpha = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    beta = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


def random_perm(n: int, rng: Random) -> dict:
    return {"perm_a": 2 * rng.randrange(1 << (n - 1)) + 1, "perm_c": rng.randrange(1 << n)}


@dataclass
class Op:
    """One timed operation: ``call(round)`` is timed, ``check(result)`` is not.

    ``check`` returns None when the result is correct and a reason otherwise.
    """

    name: str
    protocol: str
    call: Callable[[int], object]
    check: Callable[[object], str | None]


@dataclass
class TrialScenario:
    """One seeded scenario run trial after trial, with the tallies run_trials keeps."""

    config: ScenarioConfig
    recovery: "RecoveryProbe"
    trials: int = 0
    accepted: int = 0
    accept_seen: int = 0
    b_counts: dict = field(default_factory=dict)
    fidelities: list = field(default_factory=list)

    @property
    def name(self) -> str:
        branch = "unveil" if self.config.unveil else "recover"
        return f"{self.config.protocol}/n={self.config.n}/{branch}"

    def call(self, i: int):
        return engine.run_protocol(self.config, harness.trial_rng(self.config.seed, i))

    def check(self, result) -> str | None:
        transcript, outcome = result
        self.trials += 1
        if outcome.accepted is not None:
            self.accept_seen += 1
            self.accepted += int(outcome.accepted)
        if outcome.unveiled_bit is not None:
            key = str(outcome.unveiled_bit)
            self.b_counts[key] = self.b_counts.get(key, 0) + 1
        if outcome.recovery_fidelity is not None:
            self.fidelities.append(outcome.recovery_fidelity)

        cfg = self.config
        if cfg.unveil:
            if outcome.accepted is not True:
                return "Bob rejected the unveiling"
            if not cfg.is_attack and outcome.unveiled_bit != cfg.b:
                return f"honest unveiled bit {outcome.unveiled_bit} != b={cfg.b}"
        elif cfg.is_attack:
            if not outcome.recovery_fidelity >= FIDELITY_FLOOR:
                return f"recovery fidelity {outcome.recovery_fidelity!r}"
            support = self.recovery.take()
            if support is None or support > 2:
                return f"recovered support {support} is not at most 2"
        elif not transcript.messages:
            return "empty commit transcript"
        return None

    def whole_run_checks(self) -> list[str]:
        """Failure reasons of the checks that need every trial of the run."""
        failures = []
        if self.config.unveil and self.config.is_attack:
            q = abs(self.config.psi[1]) ** 2
            freq = self.b_counts.get("1", 0) / self.trials
            sigma = math.sqrt(q * (1 - q) / self.trials)
            if abs(freq - q) > BIT_FREQ_SIGMAS * sigma:
                failures.append(f"{self.name}: b=1 frequency {freq} not within "
                                f"{BIT_FREQ_SIGMAS} sigma of |beta|^2={q}")
        report = harness.run_trials(replace(self.config, trials=self.trials))
        mine = (self.accepted / self.accept_seen if self.accept_seen else None,
                dict(sorted(self.b_counts.items())),
                min(self.fidelities) if self.fidelities else None)
        theirs = (report.acceptance_rate, report.b_counts, report.min_fidelity)
        if mine != theirs:
            failures.append(f"{self.name}: run_trials gives {theirs}, timed trials gave {mine}")
        return failures


class RecoveryProbe:
    """Records the support size of the state each ``attack_recover`` returns.

    ``run_protocol`` reports only the recovery fidelity, so the support
    bound is read off the recovered state by rebinding the two module
    attributes ``run_protocol`` looks up; ``uninstall`` restores them.
    """

    MODULES = (novy, twoprover)

    def __init__(self):
        self._support = None
        self._originals = []

    def take(self) -> int | None:
        """Support size of the last recovered state, None if none since the last take."""
        support, self._support = self._support, None
        return support

    def install(self) -> None:
        for mod in self.MODULES:
            original = mod.attack_recover

            @functools.wraps(original)
            def recover(st, _original=original):
                state = _original(st)
                self._support = state.support_size
                return state

            self._originals.append((mod, original))
            mod.attack_recover = recover

    def uninstall(self) -> None:
        while self._originals:
            mod, original = self._originals.pop()
            mod.attack_recover = original


@dataclass
class Workload:
    name: str
    ops: list[Op]
    scenarios: list[TrialScenario]
    recovery: RecoveryProbe | None = None

    def warm_up(self) -> None:
        """One untimed operation per scenario, filling the program's caches."""
        for op in self.ops:
            reason = op.check(op.call(0))
            if reason is not None:
                raise RuntimeError(f"warm-up {op.name}: {reason}")
        for sc in self.scenarios:
            sc.trials = sc.accepted = sc.accept_seen = 0
            sc.b_counts.clear()
            sc.fidelities.clear()

    def whole_run_checks(self) -> list[str]:
        return [reason for sc in self.scenarios for reason in sc.whole_run_checks()]

    def close(self) -> None:
        if self.recovery is not None:
            self.recovery.uninstall()


def build(name: str, seed: int) -> Workload:
    """Generate a workload's configs from its seed and validate them."""
    rng = Random(f"bench:{name}:{seed}")
    if name == "oracles":
        return _oracle_workload(rng)
    if name not in TRIAL_MIXES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    probe = RecoveryProbe()
    scenarios = []
    for protocol, n in TRIAL_MIXES[name]:
        for unveil in (True, False):
            inputs = {"psi": random_qubit(rng)} if protocol.endswith("attack") else {"b": rng.randrange(2)}
            if protocol.startswith("novy"):
                inputs.update(random_perm(n, rng))
            config = ScenarioConfig(protocol=protocol, n=n, unveil=unveil,
                                    seed=rng.getrandbits(32), **inputs).validate()
            scenarios.append(TrialScenario(config, probe))
    probe.install()
    ops = [Op(sc.name, sc.config.protocol, sc.call, sc.check) for sc in scenarios]
    return Workload(name, ops, scenarios, probe)


def _sums_to_one(*tables: dict) -> bool:
    return all(abs(sum(t.values()) - 1.0) <= TABLE_SUM_TOL for t in tables)


def _tv_check(limit: float):
    def check(result) -> str | None:
        tv, tables = result
        if not _sums_to_one(*tables):
            return "oracle table does not sum to 1"
        if not tv < limit:
            return f"total variation {tv!r} >= {limit}"
        return None
    return check


def _oracle_workload(rng: Random) -> Workload:
    """Exact checks at selftest sizes; rounds cycle through 100 seeded input sets.

    A round is five checks: attack vs. Bernoulli(q) honest mixture (novy
    n=3, 2p n=2), early vs. late measurement (novy n=3), and Bob's honest
    view for b=0 vs. b=1 (novy n=3, 2p n=3); q is |beta|^2 of the round's psi.
    """
    rounds = []
    for _ in range(ORACLE_POOL):
        psi = random_qubit(rng)
        perm = random_perm(3, rng)
        rounds.append({
            "q": abs(psi[1]) ** 2,
            "novy": ScenarioConfig(protocol="novy-attack", n=3, psi=psi, **perm).validate(),
            "2p": ScenarioConfig(protocol="2p-attack", n=2, psi=psi).validate(),
            "novy_views": [ScenarioConfig(protocol="novy-honest", n=3, b=b, **perm).validate()
                           for b in (0, 1)],
            "2p_views": [ScenarioConfig(protocol="2p-honest", n=3, b=b).validate()
                         for b in (0, 1)],
        })

    def equivalence(key):
        def call(i):
            r = rounds[i % ORACLE_POOL]
            attack = harness.exact_transcript_distribution(r[key])
            honest = harness.mixed_honest_distribution(r[key], r["q"])
            return harness.compare_distributions(attack, honest), (attack, honest)
        return call

    def early_vs_late(i):
        config = rounds[i % ORACLE_POOL]["novy"]
        late = harness.exact_transcript_distribution(config)
        early = harness.exact_transcript_distribution(config, early_measure=True)
        return harness.compare_distributions(late, early), (late, early)

    def concealment(key):
        def call(i):
            views = [harness.bob_view_distribution(c) for c in rounds[i % ORACLE_POOL][key]]
            return harness.compare_distributions(*views), views
        return call

    ops = [
        Op("novy-equivalence", "novy-attack", equivalence("novy"), _tv_check(EQUIVALENCE_TV)),
        Op("2p-equivalence", "2p-attack", equivalence("2p"), _tv_check(EQUIVALENCE_TV)),
        Op("novy-early-vs-late", "novy-attack", early_vs_late, _tv_check(EQUIVALENCE_TV)),
        Op("novy-concealment", "novy-honest", concealment("novy_views"), _tv_check(CONCEALMENT_TV)),
        Op("2p-concealment", "2p-honest", concealment("2p_views"), _tv_check(CONCEALMENT_TV)),
    ]
    return Workload("oracles", ops, [])
