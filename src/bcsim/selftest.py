"""Full invariant suite: one check per acceptance-level claim.

Each criterion is a standalone function returning a CriterionOutcome, so
the CLI selftest and the pytest acceptance module share one source of
truth for tolerances and budgets. Each criterion on a claim of the paper
runs every protocol of ``engine.PROTOCOLS`` it applies to through the
harness; only the post-commit states and the separation check one family.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Iterable, TextIO

from . import gf2, novy, twoprover
from .engine import PROTOCOLS, SeparationBreachError
from .harness import (
    ENUM_MAX_N,
    FAMILY_ENTRIES,
    ScenarioConfig,
    bob_view_distribution,
    compare_distributions,
    exact_transcript_distribution,
    mixed_honest_distribution,
    run_trials,
)
from .perm import ToyPermutation
from .qsim import RegisterLayout, choose, init_state

HADAMARD = (1 / math.sqrt(2), 1 / math.sqrt(2))


@dataclass
class CriterionOutcome:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget_s: float


def _random_qubit(rng: Random) -> tuple[complex, complex]:
    alpha = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    beta = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


def _check(name: str, budget_s: float, fn: Callable[[], tuple[bool, str]]) -> CriterionOutcome:
    """fn's (passed, detail), timed; an exception from fn fails, named in the detail."""
    started = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    if elapsed > budget_s:
        passed = False
        detail += f" [exceeded budget {budget_s}s: took {elapsed:.2f}s]"
    return CriterionOutcome(name, passed, detail, elapsed, budget_s)


def _until_failure(cases: Iterable[tuple[str, bool, str]]) -> tuple[bool, str]:
    """Add each (label, passed, detail) case to the detail as ``label: detail``
    and stop at the first that fails: a lazy case list runs nothing after it."""
    details = []
    for label, passed, detail in cases:
        details.append(f"{label}: {detail}")
        if not passed:
            return False, "; ".join(details)
    return True, "; ".join(details)


def _tv_cases(cases: Iterable[tuple[str, dict, dict]], template: str,
              tolerance: float) -> tuple[bool, str]:
    """Compare each (label, p, q) case in order, adding ``label: tv=`` and
    the TV put into template to the detail, and stop at the first TV that
    is not below tolerance: a lazy case list builds no table after a failure."""
    tvs = ((label, compare_distributions(p, q)) for label, p, q in cases)
    return _until_failure((label, tv < tolerance, f"tv={template.format(tv)}") for label, tv in tvs)


# Every criterion on a claim builds its configs here, with the own field
# harness names for any n its family's default does not fit.
def _config(protocol: str, n: int, **inputs) -> ScenarioConfig:
    own = FAMILY_ENTRIES[PROTOCOLS[protocol][0]].own_at.get(n, {})
    return ScenarioConfig(protocol=protocol, n=n, **own, **inputs)


_ATTACKS = tuple(protocol for protocol, (_, attack) in PROTOCOLS.items() if attack)


def _exact_scenarios(attack: bool, **inputs) -> list[tuple[str, ScenarioConfig]]:
    """(label, config) of each exact scenario of a role: each family, narrowest n to ENUM_MAX_N."""
    return [(f"{family.name} n={n}", _config(protocol, n, **inputs))
            for protocol, (family, is_attack) in PROTOCOLS.items() if is_attack is attack
            for n in range(family.narrowest, ENUM_MAX_N + 1)]


def attack_completeness() -> CriterionOutcome:
    def cases():
        for protocol in _ATTACKS:
            report = run_trials(_config(protocol, 6, psi=HADAMARD, trials=10_000, seed=2026))
            freq = report.b_counts.get("1", 0) / report.trials
            sigma = math.sqrt(0.25 / report.trials)
            yield (protocol, report.acceptance_rate == 1.0 and abs(freq - 0.5) <= 3 * sigma,
                   f"acceptance_rate={report.acceptance_rate}, "
                   f"b1_freq={freq:.4f} (want 0.5 within {3 * sigma:.4f})")
    return _check("attack completeness (n=6, 1e4 trials each)", 20.0,
                  lambda: _until_failure(cases()))


def attack_recovery() -> CriterionOutcome:
    # A recovery that leaves X or Y entangled raises UncomputationError, which fails here.
    def cases():
        for protocol in _ATTACKS:
            rng = Random(7)
            worst = min(run_trials(_config(protocol, 3 + trial % 6, psi=_random_qubit(rng),
                                           unveil=False, seed=trial)).min_fidelity
                        for trial in range(100))
            yield (protocol, worst >= 1 - 1e-9,
                   f"min_fidelity={worst!r} over 100 random states, n in 3..8")
    return _check("attack recovery of the unmeasured input", 10.0,
                  lambda: _until_failure(cases()))


def exact_concealment() -> CriterionOutcome:
    def cases():
        for label, config in _exact_scenarios(False, b=0):
            yield label, bob_view_distribution(config), bob_view_distribution(replace(config, b=1))
    return _check("exact concealment of Bob's view (b=0 vs b=1)", 30.0,
                  lambda: _tv_cases(cases(), "{!r}", 1e-12))


def transcript_equivalence() -> CriterionOutcome:
    def cases():
        for q in (0.0, 0.5, 1.0):
            psi = (math.sqrt(1 - q), math.sqrt(q))
            for label, attack in _exact_scenarios(True, psi=psi):
                yield (f"{label} q={q}", exact_transcript_distribution(attack),
                       mixed_honest_distribution(attack, q))
    return _check("attack transcripts match honest Bernoulli(q) commitments", 30.0,
                  lambda: _tv_cases(cases(), "{:.2e}", 1e-10))


def commuting_controls() -> CriterionOutcome:
    def cases():
        for label, config in _exact_scenarios(True, psi=(0.6, 0.8j)):
            if FAMILY_ENTRIES[config.family].early:
                yield (label, exact_transcript_distribution(config),
                       exact_transcript_distribution(config, early_measure=True))
    return _check("early vs unveil-time measurement of B, X", 10.0,
                  lambda: _tv_cases(cases(), "{:.2e}", 1e-10))


def novy_post_commit_states() -> CriterionOutcome:
    def body():
        n = 3
        p = ToyPermutation(n)
        alpha, beta = 0.6, 0.8
        seen = {}
        for seed in range(64):
            st = novy.attack_commit((alpha, beta), n, p, Random(seed))
            if st.z in seen:
                continue
            t = st.transcript
            y0, y1 = _echelon([h.value for h in t.series("h_")], t.series("r_"), n).solutions()
            x0, x1 = p.inverse_int(y0), p.inverse_int(y1)
            if st.z == 0:
                expect = {(0, x0, y0): alpha, (1, x1, y1): beta}
            else:
                expect = {(0, x1, y1): alpha, (1, x0, y0): beta}
            labels = {(b << (2 * n)) | (x << n) | y: amp for (b, x, y), amp in expect.items()}
            if set(st.state.amps) != set(labels):
                return False, f"support mismatch in z={st.z} branch"
            err = max(abs(st.state.amps[l] - labels[l]) for l in labels)
            if err > 1e-10:
                return False, f"amplitude error {err!r} in z={st.z} branch"
            seen[st.z] = True
            if len(seen) == 2:
                return True, "both z branches match the two-term post-commit state to 1e-10"
        return False, f"only saw z branches {sorted(seen)} in 64 seeds"
    return _check("novy post-commit golden states (z=0 and z=1)", 1.0, body)


def twoprover_separation() -> CriterionOutcome:
    def body():
        st = twoprover.attack_commit(HADAMARD, 4, Random(3))
        try:
            twoprover.attack_recover(st)
            return False, "recovery during separation did not raise"
        except SeparationBreachError:
            return True, "recovery before the provers reunite raises SeparationBreachError"
    return _check("two-prover separation enforced until reunion", 1.0, body)


def _brute_force_solutions(rows: list[int], rhs: list[int], n: int) -> list[int]:
    out = []
    for y in range(1 << n):
        if all(gf2.dot(row, y) == r for row, r in zip(rows, rhs)):
            out.append(y)
    return out


def _echelon(rows: list[int], rhs: list[int], n: int) -> gf2.Echelon:
    system = gf2.Echelon(n)
    for row, r in zip(rows, rhs):
        system.add(row, r)
    return system


def _solver_systems():
    """(n, rows, rhs) for every system of at most n rows at n = 1, 2, 3,
    then for 1,000 random systems at n = 4, 5, 6."""
    for n in (1, 2, 3):
        for m in range(n + 1):
            for combo in range(1 << (n * m)):
                rows = [(combo >> (n * i)) & ((1 << n) - 1) for i in range(m)]
                for rhs_combo in range(1 << m):
                    yield n, rows, [(rhs_combo >> i) & 1 for i in range(m)]
    rng = Random(99)
    for _ in range(1000):
        n = rng.choice((4, 5, 6))
        m = rng.randint(0, n)
        yield n, [rng.getrandbits(n) for _ in range(m)], [rng.getrandbits(1) for _ in range(m)]


def gf2_solver_oracle() -> CriterionOutcome:
    def body():
        checked = 0
        for n, rows, rhs in _solver_systems():
            if _echelon(rows, rhs, n).solutions() != _brute_force_solutions(rows, rhs, n):
                return False, f"mismatch at n={n} rows={rows} rhs={rhs}"
            checked += 1
        rng = Random(100)
        for _ in range(1000):
            n = rng.randint(1, 8)
            m = rng.randint(0, n)
            system = gf2.Echelon(n)
            rank = sum(system.add(h.value) for h in gf2.sample_independent_rows(m, n, rng))
            if rank != m:
                return False, f"sampler produced rank {rank} != {m}"
            checked += 1
        return True, f"{checked} solver instances match brute force; sampler rank always m"
    return _check("GF(2) solver equals brute-force enumeration", 5.0, body)


def simulator_invariants() -> CriterionOutcome:
    def body():
        layout = RegisterLayout([("B", 1), ("X", 3), ("Y", 3)])
        p = ToyPermutation(3)
        s = init_state(layout)
        states = [s]
        s = s.prepare_qubit("B", 0.6, 0.8j)
        states.append(s)
        s = s.uniform_superpose("X")
        states.append(s)
        s = s.coherent_eval(p.forward_int, ["X"], "Y")
        states.append(s)
        for i, state in enumerate(states):
            if abs(state.norm() - 1.0) > 1e-10:
                return False, f"norm {state.norm()!r} after op {i}"
        undone = s.coherent_eval(p.forward_int, ["X"], "Y")
        if undone.amps != states[2].amps:
            return False, "coherent_eval applied twice is not the exact identity"
        probe = init_state(RegisterLayout([("Q", 1)])).prepare_qubit("Q", 0.5, math.sqrt(0.75))
        counts = 0
        n_samples = 10_000
        rng = Random(5)
        for _ in range(n_samples):
            counts += choose(probe.branches(["Q"]), rng)[0]
        freq = counts / n_samples
        sigma = math.sqrt(0.25 * 0.75 / n_samples)
        if abs(freq - 0.75) > 3 * sigma:
            return False, f"Born frequency {freq} not within 3 sigma of 0.75"
        return True, (f"norms exact, double-eval identity exact, "
                      f"Born freq {freq:.4f} vs 0.75 within {3 * sigma:.4f}")
    return _check("simulator unit invariants", 5.0, body)


ALL_CRITERIA: tuple[Callable[[], CriterionOutcome], ...] = (
    attack_completeness,
    attack_recovery,
    novy_post_commit_states,
    twoprover_separation,
    exact_concealment,
    transcript_equivalence,
    commuting_controls,
    gf2_solver_oracle,
    simulator_invariants,
)


def run_selftest(stream: TextIO) -> bool:
    """One line per criterion with its time as seconds/budget; a criterion
    above half its budget is marked, since timing noise may soon fail it."""
    all_passed = True
    for criterion in ALL_CRITERIA:
        outcome = criterion()
        status = "PASS" if outcome.passed else "FAIL"
        share = outcome.seconds / outcome.budget_s
        mark = ", OVER HALF OF BUDGET" if share > 0.5 else ""
        stream.write(f"{status} {outcome.name} ({outcome.seconds:.2f}s/{outcome.budget_s:g}s, "
                     f"{share:.0%}{mark}): {outcome.detail}\n")
        all_passed &= outcome.passed
    return all_passed
