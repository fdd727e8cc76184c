"""Full invariant suite: one check per acceptance-level claim.

Each criterion is a standalone function returning a CriterionOutcome, so
the CLI selftest and the pytest acceptance module share one source of
truth for tolerances and budgets.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Iterable, TextIO

from . import gf2, novy, twoprover
from .engine import SeparationBreachError
from .harness import (
    ScenarioConfig,
    bob_view_distribution,
    compare_distributions,
    exact_transcript_distribution,
    mixed_honest_distribution,
    run_trials,
)
from .perm import ToyPermutation
from .qsim import RegisterLayout, init_state

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
    started = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - started
    if elapsed > budget_s:
        passed = False
        detail += f" [exceeded budget {budget_s}s: took {elapsed:.2f}s]"
    return CriterionOutcome(name, passed, detail, elapsed, budget_s)


def novy_attack_completeness() -> CriterionOutcome:
    def body():
        config = ScenarioConfig(protocol="novy-attack", n=6, psi=HADAMARD,
                                unveil=True, trials=10_000, seed=2026)
        report = run_trials(config)
        ones = report.b_counts.get("1", 0)
        freq = ones / report.trials
        sigma = math.sqrt(0.25 / report.trials)
        ok = report.acceptance_rate == 1.0 and abs(freq - 0.5) <= 3 * sigma
        return ok, (f"acceptance_rate={report.acceptance_rate}, "
                    f"b1_freq={freq:.4f} (want 0.5 within {3 * sigma:.4f})")
    return _check("novy attack completeness (n=6, 1e4 trials)", 10.0, body)


def novy_recovery() -> CriterionOutcome:
    def body():
        rng = Random(7)
        worst = 1.0
        for trial in range(100):
            n = 3 + trial % 6
            psi = _random_qubit(rng)
            p = ToyPermutation(n)
            st = novy.attack_commit(psi, n, p, Random(f"recovery:{trial}"))
            final = novy.attack_recover(st)  # discards X and Y or raises
            worst = min(worst, final.fidelity_pure("B", *psi))
            if final.support_size > 2:
                return False, f"recovered support {final.support_size} > 2"
        return worst >= 1 - 1e-9, f"min_fidelity={worst!r} over 100 random states, n in 3..8"
    return _check("novy recovery of the unmeasured input", 10.0, body)


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


def twoprover_attack() -> CriterionOutcome:
    def body():
        n = 4
        config = ScenarioConfig(protocol="2p-attack", n=n, psi=HADAMARD,
                                unveil=True, trials=10_000, seed=11)
        report = run_trials(config)
        if report.acceptance_rate != 1.0:
            return False, f"acceptance_rate={report.acceptance_rate}"
        # acceptance == r = r' = z XOR m_b on every trial, by Bob's check.
        fid_config = ScenarioConfig(protocol="2p-attack", n=n, psi=(0.6, 0.8),
                                    unveil=False, trials=200, seed=12)
        fid_report = run_trials(fid_config)
        if fid_report.min_fidelity < 1 - 1e-9:
            return False, f"min recovery fidelity {fid_report.min_fidelity!r}"
        st = twoprover.attack_commit(HADAMARD, n, Random(3))
        try:
            twoprover.attack_recover(st)
            return False, "recovery during separation did not raise"
        except SeparationBreachError:
            pass
        return True, (f"acceptance_rate=1.0 over 10000 trials, "
                      f"min_fidelity={fid_report.min_fidelity!r}, separation enforced")
    return _check("two-prover attack: unveiling, recovery, separation", 10.0, body)


# Every exact criterion runs novy at n = 2 and 3, each with an (a, c) its
# permutation accepts there, and 2p at n = 1, 2 and 3.
NOVY_PERMS = {2: (3, 1), 3: (5, 3)}


def _novy_config(protocol: str, n: int, **inputs) -> ScenarioConfig:
    a, c = NOVY_PERMS[n]
    return ScenarioConfig(protocol=protocol, n=n, perm_a=a, perm_c=c, **inputs)


def _exact_scenarios(role: str, **inputs) -> list[tuple[str, ScenarioConfig]]:
    """(label, config) of each exact scenario of a role, "honest" or "attack"."""
    return ([(f"novy n={n}", _novy_config(f"novy-{role}", n, **inputs)) for n in NOVY_PERMS]
            + [(f"2p n={n}", ScenarioConfig(protocol=f"2p-{role}", n=n, **inputs))
               for n in (1, 2, 3)])


def _tv_cases(cases: Iterable[tuple[str, dict, dict]], template: str,
              tolerance: float) -> tuple[bool, str]:
    """Compare each (label, p, q) case in order, adding ``label: tv=`` and
    the TV put into template to the detail, and stop at the first TV at or
    above tolerance: a lazy case list builds no table after a failure."""
    details = []
    for label, p, q in cases:
        tv = compare_distributions(p, q)
        details.append(f"{label}: tv={template.format(tv)}")
        if tv >= tolerance:
            return False, "; ".join(details)
    return True, "; ".join(details)


def exact_concealment() -> CriterionOutcome:
    def cases():
        for label, config in _exact_scenarios("honest", b=0):
            yield label, bob_view_distribution(config), bob_view_distribution(replace(config, b=1))
    return _check("exact concealment of Bob's view (b=0 vs b=1)", 30.0,
                  lambda: _tv_cases(cases(), "{!r}", 1e-12))


def transcript_equivalence() -> CriterionOutcome:
    def cases():
        for q in (0.0, 0.5, 1.0):
            psi = (math.sqrt(1 - q), math.sqrt(q))
            for label, attack in _exact_scenarios("attack", psi=psi):
                yield (f"{label} q={q}", exact_transcript_distribution(attack),
                       mixed_honest_distribution(attack, q))
    return _check("attack transcripts match honest Bernoulli(q) commitments", 30.0,
                  lambda: _tv_cases(cases(), "{:.2e}", 1e-10))


def commuting_controls() -> CriterionOutcome:
    def cases():
        for n in NOVY_PERMS:
            config = _novy_config("novy-attack", n, psi=(0.6, 0.8j))
            yield (f"n={n}", exact_transcript_distribution(config),
                   exact_transcript_distribution(config, early_measure=True))
    return _check("early vs unveil-time measurement of B, X", 10.0,
                  lambda: _tv_cases(cases(), "{:.2e}", 1e-10))


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
            counts += probe.measure(["Q"], rng)[0]
        freq = counts / n_samples
        sigma = math.sqrt(0.25 * 0.75 / n_samples)
        if abs(freq - 0.75) > 3 * sigma:
            return False, f"Born frequency {freq} not within 3 sigma of 0.75"
        return True, (f"norms exact, double-eval identity exact, "
                      f"Born freq {freq:.4f} vs 0.75 within {3 * sigma:.4f}")
    return _check("simulator unit invariants", 5.0, body)


ALL_CRITERIA: tuple[Callable[[], CriterionOutcome], ...] = (
    novy_attack_completeness,
    novy_recovery,
    novy_post_commit_states,
    twoprover_attack,
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
