"""Scenario runner, exact-enumeration oracles, and report emission.

The enumeration oracles recompute protocol outcome distributions without
any random sampling: honest protocols by sweeping every party coin,
attacks by walking each measurement's exact branch probabilities with
``SparseState.branches``. With the trial path they share only the
simulator (``qsim`` and ``gf2.Echelon``), never the protocol roles, so
that empirical frequencies can be checked against them.

The novy tables repeat no work within a call and solve no system. Each
walks the prefix tree of independent hash rows once, in ``_hash_sweep``,
adding each level's row to its prefix's ``gf2.Echelon`` and splitting
every class below the prefix by the row's parity. The honest table and
the early-measure attack split the (y, x) pairs, so each leaf class is
its system's two solutions; the late-measure attack branches the
committed state, so each leaf state's support holds them. The early
order runs its certain tail once per (b, x). Nothing is cached across
calls, no call leaves a reference cycle, and every table value is the
same float, summed and multiplied in the same order, as one walk per hash
tuple gives.
"""
from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from random import Random
from typing import Iterable

from . import engine, gf2
from .engine import Transcript
from .gf2 import BitVector
from .perm import ToyPermutation
from .qsim import RegisterLayout, init_state

PROTOCOLS = ("novy-honest", "novy-attack", "2p-honest", "2p-attack")
NOVY_ENUM_LIMIT = 3
TWOP_ENUM_LIMIT = 2
VIEW_ENUM_LIMIT = 3
# An attack commit sums its Born weights one label at a time, O(2^n) float
# additions, to keep the sparse path's floats. It does so once per (psi, n)
# (2p: and leading bit of m_1, and only as far as the draws reach) and
# caches them, so repeated trials bisect or reuse the sums; a 2p table holds
# up to 2^n doubles, 512 KiB at n = 16, the widest twoprover keeps. A wider
# attack needs exact 1/2 weights and getrandbits draws.
ATTACK_MAX_N = 16
# Honest work is polynomial in n (a novy-honest trial took 80-92 ms at
# n = 1024 on Python 3.11, 2 shared vCPUs), but the party coins are n-bit draws
# and rows; this bound keeps every honest run finite and below the sizes
# Random.getrandbits refuses.
HONEST_MAX_N = 1024
# The default permutation x -> 5x + 3 needs a 3-bit multiplier.
DEFAULT_PERM = {"a": 5, "c": 3}


class ConfigError(ValueError):
    """A scenario configuration is invalid."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_amplitude(raw) -> complex:
    try:
        if _is_real(raw):
            return complex(raw)
        if isinstance(raw, (list, tuple)) and len(raw) == 2 and all(map(_is_real, raw)):
            return complex(raw[0], raw[1])
    except OverflowError as exc:
        raise ConfigError(f"amplitude {raw!r} is out of range") from exc
    raise ConfigError(f"amplitude must be a number or [re, im], got {raw!r}")


@dataclass
class ScenarioConfig:
    protocol: str
    n: int
    b: int | None = None
    psi: tuple[complex, complex] | None = None
    perm_a: int = DEFAULT_PERM["a"]
    perm_c: int = DEFAULT_PERM["c"]
    unveil: bool = True
    trials: int = 1
    seed: int = 0
    allow_zero_m1: bool = False

    def validate(self) -> "ScenarioConfig":
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if not _is_int(self.n) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if self.is_attack:
            if self.psi is None or self.b is not None:
                raise ConfigError("attack scenarios take psi, not b")
            if not (isinstance(self.psi, (tuple, list)) and len(self.psi) == 2
                    and all(isinstance(v, complex) or _is_real(v) for v in self.psi)):
                raise ConfigError(f"psi must be a pair of amplitudes, got {self.psi!r}")
            try:
                alpha, beta = map(complex, self.psi)
                norm = abs(alpha) ** 2 + abs(beta) ** 2
            except OverflowError:
                raise ConfigError(f"psi amplitudes out of range: {self.psi!r}") from None
            if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
                raise ConfigError("psi amplitudes must be finite")
            if abs(norm - 1.0) > 1e-10:
                raise ConfigError("psi must be normalized")
            if self.n > ATTACK_MAX_N:
                raise ConfigError(f"attack scenarios need n <= {ATTACK_MAX_N}, got {self.n}")
        else:
            if not _is_int(self.b) or self.b not in (0, 1) or self.psi is not None:
                raise ConfigError("honest scenarios take b in {0, 1}, not psi")
            if self.n > HONEST_MAX_N:
                raise ConfigError(f"honest scenarios need n <= {HONEST_MAX_N}, got {self.n}")
        if not (_is_int(self.perm_a) and _is_int(self.perm_c)):
            raise ConfigError(f"perm a and c must be integers, got {self.perm_a!r}, {self.perm_c!r}")
        if self.protocol.startswith("novy"):
            if self.n < 2:
                raise ConfigError("novy scenarios need n >= 2")
            try:
                self.permutation()
            except ValueError as exc:
                hint = ""
                if {"a": self.perm_a, "c": self.perm_c} == DEFAULT_PERM:
                    hint = (f" (the default perm a={self.perm_a}, c={self.perm_c} needs n >= 3;"
                            ' pass "perm": {"a": odd a < 2^n, "c": c < 2^n})')
                raise ConfigError(f"invalid permutation: {exc}{hint}") from exc
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not (isinstance(self.unveil, bool) and isinstance(self.allow_zero_m1, bool)):
            raise ConfigError("unveil and allow_zero_m1 must be true or false")
        return self

    @property
    def is_attack(self) -> bool:
        return self.protocol.endswith("attack")

    def permutation(self) -> ToyPermutation:
        return ToyPermutation(self.n, self.perm_a, self.perm_c)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {"protocol", "n", "b", "psi", "perm", "unveil", "trials", "seed",
                 "allow_zero_m1"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            protocol = raw["protocol"]
            n = raw["n"]
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc
        psi = None
        if "psi" in raw:
            spec = raw["psi"]
            if not isinstance(spec, dict) or set(spec) != {"alpha", "beta"}:
                raise ConfigError('psi must be {"alpha": ..., "beta": ...}')
            psi = (_parse_amplitude(spec["alpha"]), _parse_amplitude(spec["beta"]))
        perm = raw.get("perm", {})
        if not isinstance(perm, dict) or not set(perm) <= {"a", "c"}:
            raise ConfigError('perm must be {"a": int, "c": int}')
        config = cls(
            protocol=protocol,
            n=n,
            b=raw.get("b"),
            psi=psi,
            perm_a=perm.get("a", DEFAULT_PERM["a"]),
            perm_c=perm.get("c", DEFAULT_PERM["c"]),
            unveil=raw.get("unveil", True),
            trials=raw.get("trials", 1),
            seed=raw.get("seed", 0),
            allow_zero_m1=raw.get("allow_zero_m1", False),
        )
        return config.validate()

    @classmethod
    def from_json_file(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError, nesting too deep to parse.
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        out: dict = {"protocol": self.protocol, "n": self.n,
                     "unveil": self.unveil, "trials": self.trials, "seed": self.seed}
        if self.b is not None:
            out["b"] = self.b
        if self.psi is not None:
            out["psi"] = {"alpha": [self.psi[0].real, self.psi[0].imag],
                          "beta": [self.psi[1].real, self.psi[1].imag]}
        if self.protocol.startswith("novy"):
            out["perm"] = {"a": self.perm_a, "c": self.perm_c}
        if self.protocol.startswith("2p"):
            out["allow_zero_m1"] = self.allow_zero_m1
        return out


@dataclass
class TrialReport:
    config: dict
    trials: int
    acceptance_rate: float | None
    b_counts: dict[str, int]
    min_fidelity: float | None
    mean_fidelity: float | None
    tv_unveiled_bit: float | None
    transcript_sample: list[dict]
    wall_clock_s: float

    def payload(self) -> dict:
        """Deterministic part of the report (wall clock excluded)."""
        return {
            "config": self.config,
            "trials": self.trials,
            "acceptance_rate": self.acceptance_rate,
            "b_counts": self.b_counts,
            "min_fidelity": self.min_fidelity,
            "mean_fidelity": self.mean_fidelity,
            "tv_unveiled_bit": self.tv_unveiled_bit,
            "transcript_sample": self.transcript_sample,
        }


def trial_rng(seed: int, index: int) -> Random:
    # String seeding hashes via sha512, stable across processes.
    return Random(f"{seed}:{index}")


def run_trials(config: ScenarioConfig) -> TrialReport:
    """Run config.trials independent seeded executions and aggregate the outcomes."""
    config.validate()

    started = time.perf_counter()
    accepted = 0
    accept_seen = 0
    b_counts: dict[str, int] = {}
    # Running tallies keep memory flat in the trial count. total += f adds
    # left to right, as sum() does on 3.11; from 3.12 sum() compensates.
    fid_count = 0
    fid_total = 0.0
    fid_min = None
    sample: list[dict] = []
    for i in range(config.trials):
        transcript, outcome = engine.run_protocol(config, trial_rng(config.seed, i))
        if i == 0:
            sample = transcript.to_json()
        if outcome.accepted is not None:
            accept_seen += 1
            accepted += int(outcome.accepted)
        if outcome.unveiled_bit is not None:
            key = str(outcome.unveiled_bit)
            b_counts[key] = b_counts.get(key, 0) + 1
        f = outcome.recovery_fidelity
        if f is not None:
            fid_count += 1
            fid_total += f
            if fid_min is None or f < fid_min:
                fid_min = f

    acceptance_rate = accepted / accept_seen if accept_seen else None
    tv = None
    if b_counts:
        total = sum(b_counts.values())
        empirical = {0: b_counts.get("0", 0) / total, 1: b_counts.get("1", 0) / total}
        tv = compare_distributions(empirical, expected_bit_distribution(config))
    return TrialReport(
        config=config.to_dict(),
        trials=config.trials,
        acceptance_rate=acceptance_rate,
        b_counts=dict(sorted(b_counts.items())),
        min_fidelity=fid_min,
        mean_fidelity=fid_total / fid_count if fid_count else None,
        tv_unveiled_bit=tv,
        transcript_sample=sample,
        wall_clock_s=time.perf_counter() - started,
    )


def expected_bit_distribution(config: ScenarioConfig) -> dict[int, float]:
    """Exact distribution of the unveiled bit for a scenario."""
    if config.is_attack:
        alpha, beta = config.psi
        return {0: abs(alpha) ** 2, 1: abs(beta) ** 2}
    return {config.b: 1.0}


def compare_distributions(p: dict, q: dict) -> float:
    """Total variation distance: half the L1 distance over the union support."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def emit_report(report: TrialReport, fmt: str) -> str:
    """Serialize a report; JSON output is byte-stable for a fixed config+seed."""
    if fmt == "json":
        return json.dumps(report.payload(), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    if fmt == "text":
        lines = [f"protocol: {report.config['protocol']}  n: {report.config['n']}",
                 f"trials: {report.trials}"]
        if report.acceptance_rate is not None:
            lines.append(f"acceptance_rate: {report.acceptance_rate}")
        if report.b_counts:
            lines.append(f"b_counts: {report.b_counts}")
        if report.tv_unveiled_bit is not None:
            lines.append(f"tv_unveiled_bit: {report.tv_unveiled_bit}")
        if report.min_fidelity is not None:
            lines.append(f"min_fidelity: {report.min_fidelity}")
            lines.append(f"mean_fidelity: {report.mean_fidelity}")
        lines.append(f"wall_clock_s: {report.wall_clock_s:.3f}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")


# -- outcome keys -------------------------------------------------------

def novy_outcome_key(hs: Iterable[BitVector], rs: Iterable[int], z: int,
                     b: int, x: BitVector) -> str:
    return _novy_key(",".join(str(h) for h in hs), ",".join(str(r) for r in rs), z, b, x)


def _novy_key(h_part: str, r_part: str, z: int, b: int, x) -> str:
    return f"h={h_part} r={r_part} z={z} b={b} x={x}"


def twop_outcome_key(m0, m1, z, b: int, r, rp) -> str:
    """Each string is an announced ``BitVector`` or the str it prints as."""
    return f"m0={m0} m1={m1} z={z} b={b} r={r} rp={rp}"


def outcome_key_from_transcript(config: ScenarioConfig, t: Transcript) -> str:
    """Key an unveiled run by its announced values plus disclosed secrets."""
    if config.protocol.startswith("novy"):
        return novy_outcome_key(t.series("h_"), t.series("r_"), t.value("z"),
                                t.value("b"), t.value("x"))
    return twop_outcome_key(t.value("m_0"), t.value("m_1"), t.value("z"),
                            t.value("b"), t.value("r"), t.value("r_disclosed"))


# -- exact enumeration --------------------------------------------------

def _independent_rows(n: int, rows: gf2.Echelon):
    """Each width-n row independent of ``rows``, ascending, with the rows
    extended by it: one level of the prefix tree of independent-row tuples.
    A dependent row reduces to 0 and leaves the scratch copy unchanged."""
    extended = rows.copy()
    for cand in range(1 << n):
        if extended.add(cand):
            yield cand, extended
            extended = rows.copy()


def _split_pairs(h: int, classes: list) -> list:
    """Split each ``(rs, pairs)`` class, order kept, by the parity of h & (pair's y)."""
    split = []
    for rs, pairs in classes:
        halves: tuple[list, list] = ([], [])
        for pair in pairs:
            halves[gf2.dot(h, pair[0])].append(pair)
        split += [(rs + (0,), halves[0]), (rs + (1,), halves[1])]
    return split


def _split_branches(h: int, classes: list) -> list:
    """Branch each ``(rs, prob, state)`` class on the parity of h & Y."""
    parity = partial(gf2.dot, h)
    return [(rs + (r,), prob * p_r, s_r)
            for rs, prob, s in classes for r, p_r, s_r in s.branches(["Y"], parity)]


def _hash_sweep(n: int, m: int, classes: list, split=_split_pairs,
                hs: tuple[int, ...] = (), rows: gf2.Echelon | None = None):
    """Walk the prefix tree of independent m-row tuples, splitting classes.

    Each row h replaces the classes by ``split(h, classes)``, which extends
    each class's rs by the parities it splits into. Yields ``(hs, classes)``
    once per m-tuple hs, rows ascending per level. From ``[((), every
    (y, x) sorted by y)]`` with m = n - 1, each default leaf class is the
    two solutions of hs . y = rs, ascending in y.
    """
    if len(hs) == m:
        yield hs, classes
        return
    for h, extended in _independent_rows(n, rows or gf2.Echelon(n)):
        yield from _hash_sweep(n, m, split(h, classes), split, hs + (h,), extended)


def _tuple_count(n: int, m: int) -> int:
    """Ordered m-tuples of independent width-n rows: prod_{i<m} (2^n - 2^i)."""
    return math.prod((1 << n) - (1 << i) for i in range(m))


def _m1_values(n: int, allow_zero: bool) -> list[int]:
    return [v for v in range(1 << n) if v or allow_zero]


def _bit_strings(n: int) -> list[str]:
    """Each n-bit int's string, as the ``BitVector`` announcing it prints."""
    return [f"{v:0{n}b}" for v in range(1 << n)]


def _novy_systems(n: int, p: ToyPermutation):
    """(h part, r part, ((y0, x0, x0 bits), (y1, x1, x1 bits))) of every
    novy hash system: one per hash tuple hs, in ``_hash_sweep`` order, and
    response vector rs. y0 < y1 solve hs . y = rs and x_a = pi^-1(y_a); the
    sweep's leaf classes are these pairs, so nothing is solved.
    """
    xs = _bit_strings(n)
    pairs = sorted((p.forward_int(x), x, xs[x]) for x in range(1 << n))
    for hs, leaves in _hash_sweep(n, n - 1, [((), pairs)]):
        h_part = ",".join(xs[h] for h in hs)
        for rs, solutions in leaves:
            yield h_part, ",".join(map(str, rs)), solutions


def _novy_honest_table(n: int, b: int, p: ToyPermutation) -> dict[str, float]:
    weight = 1.0 / (_tuple_count(n, n - 1) * (1 << n))
    table: dict[str, float] = {}
    for h_part, r_part, solutions in _novy_systems(n, p):
        for a, (_, _, x_part) in enumerate(solutions):
            table[_novy_key(h_part, r_part, a ^ b, b, x_part)] = weight
    return table


def _novy_attack_table(n: int, psi: tuple[complex, complex], p: ToyPermutation,
                       early_measure: bool = False) -> dict[str, float]:
    """Walk every measurement branch of the coherent commit exactly.

    Late order: the walk descends the prefix tree of independent rows, so
    hash tuples sharing a prefix share that prefix's parity branches.

    With early_measure, B and X are measured right after the initial
    superposition is built. Y = pi(X), so each (b, x) branch is a point
    mass, and every later measurement of it is certain: its probability
    and collapsed amplitude do not depend on what is measured. The n + 2
    later steps (n - 1 rounds, then z, b and x) are therefore run once per
    (b, x), and the product of their probabilities, taken in walk order,
    weighs the key of every hash system that x's image solves.
    """
    alpha, beta = psi
    p_h = 1.0 / _tuple_count(n, n - 1)
    table: dict[str, float] = {}
    layout = RegisterLayout([("B", 1), ("X", n), ("Y", n)])
    base = init_state(layout).prepare_qubit("B", alpha, beta)
    base = base.uniform_superpose("X").coherent_eval(p.forward_int, ["X"], "Y")
    if not early_measure:
        xs = _bit_strings(n)
        for hs, leaves in _hash_sweep(n, n - 1, [((), p_h, base)], _split_branches):
            h_part = ",".join(xs[h] for h in hs)
            for rs, prob, s in leaves:
                # The leaf's support holds Y = the system's two solutions.
                y1 = max(layout.value(label, "Y") for label in s.amps)
                r_part = ",".join(map(str, rs))
                for z, p_z, s_z in s.branches(["B", "Y"], lambda b, y: b ^ (y == y1)):
                    for b, p_b, s_b in s_z.branches(["B"]):
                        for x, p_x, _ in s_b.branches(["X"]):
                            key = _novy_key(h_part, r_part, z, b, xs[x])
                            table[key] = table.get(key, 0.0) + prob * p_z * p_b * p_x
        return table
    weights: dict[int, float] = {}
    for bx, p_bx, s in base.branches(["B", "X"]):
        if s.support_size != 1:
            raise ValueError(f"(B, X) = {bx} leaves {s.support_size} labels, not a point mass")
        prob = p_h * p_bx
        for _ in range(n + 2):
            ((_, p_step, s),) = s.branches(["B"])
            prob *= p_step
        weights[bx] = prob
    for h_part, r_part, solutions in _novy_systems(n, p):
        for a, (_, x, x_part) in enumerate(solutions):
            for b in (0, 1):
                prob = weights.get((b << n) | x)
                if prob is not None:
                    table[_novy_key(h_part, r_part, a ^ b, b, x_part)] = prob
    return table


def _twop_honest_table(n: int, b: int, allow_zero_m1: bool) -> dict[str, float]:
    bits = _bit_strings(n)
    m1s = _m1_values(n, allow_zero_m1)
    weight = 1.0 / (len(m1s) * (1 << n))
    table: dict[str, float] = {}
    for m1 in m1s:
        for r in range(1 << n):
            z = r ^ m1 if b else r
            key = twop_outcome_key(bits[0], bits[m1], bits[z], b, bits[r], bits[r])
            table[key] = table.get(key, 0.0) + weight
    return table


def _twop_attack_table(n: int, psi: tuple[complex, complex],
                       allow_zero_m1: bool) -> dict[str, float]:
    alpha, beta = psi
    bits = _bit_strings(n)
    m1s = _m1_values(n, allow_zero_m1)
    p_m = 1.0 / len(m1s)
    table: dict[str, float] = {}
    layout = RegisterLayout([("B", 1), ("R", n), ("Z", n), ("Rp", n)])
    base = init_state(layout).uniform_superpose("R").coherent_eval(lambda r: r, ["R"], "Rp")
    base = base.prepare_qubit("B", alpha, beta)
    for m1 in m1s:
        masks = (0, m1)
        s = base.coherent_eval(lambda b, r: r ^ masks[b], ["B", "R"], "Z")
        for z, p_z, s_z in s.branches(["Z"]):
            for b, p_b, s_b in s_z.branches(["B"]):
                for r, p_r, s_r in s_b.branches(["R"]):
                    for rp, p_rp, _ in s_r.branches(["Rp"]):
                        key = twop_outcome_key(bits[0], bits[m1], bits[z], b, bits[r], bits[rp])
                        table[key] = table.get(key, 0.0) + p_m * p_z * p_b * p_r * p_rp
    return table


def exact_transcript_distribution(config: ScenarioConfig, *,
                                  early_measure: bool = False) -> dict[str, float]:
    """Exact distribution over announced values plus unveiled outcomes."""
    config.validate()
    if config.protocol.startswith("novy"):
        if config.n > NOVY_ENUM_LIMIT:
            raise ConfigError(f"enumeration bound exceeded: novy needs n <= {NOVY_ENUM_LIMIT}")
    else:
        if config.n > TWOP_ENUM_LIMIT:
            raise ConfigError(f"enumeration bound exceeded: 2p needs n <= {TWOP_ENUM_LIMIT}")
    if config.protocol == "novy-honest":
        return _novy_honest_table(config.n, config.b, config.permutation())
    if config.protocol == "novy-attack":
        return _novy_attack_table(config.n, config.psi, config.permutation(),
                                  early_measure=early_measure)
    if config.protocol == "2p-honest":
        return _twop_honest_table(config.n, config.b, config.allow_zero_m1)
    return _twop_attack_table(config.n, config.psi, config.allow_zero_m1)


def mixed_honest_distribution(config: ScenarioConfig, q: float) -> dict[str, float]:
    """Honest outcome table with the committed bit drawn Bernoulli(q)."""
    honest = replace(config, protocol=config.protocol.replace("attack", "honest"), psi=None)
    table: dict[str, float] = {}
    for b, weight in ((0, 1.0 - q), (1, q)):
        t_b = exact_transcript_distribution(replace(honest, b=b).validate())
        for key, prob in t_b.items():
            table[key] = table.get(key, 0.0) + weight * prob
    return table


def bob_view_distribution(config: ScenarioConfig) -> dict[str, float]:
    """Exact distribution of everything Bob sees during commit.

    Enumeration here allows n up to 3 for the honest protocols, which the
    concealment checks rely on, and n up to 2 for ``2p-attack``.
    """
    config.validate()
    if config.n > VIEW_ENUM_LIMIT:
        raise ConfigError(f"enumeration bound exceeded: views need n <= {VIEW_ENUM_LIMIT}")
    if config.protocol == "novy-honest":
        full = _novy_honest_table(config.n, config.b, config.permutation())
    elif config.protocol == "2p-honest":
        full = _twop_honest_table(config.n, config.b, config.allow_zero_m1)
    elif config.protocol == "2p-attack":
        if config.n > TWOP_ENUM_LIMIT:
            raise ConfigError(f"enumeration bound exceeded: 2p attack views need n <= {TWOP_ENUM_LIMIT}")
        full = _twop_attack_table(config.n, config.psi, config.allow_zero_m1)
    else:
        raise ConfigError("view enumeration supports novy-honest, 2p-honest, 2p-attack")
    table: dict[str, float] = {}
    for key, prob in full.items():
        view = key.split(" b=")[0]
        table[view] = table.get(view, 0.0) + prob
    return table


def empirical_transcript_distribution(config: ScenarioConfig, trials: int,
                                      seed: int) -> dict[str, float]:
    """Outcome-key frequencies over seeded runs, for oracle-agreement checks."""
    if not config.unveil:
        raise ConfigError("empirical outcome keys need unveiling runs")
    counts: dict[str, int] = {}
    for i in range(trials):
        transcript, _ = engine.run_protocol(config, trial_rng(seed, i))
        key = outcome_key_from_transcript(config, transcript)
        counts[key] = counts.get(key, 0) + 1
    return {key: c / trials for key, c in counts.items()}
