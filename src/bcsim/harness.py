"""Scenario runner, exact-enumeration oracles, and report emission.

A ``ScenarioConfig`` is checked once, when it is made, so the runner and
every oracle take a config that its checks accept and check nothing again.
A family's own config field is its ``FAMILY_ENTRIES`` entry's to check,
build, report and parse; ``engine.check_scenario`` checks n, b and psi.

The enumeration oracles recompute protocol outcome distributions without
any random sampling: honest protocols by sweeping every party coin,
attacks by walking each measurement's exact branch probabilities with
``SparseState.branches``. With the trial path they share only the
simulator (``qsim`` and ``gf2.Echelon``), never the protocol roles, so
that empirical frequencies can be checked against them.

Each scenario has one exact table, ``exact_transcript_distribution``, and
one width bound, ``ENUM_MAX_N``, for every protocol. The other oracles
give transforms of it: ``bob_view_distribution`` is the table summed over
the unveiled fields of each label, as its family's entry gives it (2p
cuts its table, novy packs its table's row weights), and
``mixed_honest_distribution`` is the honest table built once with the
committed bit drawn from the prior {0: 1 - q, 1: q}, each bit's weight
multiplied once, not merged from two tables.

Every table keys its outcomes by int labels of ``outcome_layout(config)``,
one layout per protocol family, packed as ``qsim`` packs basis labels; a
view keeps the fields up to and including Z. No table formats a string:
``outcome_strings`` renders labels as the strings a person reads, and only
``bcsim enumerate`` and the tests call it.

The novy tables solve no system, and a call does only the work its own
pi and psi need. ``_novy_systems(n)`` lists each hash system's prefix
label and solutions y0 < y1, hash tuples in ``product`` order and each
tuple's response vectors ascending, bucketing every y by its parities; it
depends on n alone, so it is built once per width (168 systems at n = 3,
at most ENUM_MAX_N lists). ``_novy_keys(n, pi)`` packs every table key
from it once per (n, pi): system by system, and in a system by (a, b)
ascending, the prefix with z = a ^ b, b and x = pi^-1(y_a). The four
tables of one round of novy checks share one pi, so they share one key
tuple. Each novy table finds one probability per (a, b) row, and
``_systems_table`` pairs the keys with the rows in turn. Bob's view holds
no x, so ``_systems_view`` packs it from the same rows and reads no key
tuple: each system's view prefix, ``_novy_view_prefixes(n)``, built once
per width, with z = a ^ b weighing that z's rows summed in table order,
the sums the cut below Z makes. The honest weights are uniform. The
early-measure attack runs each point mass's certain steps once per
amplitude.

The novy late-order table and the 2p attack table rest on one fact,
checked by ``_check_blocks``: each B block of the committed state holds
one amplitude on 2^n labels of distinct values of its last register, Y
for novy and Rp for 2p. So the novy table runs the real
``SparseState.branches`` down one hash tuple's measurements, and the 2p
table measures Z once, for m_1 = 1, and runs the B, R and Rp tail once
per order of a z class's labels, labelling every (m_1, z)
arithmetically. No call leaves a reference cycle, and every table value
is the same float, summed and multiplied in the same order, as one walk
per hash tuple, or per z class, gives.
"""
from __future__ import annotations

import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, fields as dataclass_fields
from functools import lru_cache, partial
from itertools import cycle, product
from operator import eq, sub
from random import Random

from . import engine, gf2, novy, twoprover
from .engine import MAX_N, ConfigError, shown  # the width bound re-exported
from .perm import ToyPermutation
from .qsim import RegisterLayout, SparseState, cached_layout, init_state

PROTOCOLS = tuple(engine.PROTOCOLS)
# Every exact table, and so every view and mixture, needs n <= ENUM_MAX_N.
# The widest, a novy-attack table, has 672 keys at n = 3 and takes about
# 0.1 ms once its (n, pi) keys are packed, which takes about 0.04 ms
# (Python 3.11, 2 shared vCPUs); its hash tuples grow as 2^(n(n-1)), so it
# has 80,640 keys at n = 4, packed in about 36 ms, and about 40 million at
# n = 5. A 2p-attack table has 2^(n+1) keys per m_1 (112 at n = 3) and
# takes about 0.1 ms at n = 3, 0.6 ms at n = 5 and 8.5 ms at n = 7, where
# its loop packs 32,512 labels.
ENUM_MAX_N = 3
DEFAULT_PERM = {"a": ToyPermutation.a, "c": ToyPermutation.c}
# A config divides a psi whose float norm is off 1 by more than this by its
# norm, so that a recovery reads a fidelity of 1, not 1 + 8e-11. H's norm is
# 1 + 2^-52 and (0.6, 0.8i)'s is 1, so those stay as given.
PSI_RENORM_EPS = 2.0 ** -50


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flag(value, name: str) -> bool:
    """value, or ConfigError naming the field unless it is a bool: unveil, or 2p's allow_zero_m1."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false")
    return value


def _parse_amplitude(raw) -> complex:
    try:
        if _is_real(raw):
            return complex(raw)
        if isinstance(raw, (list, tuple)) and len(raw) == 2 and all(map(_is_real, raw)):
            return complex(raw[0], raw[1])
    except OverflowError as exc:
        raise ConfigError(f"amplitude {shown(raw)} is out of range") from exc
    raise ConfigError(f"amplitude must be a number or [re, im], got {shown(raw)}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, checked when it is made: ``ScenarioConfig(...)`` and
    ``dataclasses.replace`` raise ConfigError for any field it refuses, so an
    invalid config never exists. A psi whose norm is off 1 by more than
    ``PSI_RENORM_EPS`` is stored divided by its norm. It stores, once, its
    ``family`` record, ``roles`` module, ``is_attack`` and ``own_keyword``,
    the family's own field as its roles' and tables' keyword; not fields."""

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

    def __post_init__(self) -> None:
        try:  # the one test of the protocol name
            family, attack = engine.PROTOCOLS[self.protocol]
        except (KeyError, TypeError):  # TypeError: an unhashable protocol
            raise ConfigError(f"unknown protocol {shown(self.protocol)}") from None
        for other, entry in FAMILY_ENTRIES.items():  # each entry's moved runs, and may refuse
            if entry.moved(self) and other is not family:
                raise ConfigError(f"{entry.field} does not apply to {self.protocol} scenarios")
        psi = engine.check_scenario(family, attack, self.n, self.b, self.psi)
        mine = FAMILY_ENTRIES[family]
        own = mine.own(self)  # checks the family's own field
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {shown(self.trials)}")
        # trial_rng seeds with the decimal string. Below 2,000 bits an int prints
        # under any int-to-str digit limit Python allows (640 digits or more).
        if not _is_int(self.seed) or (self.seed.bit_length() > 2000
                                      and not shown(self.seed).lstrip("-").isdigit()):
            raise ConfigError(f"seed must be an int short enough to print, got {shown(self.seed)}")
        _flag(self.unveil, "unveil")
        # Not through vars(self): a materialized __dict__ slows every attribute read.
        if psi is not None:
            norm = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
            if abs(norm - 1.0) > PSI_RENORM_EPS:
                object.__setattr__(self, "psi", tuple(amp / math.sqrt(norm) for amp in psi))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "roles", mine.roles)
        object.__setattr__(self, "is_attack", attack)
        object.__setattr__(self, "own_keyword", own)

    def __reduce__(self):
        """Pickle and deepcopy make the config again from its fields, as replace does."""
        return type(self), tuple(getattr(self, f.name) for f in dataclass_fields(self))

    def validate(self) -> "ScenarioConfig":
        """The config itself: it was checked when it was made."""
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {"protocol", "n", "b", "psi", "unveil", "trials", "seed"}
        unknown = set(raw) - known - {entry.field for entry in FAMILY_ENTRIES.values()}
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(sorted(map(shown, unknown)))}")
        try:
            fields = {"protocol": raw["protocol"], "n": raw["n"]}
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc
        # Only the fields present are passed: the dataclass holds the defaults.
        fields.update((k, raw[k]) for k in ("b", "unveil", "trials", "seed") if k in raw)
        if "psi" in raw:
            spec = raw["psi"]
            if not isinstance(spec, dict) or set(spec) != {"alpha", "beta"}:
                raise ConfigError('psi must be {"alpha": ..., "beta": ...}')
            fields["psi"] = (_parse_amplitude(spec["alpha"]), _parse_amplitude(spec["beta"]))
        for entry in FAMILY_ENTRIES.values():
            if entry.field in raw:
                fields.update(entry.parse(raw[entry.field]))
        config = cls(**fields)
        for other, entry in FAMILY_ENTRIES.items():  # to_dict would drop it
            if other is not config.family and entry.field in raw:
                raise ConfigError(f"{entry.field} does not apply to {config.protocol} scenarios")
        return config

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
            # complex() first, so that an int or float part echoes as a float.
            alpha, beta = map(complex, self.psi)
            out["psi"] = {"alpha": [alpha.real, alpha.imag], "beta": [beta.real, beta.imag]}
        entry = FAMILY_ENTRIES[self.family]
        return out | {entry.field: entry.report(self)}


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
        """Deterministic part of the report: every field but the wall clock."""
        return {k: v for k, v in vars(self).items() if k != "wall_clock_s"}


def trial_rng(seed: int, index: int) -> Random:
    # String seeding hashes via sha512, stable across processes.
    return Random(f"{seed}:{index}")


def run_trials(config: ScenarioConfig) -> TrialReport:
    """Run config.trials independent seeded executions and aggregate the outcomes."""
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
    """Total variation distance: half the L1 distance over the union support,
    summed over p's keys, then over the keys only q has, if q has any; if q
    lists p's keys in p's order, by pairing values: the same terms in order."""
    if len(p) == len(q) and all(map(eq, p, q)):
        return 0.5 * sum(map(abs, map(sub, p.values(), q.values())))
    total = sum(abs(v - q.get(k, 0.0)) for k, v in p.items())
    if not q.keys() <= p.keys():
        total += sum(abs(v) for k, v in q.items() if k not in p)
    return 0.5 * total


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


# -- outcome labels -----------------------------------------------------

def outcome_layout(config: ScenarioConfig) -> RegisterLayout:
    """The fields every exact table of config's protocol packs into its int
    labels, first field in the top bits, as ``qsim`` packs basis labels.

    novy: H holds the hash rows h_1 .. h_(n-1), h_1 in the top n bits, R
    the responses, r_1 in the top bit, then z, the unveiled b and x. 2p:
    m_1, z, the unveiled b, r and the disclosed r'; m_0 = 0^n is constant
    and not stored. Bob's view of a table keeps the fields up to and
    including Z. The config was checked when it was made, so this reads
    its family and width and checks nothing."""
    return cached_layout(FAMILY_ENTRIES[config.family].fields(config.n))


def outcome_strings(layout: RegisterLayout, table: dict[int, float]) -> dict[str, float]:
    """table with each label of ``layout`` replaced by the string a person
    reads, in table order: each field as ``name=bits``, H's rows and a
    novy R's bits joined by commas, and M1 after ``m0=0...0``. ``layout``
    is an ``outcome_layout``, or, for a view, its fields up to Z."""
    # A novy H holds one n-bit row per response bit in R.
    rows = layout.spec("R")[2] if "H" in layout.names else 0
    fields = [(name.lower(), *layout.spec(name)) for name in layout.names]
    out: dict[str, float] = {}
    for label, prob in table.items():
        parts = []
        for name, shift, mask, width in fields:
            bits = f"{label >> shift & mask:0{width}b}"
            if name == "h":
                step = width // rows
                bits = ",".join(bits[i:i + step] for i in range(0, width, step))
            elif name == "r" and rows:
                bits = ",".join(bits)
            elif name == "m1":
                parts.append("m0=" + "0" * width)
            parts.append(f"{name}={bits}")
        out[" ".join(parts)] = prob
    return out


# -- exact enumeration --------------------------------------------------

def _tuple_count(n: int, m: int) -> int:
    """Ordered m-tuples of independent width-n rows: prod_{i<m} (2^n - 2^i)."""
    return math.prod((1 << n) - (1 << i) for i in range(m))


def _m1_values(n: int, allow_zero: bool) -> list[int]:
    return [v for v in range(1 << n) if v or allow_zero]


@lru_cache(maxsize=ENUM_MAX_N)
def _novy_systems(n: int) -> tuple[tuple[int, int, int], ...]:
    """``(prefix, y0, y1)`` for every novy hash system: each tuple hs of
    n - 1 independent rows, ascending as ``product`` lists them, and each
    response vector rs, ascending: the label holding its H and R fields
    and the two solutions y0 < y1 of hs . y = rs. Each y's parities under
    hs, r_1 first, index its rs, so nothing is solved. No pi or psi
    enters, so each width's list is built once (168 systems at n = 3)."""
    systems = []
    for hs in product(range(1 << n), repeat=n - 1):
        rows = gf2.Echelon(n)
        if not all(map(rows.add, hs)):
            continue
        buckets: list[list[int]] = [[] for _ in range(1 << (n - 1))]
        head = 0
        for h in hs:
            head = (head << n) | h
        for y in range(1 << n):
            index = 0
            for h in hs:
                index = (index << 1) | gf2.dot(h, y)
            buckets[index].append(y)
        # Below R sit Z, B and X: 1 + 1 + n bits.
        systems += [(((head << (n - 1)) | r) << (n + 2), *ys) for r, ys in enumerate(buckets)]
    return tuple(systems)


@lru_cache(maxsize=ENUM_MAX_N)
def _novy_view_prefixes(n: int) -> tuple[int, ...]:
    """Each ``_novy_systems`` prefix cut below Z, ``prefix >> (n + 1)``, in
    order: the H and R fields of Bob's view, with z = 0. No pi enters."""
    return tuple(prefix >> (n + 1) for prefix, _, _ in _novy_systems(n))


# One (n, pi) key tuple takes about 24 KB at n = 3 (672 ints) and 2.9 MB at
# n = 4 (80,640), so ENUM_MAX_N of them take at most 73 KB, or 8.7 MB at n = 4.
@lru_cache(maxsize=ENUM_MAX_N)
def _novy_keys(n: int, p: ToyPermutation) -> tuple[int, ...]:
    """Every novy table key, system by system in ``_novy_systems`` order,
    and within a system by (a, b) ascending: the prefix with z = a ^ b, b
    and x = pi^-1(y_a) ORed in. Every novy table of one (n, pi), honest,
    mixed or attack, keys its rows with this one tuple."""
    xs = [p.inverse_int(y) for y in range(1 << n)]
    ends = [(((a ^ b) << 1 | b) << n) for a in (0, 1) for b in (0, 1)]
    keys: list[int] = []
    for prefix, y0, y1 in _novy_systems(n):
        x0, x1 = prefix | xs[y0], prefix | xs[y1]
        keys += (x0 | ends[0], x0 | ends[1], x1 | ends[2], x1 | ends[3])
    return tuple(keys)


def _systems_table(n: int, p: ToyPermutation,
                   probs: dict[tuple[int, int], float]) -> dict[int, float]:
    """Key every novy hash system's outcomes: each (a, b) row of probs, all
    four or the two of one b, weighs its outcome of every system with
    probs[a, b]. Keys come as ``_novy_keys`` lists them."""
    rows = sorted(probs)
    keys = _novy_keys(n, p)
    if len(rows) == 2:  # (0, b) and (1, b): every other key, from b's
        keys = keys[rows[0][1]::2]
    return dict(zip(keys, cycle([probs[row] for row in rows])))


def _systems_view(n: int, probs: dict[tuple[int, int], float]) -> dict[int, float]:
    """Bob's view of the novy table whose (a, b) rows weigh probs, as
    cutting every key below Z gives it: each ``_novy_view_prefixes`` prefix
    with z = a ^ b, weighing that z's rows summed in table order,
    (0.0 + first) + second, and the z of a system's first row first. No
    view key holds x, so no pi enters."""
    sums: dict[int, float] = {}
    for a, b in sorted(probs):
        z = a ^ b
        sums[z] = sums.get(z, 0.0) + probs[a, b]
    (z0, w0), (z1, w1) = sums.items()
    view: dict[int, float] = {}
    for prefix in _novy_view_prefixes(n):
        view[prefix | z0] = w0
        view[prefix | z1] = w1
    return view


def _novy_honest_rows(n: int, prior: dict[int, float]) -> dict[tuple[int, int], float]:
    """The (a, b) row weights of the honest outcomes with the committed bit
    b drawn with weight prior[b]: every system and a are uniform."""
    weight = 1.0 / (_tuple_count(n, n - 1) * (1 << n))
    probs: dict[tuple[int, int], float] = {}
    for b, w_b in prior.items():
        probs[0, b] = probs[1, b] = w_b * weight
    return probs


def _novy_honest_table(n: int, prior: dict[int, float], p: ToyPermutation) -> dict[int, float]:
    """Honest outcomes with the committed bit b drawn with weight prior[b]:
    one walk of the hash systems keys every bit's outcomes, system by system."""
    return _systems_table(n, p, _novy_honest_rows(n, prior))


def _check_blocks(base: SparseState, n: int) -> None:
    """Raise ValueError unless each B block of the committed state holds one
    amplitude on 2^n labels that differ in the last n-bit register: Y, as
    Y = pi(X) gives, for novy; Rp, a copy of R, for 2p. B is the top bit."""
    shift, last = base.layout.spec("B")[0], base.layout.names[-1]
    blocks: tuple[list, list] = ([], [])
    for label, amp in base.amps.items():
        blocks[label >> shift].append((label & ((1 << n) - 1), amp))
    for b, block in enumerate(blocks):
        amps = {amp for _, amp in block}
        if len(amps) > 1:
            raise ValueError(f"B block {b} holds {len(amps)} amplitudes, not one")
        values = {v for v, _ in block}
        if block and not len(block) == len(values) == 1 << n:
            raise ValueError(f"B block {b} holds {len(block)} labels on {len(values)} {last}"
                             " values, so a (z, b) branch is not a point mass")


def _novy_attack_table(n: int, psi: tuple[complex, complex], p: ToyPermutation,
                       early_measure: bool = False) -> dict[int, float]:
    """The attack outcomes: ``_novy_attack_rows`` keyed on every hash system."""
    return _systems_table(n, p, _novy_attack_rows(n, psi, p, early_measure))


def _novy_attack_rows(n: int, psi: tuple[complex, complex], p: ToyPermutation,
                      early_measure: bool = False) -> dict[tuple[int, int], float]:
    """Walk every measurement branch of the coherent commit exactly, for
    the weight of each (a, b) row of the attack table.

    Late order: each B block holds one amplitude on 2^n labels of distinct
    Y (checked; ValueError otherwise), the B = 0 block listed first. So
    each independent hash row halves every block, and every class after
    the same number of rows, and every final class, sums the same weights
    in the same order and gives the same p_r, p_z, p_b and p_x. The real
    ``branches`` runs down one path, rows 1 << k with outcome 0 for
    k < n - 1, then measures z, B and X at its leaf, whose solutions are 0
    and 1 << (n - 1). Each (z, b) branch's product weighs that outcome of
    every hash system.

    With early_measure, B and X are measured right after the initial
    superposition is built. Y = pi(X), so each (b, x) branch is a point
    mass, and each later step is certain, with a probability and collapsed
    amplitude that depend only on its amplitude. The n + 2 later steps
    (n - 1 rounds, then z, b and x) run once per distinct amplitude; their
    probabilities, multiplied in walk order, weigh the key of every hash
    system that x's image solves; every x of one b must weigh the same
    (ValueError otherwise), since each (a, b) row holds one float.
    """
    alpha, beta = psi
    p_h = 1.0 / _tuple_count(n, n - 1)
    layout = cached_layout((("B", 1), ("X", n), ("Y", n)))
    base = init_state(layout).prepare_qubit("B", alpha, beta)
    base = base.uniform_superpose("X").coherent_eval(p.forward_int, ["X"], "Y")
    probs: dict[tuple[int, int], float] = {}
    if not early_measure:
        _check_blocks(base, n)
        s, prob = base, p_h
        for k in range(n - 1):
            _, p_r, s = s.branches(["Y"], partial(gf2.dot, 1 << k))[0]  # outcome 0
            prob *= p_r
        y1 = 1 << (n - 1)
        for z, p_z, s_z in s.branches(["B", "Y"], lambda b, y: b ^ (y == y1)):
            for b, p_b, s_b in s_z.branches(["B"]):
                ((_, p_x, _),) = s_b.branches(["X"])
                probs[z ^ b, b] = prob * p_z * p_b * p_x
        return probs
    steps: dict[complex, list[float]] = {}
    for bx, p_bx, s in base.branches(["B", "X"]):
        if s.support_size != 1:
            raise ValueError(f"(B, X) = {bx} leaves {s.support_size} labels, not a point mass")
        (amp,) = s.amps.values()
        p_steps = steps.get(amp)
        if p_steps is None:
            p_steps = steps[amp] = []
            for _ in range(n + 2):
                ((_, p_step, s),) = s.branches(["B"])
                p_steps.append(p_step)
        prob = p_h * p_bx
        for p_step in p_steps:
            prob *= p_step
        b = bx >> n
        if probs.setdefault((0, b), prob) != prob:
            raise ValueError(f"(B, X) = {bx} weighs {prob!r}, not its block's {probs[0, b]!r}")
        probs[1, b] = prob
    return probs


def _twop_honest_table(n: int, prior: dict[int, float], allow_zero_m1: bool) -> dict[int, float]:
    """Honest outcomes with the committed bit b drawn with weight prior[b].
    Each (b, m1, r) gives one key, so each is assigned once."""
    m1s = _m1_values(n, allow_zero_m1)
    weight = 1.0 / (len(m1s) * (1 << n))
    table: dict[int, float] = {}
    for b, w_b in prior.items():
        prob = w_b * weight
        for m1 in m1s:
            for r in range(1 << n):
                z = r ^ m1 if b else r
                table[(((m1 << n | z) << 1 | b) << n | r) << n | r] = prob
    return table


def _twop_attack_table(n: int, psi: tuple[complex, complex],
                       allow_zero_m1: bool) -> dict[int, float]:
    """Walk every measurement branch of the coherent commit exactly.

    Each B block of the committed state holds one amplitude on 2^n labels
    of distinct Rp (``_check_blocks``; ValueError otherwise). So the z
    class of each (m_1, z) holds the labels (b, r, z, r) with r = z ^ m_b,
    one per B value, the B = 0 label first iff z lacks m_1's top bit, and
    its p_z and B, R and Rp floats depend only on that order. The real
    ``branches`` measures Z for m_1 = 1 alone, which is never 0 and gives
    each order to half the z values: it checks that each class holds
    exactly those labels (ValueError otherwise), and runs the B, R and Rp
    tail for the first class of each order, z's bit 0. Every class of every
    m_1 takes its order's floats, and r and rp are z ^ m_b. Every label is
    unique, and its value is ``p_m * p_z * p_b * p_r * p_rp``, multiplied
    in walk order.
    """
    alpha, beta = psi
    m1s = _m1_values(n, allow_zero_m1)
    p_m = 1.0 / len(m1s)
    top = 3 * n
    layout = cached_layout((("B", 1), ("R", n), ("Z", n), ("Rp", n)))
    base = init_state(layout).uniform_superpose("R").coherent_eval(lambda r: r, ["R"], "Rp")
    base = base.prepare_qubit("B", alpha, beta)
    _check_blocks(base, n)
    orders: dict[int, list] = {}  # z's bit 0 for m_1 = 1 -> [(b, prob)]
    s = base.coherent_eval(lambda b, r: r ^ b, ["B", "R"], "Z")
    for z, p_z, s_z in s.branches(["Z"]):
        for label in s_z.amps:
            b = label >> top
            r = z ^ b
            if label != (b << top) | (r << 2 * n) | (z << n) | r:
                raise ValueError(f"z class {z} holds label {label}, not (b, r, z, r)"
                                 " with r = z ^ m_b")
        if z & 1 not in orders:
            orders[z & 1] = tail = []
            for b, p_b, s_b in s_z.branches(["B"]):
                ((_, p_r, s_r),) = s_b.branches(["R"])
                ((_, p_rp, _),) = s_r.branches(["Rp"])
                tail.append((b, p_m * p_z * p_b * p_r * p_rp))  # multiplied in walk order
    table: dict[int, float] = {}
    for m1 in m1s:
        high = 1 << m1.bit_length() >> 1
        masks = (0, m1)
        for z in range(1 << n):
            head = (m1 << n | z) << 1
            for b, prob in orders[1 if z & high else 0]:
                r = z ^ masks[b]
                table[((head | b) << n | r) << n | r] = prob
    return table


def _enumerable(config: ScenarioConfig) -> ScenarioConfig:
    """The config, or ConfigError if it is wider than ENUM_MAX_N."""
    if config.n > ENUM_MAX_N:
        raise ConfigError(f"enumeration bound exceeded: exact tables need n <= {ENUM_MAX_N}")
    return config


def _novy_view(config: ScenarioConfig) -> dict[int, float]:
    """Bob's view of config's honest or late-order attack table, packed
    from the table's row weights; no table is built."""
    if config.is_attack:
        probs = _novy_attack_rows(config.n, config.psi, **config.own_keyword)
    else:
        probs = _novy_honest_rows(config.n, {config.b: 1.0})
    return _systems_view(config.n, probs)


def _cut_view(config: ScenarioConfig) -> dict[int, float]:
    """Bob's view of config's exact table: each label cut below its Z field,
    dropping the unveiled fields, and the rest summed in table order. A 2p
    table has at most 128 keys (n = 3, m_1 = 0 allowed)."""
    table = exact_transcript_distribution(config)
    shift = outcome_layout(config).spec("Z")[0]
    view: dict[int, float] = {}
    for label, prob in table.items():
        key = label >> shift
        view[key] = view.get(key, 0.0) + prob
    return view


def _novy_moved(config: ScenarioConfig) -> bool:
    """Whether perm is off its default; ConfigError, in any family, unless a and c are ints."""
    a, c = config.perm_a, config.perm_c
    if not (_is_int(a) and _is_int(c)):
        raise ConfigError(f"perm a and c must be integers, got {shown(a)}, {shown(c)}")
    return {"a": a, "c": c} != DEFAULT_PERM


def _novy_own(config: ScenarioConfig) -> dict:
    """The permutation perm names, built once; ConfigError, hinting at the default, if it fails."""
    try:
        return {"p": ToyPermutation(config.n, config.perm_a, config.perm_c)}
    except ValueError as exc:
        hint = "" if _novy_moved(config) else (
            f" (the default perm a={config.perm_a}, c={config.perm_c} needs n >= 3;"
            ' pass "perm": {"a": odd a < 2^n, "c": c < 2^n})')
        raise ConfigError(f"invalid permutation: {exc}{hint}") from exc


def _novy_fields(perm) -> dict:
    if not isinstance(perm, dict) or not set(perm) <= {"a", "c"}:
        raise ConfigError('perm must be {"a": int, "c": int}')
    return {f"perm_{k}": v for k, v in perm.items()}


# Each family's role module (configs take it; no oracle calls a role), own config field's
# name, layout fields at n, honest, attack and early-order attack (or None) tables, Bob's
# view of a config (view), and own field: checked, as its roles' and tables' keyword (own),
# off its default (moved, run on every config first), as to_dict writes it (report), as the
# fields a config file's value sets (parse) and, by n, the fields a width the default does
# not fit takes (own_at).
FamilyEntry = namedtuple("FamilyEntry",
                         "roles field fields honest attack early view own moved report parse"
                         " own_at")
FAMILY_ENTRIES = {
    engine.NOVY: FamilyEntry(
        novy, "perm", lambda n: (("H", (n - 1) * n), ("R", n - 1), ("Z", 1), ("B", 1), ("X", n)),
        _novy_honest_table, _novy_attack_table, partial(_novy_attack_table, early_measure=True),
        _novy_view, _novy_own, _novy_moved, lambda c: {"a": c.perm_a, "c": c.perm_c}, _novy_fields,
        {2: {"perm_a": 3, "perm_c": 1}}),
    engine.TWO_PROVER: FamilyEntry(
        twoprover, "allow_zero_m1", lambda n: (("M1", n), ("Z", n), ("B", 1), ("R", n), ("Rp", n)),
        _twop_honest_table, _twop_attack_table, None, _cut_view,
        lambda c: {"allow_zero_m1": _flag(c.allow_zero_m1, "allow_zero_m1")},
        lambda c: c.allow_zero_m1 is not False,
        lambda c: c.allow_zero_m1, lambda flag: {"allow_zero_m1": flag}, {}),
}


def exact_transcript_distribution(config: ScenarioConfig, *,
                                  early_measure: bool = False) -> dict[int, float]:
    """Exact distribution over announced values plus unveiled outcomes,
    keyed by labels of ``outcome_layout(config)``."""
    if not isinstance(early_measure, bool):
        raise ConfigError(f"early_measure must be true or false, got {shown(early_measure)}")
    entry = FAMILY_ENTRIES[_enumerable(config).family]
    if early_measure and not (entry.early and config.is_attack):
        raise ConfigError(f"early_measure applies to novy-attack only, not {config.protocol}")
    if not config.is_attack:
        return entry.honest(config.n, {config.b: 1.0}, **config.own_keyword)
    table = entry.early if early_measure else entry.attack
    return table(config.n, config.psi, **config.own_keyword)


def mixed_honest_distribution(config: ScenarioConfig, q: float) -> dict[int, float]:
    """config's honest outcome table, whatever its role, with the committed
    bit drawn Bernoulli(q): one table, whose b = 0 keys weigh 1 - q and b = 1
    keys q times their honest probability. At q = 0 or 1 the other bit's
    keys stay, with 0.0."""
    # Written so that NaN, which fails every comparison, is refused too.
    if not (_is_real(q) and 0.0 <= q <= 1.0):
        raise ConfigError(f"q must be a probability in [0, 1], got {shown(q)}")
    entry = FAMILY_ENTRIES[_enumerable(config).family]
    # q + 0.0 weighs the b = 1 keys 0.0, not -0.0, when q is -0.0.
    return entry.honest(config.n, {0: 1.0 - q, 1: q + 0.0}, **config.own_keyword)


def bob_view_distribution(config: ScenarioConfig) -> dict[int, float]:
    """Exact distribution of everything Bob sees during commit: the exact
    table with each label cut below its Z field, dropping the unveiled
    fields, and the rest summed in table order, keyed by labels of the
    ``outcome_layout`` fields up to Z. Its family's entry gives it."""
    return FAMILY_ENTRIES[_enumerable(config).family].view(config)
