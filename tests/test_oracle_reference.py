"""The exact oracles and gf2 against the loop versions they replaced.

The references below are the straightforward forms of the GF(2) solver,
rank and sampler, the measurement branching and the novy tables: one
elimination scan per column, one leading-bit reduction per drawn row,
three passes per branching with each label's registers packed by a
closure, one solve and one walk of every round per hash tuple, every
measurement of every 2p z class, a Bernoulli(q) mixture merged from two
honest tables key by key, and a TV that looks up every key of one table
in the other. The fast forms must give the same solutions, ranks, rows
and RNG use, the same branches, TVs with the same ``float.hex`` and,
for every table, the same keys with bit-identical values. The tables key
outcomes by int labels; ``harness.outcome_strings`` turns them into the
strings the reference forms key by, ``novy_outcome_key`` and
``twop_outcome_key``. The enumerate digests were recorded with the
reference forms in place.
"""
import cmath
import gc
import hashlib
import itertools
import json
import math
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsim import gf2, harness, novy
from bcsim.cli import main as cli_main
from bcsim.gf2 import BitVector
from bcsim.harness import ConfigError, ScenarioConfig
from bcsim.perm import ToyPermutation
from bcsim.qsim import RegisterLayout, SparseState, cached_layout, init_state, unchecked_state
from test_qsim import FUSED_CASES, random_state
from test_unveil_reference import (BitMatrix, bit_vector, echelon_rank, echelon_solve_affine,
                                   parity_fn)


def novy_outcome_key(hs, rs, z, b, x) -> str:
    """A novy table key: the announced rows and responses, then z, b and x,
    each row and x as the ``BitVector`` announcing it prints."""
    return f"h={','.join(map(str, hs))} r={','.join(map(str, rs))} z={z} b={b} x={x}"


def twop_outcome_key(m0, m1, z, b, r, rp) -> str:
    """A 2p table key; each string is an announced ``BitVector`` or the str
    it prints as."""
    return f"m0={m0} m1={m1} z={z} b={b} r={r} rp={rp}"


def bit_strings(n):
    """Each n-bit int's string, as the ``BitVector`` announcing it prints."""
    return [f"{v:0{n}b}" for v in range(1 << n)]


def table_layout(family, n):
    """The outcome layout of a novy or 2p table of width n."""
    perm = {"perm_a": 1, "perm_c": 0} if family == "novy" else {}  # 2p configs refuse a perm
    config = ScenarioConfig(protocol=f"{family}-honest", n=n, b=0, **perm)
    return harness.outcome_layout(config)


def view_layout(layout):
    """A view's layout: the table layout's fields up to and including Z."""
    return cached_layout(layout.registers()[:layout.names.index("Z") + 1])


def formatted(family, n, table):
    """A width-n novy or 2p table keyed by the strings the references use."""
    return harness.outcome_strings(table_layout(family, n), table)


def ref_solve_affine(H: BitMatrix, r: BitVector) -> list[BitVector]:
    if H.m != len(r):
        raise ValueError(f"system shape mismatch: {H.m} rows vs {len(r)} rhs bits")
    if H.m > H.n:
        raise ValueError(f"overdetermined system not supported: m={H.m} > n={H.n}")
    n = H.n
    rows = [(row.value << 1) | ((r.value >> (H.m - 1 - i)) & 1) for i, row in enumerate(H.rows)]
    pivots: list[int] = []
    for col in range(n):
        bit = 1 << (n - col)
        k0 = len(pivots)
        pivot = next((k for k in range(k0, len(rows)) if rows[k] & bit), None)
        if pivot is None:
            continue
        rows[k0], rows[pivot] = rows[pivot], rows[k0]
        for k in range(len(rows)):
            if k != k0 and rows[k] & bit:
                rows[k] ^= rows[k0]
        pivots.append(col)
    if any(row == 1 for row in rows[len(pivots):]):
        return []
    base = 0
    for k, col in enumerate(pivots):
        if rows[k] & 1:
            base |= 1 << (n - 1 - col)
    pivot_set = set(pivots)
    basis = []
    for free_col in (c for c in range(n) if c not in pivot_set):
        vec = 1 << (n - 1 - free_col)
        fbit = 1 << (n - free_col)
        for k, col in enumerate(pivots):
            if rows[k] & fbit:
                vec |= 1 << (n - 1 - col)
        basis.append(vec)
    solutions = []
    for combo in range(1 << len(basis)):
        v = base
        for j, vec in enumerate(basis):
            if (combo >> j) & 1:
                v ^= vec
        solutions.append(v)
    solutions.sort()
    return [BitVector.from_int(v, n) for v in solutions]


def ref_rank(H: BitMatrix) -> int:
    rows = [row.value for row in H.rows]
    r = 0
    for col in range(H.n):
        bit = 1 << (H.n - 1 - col)
        pivot = next((k for k in range(r, len(rows)) if rows[k] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k] & bit:
                rows[k] ^= rows[r]
        r += 1
    return r


def ref_sample_independent_rows(m: int, n: int, rng: Random) -> BitMatrix:
    if m > n:
        raise ValueError(f"cannot draw {m} independent rows of width {n}")
    rows: list[BitVector] = []
    basis: dict[int, int] = {}  # leading-bit position -> reduced row
    while len(rows) < m:
        cand = rng.getrandbits(n)
        red = cand
        while red:
            high = red.bit_length() - 1
            if high not in basis:
                basis[high] = red
                rows.append(BitVector.from_int(cand, n))
                break
            red ^= basis[high]
    return BitMatrix.from_rows(rows, n)


def ref_branches(s: SparseState, regs, f=None):
    """Keys, then weights, then groups: three passes over the support."""
    specs = [s.layout.spec(r) for r in regs]
    if f is None:
        def f(*values):
            out = 0
            for (_, _, width), v in zip(specs, values):
                out = (out << width) | v
            return out
    keys = [f(*[(label >> sh) & m for sh, m, _ in specs]) for label in s.amps]
    weights = {}
    for key, amp in zip(keys, s.amps.values()):
        weights[key] = weights.get(key, 0.0) + amp.real * amp.real + amp.imag * amp.imag
    groups = {}
    for key, item in zip(keys, s.amps.items()):
        groups.setdefault(key, []).append(item)
    out = []
    for value in sorted(weights):
        prob = weights[value]
        if prob > 0.0:
            scale = 1.0 / math.sqrt(prob)
            amps = {label: amp * scale for label, amp in groups[value]}
            out.append((value, prob, unchecked_state(s.layout, amps)))
    return out


def ref_independent_row_tuples(n, m):
    results = []

    def extend(prefix, basis):
        if len(prefix) == m:
            results.append(tuple(BitVector.from_int(v, n) for v in prefix))
            return
        for cand in range(1 << n):
            red = cand
            ok = False
            while red:
                high = red.bit_length() - 1
                if high not in basis:
                    ok = True
                    break
                red ^= basis[high]
            if not ok:
                continue
            basis2 = dict(basis)
            basis2[red.bit_length() - 1] = red
            extend(prefix + [cand], basis2)

    extend([], {})
    return results


def ref_novy_honest_table(n, b, p):
    tuples = ref_independent_row_tuples(n, n - 1)
    weight = 1.0 / (len(tuples) * (1 << n))
    table = {}
    for hs in tuples:
        matrix = BitMatrix.from_rows(hs, n)
        for x_int in range(1 << n):
            x = BitVector.from_int(x_int, n)
            y = BitVector.from_int(p.forward_int(x.value), n)
            rs = [gf2.dot(h.value, y.value) for h in hs]
            solutions = ref_solve_affine(matrix, bit_vector(rs))
            z = solutions.index(y) ^ b
            key = novy_outcome_key(hs, rs, z, b, x)
            table[key] = table.get(key, 0.0) + weight
    return table


def ref_novy_attack_table(n, psi, p, early_measure=False):
    alpha, beta = psi
    tuples = ref_independent_row_tuples(n, n - 1)
    p_h = 1.0 / len(tuples)
    table = {}
    layout = RegisterLayout([("B", 1), ("X", n), ("Y", n)])
    base = init_state(layout).prepare_qubit("B", alpha, beta)
    base = base.uniform_superpose("X").coherent_eval(p.forward_int, ["X"], "Y")
    for hs in tuples:
        matrix = BitMatrix.from_rows(hs, n)
        h_ints = [h.value for h in hs]

        def rounds(s, prob, rs):
            if len(rs) < n - 1:
                for r, p_r, s_r in ref_branches(s, ["Y"], parity_fn(h_ints[len(rs)])):
                    rounds(s_r, prob * p_r, rs + [r])
                return
            y1 = ref_solve_affine(matrix, bit_vector(rs))[1].value
            for z, p_z, s_z in ref_branches(s, ["B", "Y"], lambda b, y: b ^ (y == y1)):
                for b, p_b, s_b in ref_branches(s_z, ["B"]):
                    for x, p_x, _ in ref_branches(s_b, ["X"]):
                        key = novy_outcome_key(hs, rs, z, b, BitVector.from_int(x, n))
                        table[key] = table.get(key, 0.0) + prob * p_z * p_b * p_x

        if early_measure:
            for _, p_bx, s0 in ref_branches(base, ["B", "X"]):
                rounds(s0, p_h * p_bx, [])
        else:
            rounds(base, p_h, [])
    return table


def ref_twop_honest_table(n, b, allow_zero_m1):
    bits = bit_strings(n)
    m1s = harness._m1_values(n, allow_zero_m1)
    weight = 1.0 / (len(m1s) * (1 << n))
    table = {}
    for m1 in m1s:
        for r in range(1 << n):
            z = r ^ m1 if b else r
            key = twop_outcome_key(bits[0], bits[m1], bits[z], b, bits[r], bits[r])
            table[key] = table.get(key, 0.0) + weight
    return table


def ref_twop_attack_table(n, psi, allow_zero_m1):
    alpha, beta = psi
    bits = bit_strings(n)
    m1s = harness._m1_values(n, allow_zero_m1)
    p_m = 1.0 / len(m1s)
    table = {}
    layout = RegisterLayout([("B", 1), ("R", n), ("Z", n), ("Rp", n)])
    base = init_state(layout).uniform_superpose("R").coherent_eval(lambda r: r, ["R"], "Rp")
    base = base.prepare_qubit("B", alpha, beta)
    for m1 in m1s:
        masks = (0, m1)
        s = base.coherent_eval(lambda b, r: r ^ masks[b], ["B", "R"], "Z")
        for z, p_z, s_z in ref_branches(s, ["Z"]):
            for b, p_b, s_b in ref_branches(s_z, ["B"]):
                for r, p_r, s_r in ref_branches(s_b, ["R"]):
                    for rp, p_rp, _ in ref_branches(s_r, ["Rp"]):
                        key = twop_outcome_key(bits[0], bits[m1], bits[z], b,
                                               bits[r], bits[rp])
                        table[key] = table.get(key, 0.0) + p_m * p_z * p_b * p_r * p_rp
    return table


@pytest.fixture(autouse=True)
def fresh_attack_rows():
    """Every test here walks the coherent commit itself: no rows memoised by
    an earlier test, which may share its inputs, stand in for a walk."""
    harness._novy_attack_rows.cache_clear()


def hexed(table):
    return {key: value.hex() for key, value in table.items()}


def ordered_hex(table):
    return [(key, value.hex()) for key, value in table.items()]


def seeded_inputs(n, seed):
    rng = Random(f"oracle-ref:{n}:{seed}")
    theta = rng.uniform(0, math.pi)
    phase = rng.uniform(0, 2 * math.pi)
    psi = (complex(math.cos(theta / 2)), cmath.exp(1j * phase) * math.sin(theta / 2))
    p = ToyPermutation(n, a=rng.randrange(1, 1 << n, 2), c=rng.randrange(1 << n))
    return psi, p


PAIRS = [(n, seed) for n in (2, 3) for seed in range(20)]


@pytest.mark.parametrize("n,seed", PAIRS, ids=[f"n{n}-s{s}" for n, s in PAIRS])
def test_novy_tables_bit_identical(n, seed):
    psi, p = seeded_inputs(n, seed)
    for b in (0, 1):
        fast = formatted("novy", n, harness._novy_honest_table(n, {b: 1.0}, p))
        assert hexed(fast) == hexed(ref_novy_honest_table(n, b, p))
    for early in (False, True):
        fast = formatted("novy", n, harness._novy_attack_table(n, psi, p, early_measure=early))
        assert hexed(fast) == hexed(ref_novy_attack_table(n, psi, p, early_measure=early))


@pytest.mark.parametrize("psi", [(1, 0), (0, -1)], ids=["zero", "one"])
def test_point_mass_inputs_bit_identical(psi):
    p = ToyPermutation(3, a=3, c=5)
    for early in (False, True):
        fast = formatted("novy", 3, harness._novy_attack_table(3, psi, p, early_measure=early))
        assert hexed(fast) == hexed(ref_novy_attack_table(3, psi, p, early_measure=early))


# A signed zero compares and hashes equal to 0.0 and changes only a sign,
# never a weight, so these psi give the same floats as their unsigned twins.
SIGNED_ZERO_PSI = [(complex(0.6, -0.0), complex(-0.0, 0.8)), (0.6, -0.8j),
                   (complex(-0.0, -0.6), complex(0.8, -0.0))]


@pytest.mark.parametrize("psi", SIGNED_ZERO_PSI, ids=["neg-zero-parts", "minus-i", "neg-zero-re"])
def test_signed_zero_inputs_bit_identical(psi):
    for n, p in ((2, ToyPermutation(2, a=3, c=1)), (3, ToyPermutation(3, a=7, c=2))):
        for early in (False, True):
            fast = formatted("novy", n, harness._novy_attack_table(n, psi, p, early_measure=early))
            assert hexed(fast) == hexed(ref_novy_attack_table(n, psi, p, early_measure=early))


def count_branches(monkeypatch, call):
    calls = 0
    branches = SparseState.branches

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return branches(self, *args)

    monkeypatch.setattr(SparseState, "branches", counted)
    call()
    return calls


def branches_calls(monkeypatch, early):
    psi, p = seeded_inputs(3, 7)
    return count_branches(monkeypatch,
                          lambda: harness._novy_attack_table(3, psi, p, early_measure=early))


def test_late_order_branches_one_path(monkeypatch):
    # At n = 3 one path branches the n - 1 = 2 rounds, then its leaf runs a
    # 7-call tail: z, B in each z branch, X in each (z, b) branch.
    assert branches_calls(monkeypatch, early=False) == 9


def test_early_order_runs_its_certain_steps_once_per_amplitude(monkeypatch):
    # One (B, X) branching, then n + 2 steps for each of the 2 amplitudes.
    assert branches_calls(monkeypatch, early=True) <= 11


def test_hash_systems_are_built_once_per_width():
    harness._novy_systems.cache_clear()
    for seed in range(3):
        for n in (2, 3):
            psi, p = seeded_inputs(n, seed)
            harness._novy_honest_table(n, {seed % 2: 1.0}, p)
            for early in (False, True):
                harness._novy_attack_table(n, psi, p, early_measure=early)
    info = harness._novy_systems.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (2, 2, harness.ENUM_MAX_N)
    systems = harness._novy_systems(3)
    assert isinstance(systems, tuple) and len(systems) == harness._tuple_count(3, 2) << 2


def walk_keys(n, p, bits):
    """The novy keys a plain walk gives: system by system, (a, b) ascending,
    each b in bits, with x the preimage of the system's solution y_a."""
    keys = []
    for prefix, *ys in harness._novy_systems(n):
        for a in (0, 1):
            for b in bits:
                keys.append(prefix | ((a ^ b) << 1 | b) << n | p.inverse_int(ys[a]))
    return keys


ORDER_PAIRS = [(n, seed) for n in (2, 3) for seed in range(4)]


@pytest.mark.parametrize("n,seed", ORDER_PAIRS, ids=[f"n{n}-s{s}" for n, s in ORDER_PAIRS])
def test_novy_tables_list_their_keys_in_walk_order(n, seed):
    # The paired TV, the pinned selftest TVs and the enumerate digests all read this order.
    psi, p = seeded_inputs(n, seed)
    attack = ScenarioConfig(protocol="novy-attack", n=n, psi=psi, perm_a=p.a, perm_c=p.c)
    exact = harness.exact_transcript_distribution
    tables = {"late": (exact(attack), (0, 1)),
              "early": (exact(attack, early_measure=True), (0, 1))}
    for b, mass in ((0, (1, 0)), (1, (0, -1))):
        honest = replace(attack, protocol="novy-honest", psi=None, b=b)
        tables[f"honest-b{b}"] = exact(honest), (b,)
        for early in (False, True):
            tables[f"point-mass-b{b}-early-{early}"] = (
                exact(replace(attack, psi=mass), early_measure=early), (b,))
    for q in (0, 0.5, 1):
        tables[f"mixture-q{q}"] = harness.mixed_honest_distribution(attack, q), (0, 1)
    for name, (table, bits) in tables.items():
        assert list(table) == walk_keys(n, p, bits), name


def test_one_configs_novy_checks_build_their_keys_once():
    # Equivalence and early vs late build four tables with one pi; both
    # concealment views and the attack view are packed from row weights and
    # read no keys. The late walk runs once for its table, its repeat in early
    # vs late and the attack view; the early walk once.
    psi, p = seeded_inputs(3, 5)
    attack = ScenarioConfig(protocol="novy-attack", n=3, psi=psi, perm_a=p.a, perm_c=p.c)
    harness._novy_keys.cache_clear()
    assert harness.compare_distributions(
        harness.exact_transcript_distribution(attack),
        harness.mixed_honest_distribution(attack, abs(psi[1]) ** 2)) < 1e-10
    assert harness.compare_distributions(
        harness.exact_transcript_distribution(attack),
        harness.exact_transcript_distribution(attack, early_measure=True)) < 1e-10
    views = [harness.bob_view_distribution(replace(attack, protocol="novy-honest", psi=None, b=b))
             for b in (0, 1)]
    assert harness.compare_distributions(*views) < 1e-12
    assert harness.compare_distributions(harness.bob_view_distribution(attack), views[0]) < 1e-12
    info = harness._novy_keys.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 3, harness.ENUM_MAX_N)
    walks = harness._novy_attack_rows.cache_info()
    assert (walks.misses, walks.hits, walks.currsize) == (2, 2, 2)
    for seed in range(4):
        harness.exact_transcript_distribution(replace(attack, perm_a=2 * seed + 1, perm_c=seed))
    assert harness._novy_keys.cache_info().currsize == harness.ENUM_MAX_N


def test_novy_views_build_no_table_and_read_no_keys(monkeypatch):
    psi, p = seeded_inputs(3, 5)
    attack = ScenarioConfig(protocol="novy-attack", n=3, psi=psi, perm_a=p.a, perm_c=p.c)
    harness.exact_transcript_distribution(attack)  # fill the keys of this (n, pi)
    before = harness._novy_keys.cache_info()

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(harness, "_systems_table", refuse)
    for config in (attack, replace(attack, protocol="novy-honest", psi=None, b=1)):
        assert sum(harness.bob_view_distribution(config).values()) == pytest.approx(1.0)
    assert harness._novy_keys.cache_info() == before


# Every (a, c) a novy config takes at each enumerable width.
NOVY_PERMS = {n: [(a, c) for a in range(1, 1 << n, 2) for c in range(1 << n)] for n in (2, 3)}


@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("n", [2, 3])
def test_novy_honest_view_is_the_same_under_every_perm(n, b):
    # Bob never sees x, so pi leaves his view as it is, float for float.
    views = [ordered_hex(harness.bob_view_distribution(ScenarioConfig(
        protocol="novy-honest", n=n, b=b, perm_a=a, perm_c=c))) for a, c in NOVY_PERMS[n]]
    assert all(view == views[0] for view in views[1:])


@pytest.mark.parametrize("allow_zero_m1", [False, True], ids=["nonzero-m1", "any-m1"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_twop_attack_table_bit_identical_in_order(n, allow_zero_m1):
    psis = [seeded_inputs(n, seed)[0] for seed in range(20)] + [(1, 0), (0, -1)]
    for psi in psis + SIGNED_ZERO_PSI:
        fast = formatted("2p", n, harness._twop_attack_table(n, psi, allow_zero_m1))
        assert ordered_hex(fast) == ordered_hex(ref_twop_attack_table(n, psi, allow_zero_m1))


def twop_branches_calls(monkeypatch, n, psi):
    return count_branches(monkeypatch, lambda: harness._twop_attack_table(n, psi, False))


@pytest.mark.parametrize("n", [2, 3])
def test_twop_attack_runs_each_tail_shape_once(monkeypatch, n):
    # One Z branching, for m_1 = 1, then a 5-call tail (B, then R and Rp
    # in each B branch) for each of the two label orders of a z class.
    assert twop_branches_calls(monkeypatch, n, seeded_inputs(n, 7)[0]) == 11


def test_twop_attack_point_mass_has_one_tail_shape(monkeypatch):
    # Each z class holds one B = 0 label: one Z branching, then a 3-call
    # tail (B, R, Rp) for each of the two label orders.
    assert twop_branches_calls(monkeypatch, 2, (1, 0)) == 7


def test_twop_attack_rejects_two_labels_of_one_b_value(monkeypatch):
    # Rp starts in (|0> + |1>)/sqrt(2), so each B block holds two labels of
    # each rp, and each z class two labels of each B value, one per rp.
    def spread_rp(layout):
        return SparseState(layout, {0: complex(math.sqrt(0.5)), 1: complex(math.sqrt(0.5))})

    monkeypatch.setattr(harness, "init_state", spread_rp)
    with pytest.raises(ValueError, match="B block 0 holds 8 labels on 4 Rp values"):
        harness._twop_attack_table(2, (0.6, 0.8j), False)


def test_twop_attack_rejects_an_r_left_unsuperposed(monkeypatch):
    # R stays 0, so each B block holds one label, not one per rp, and the
    # z classes would not each hold one label per B value.
    monkeypatch.setattr(SparseState, "uniform_superpose", lambda self, reg: self)
    with pytest.raises(ValueError, match="B block 0 holds 1 labels on 1 Rp values"):
        harness._twop_attack_table(2, (0.6, 0.8j), False)


def test_twop_attack_rejects_rp_apart_from_r(monkeypatch):
    # Rp starts at 1, so each z class holds (b, r, z, r ^ 1), whose rp is
    # not the z ^ m_b the table keys every other m_1's classes with.
    monkeypatch.setattr(harness, "init_state",
                        lambda layout: SparseState(layout, {1: complex(1.0)}))
    with pytest.raises(ValueError, match="not \\(b, r, z, r\\)"):
        harness._twop_attack_table(2, (0.6, 0.8j), False)


def test_twop_attack_rejects_a_block_of_two_amplitudes(monkeypatch):
    # Swap the amplitudes of (b, r) = (0, 0) and (1, 0): each block then
    # holds two amplitudes, so one class's floats no longer give its order's.
    prepare = SparseState.prepare_qubit

    def swapped(self, reg, alpha, beta):
        s = prepare(self, reg, alpha, beta)
        hi = 1 << (s.layout.total_bits - 1)
        amps = dict(s.amps)
        amps[0], amps[hi] = amps[hi], amps[0]
        return SparseState(s.layout, amps)

    monkeypatch.setattr(SparseState, "prepare_qubit", swapped)
    with pytest.raises(ValueError, match="B block 0 holds 2 amplitudes, not one"):
        harness._twop_attack_table(2, (0.6, 0.8j), False)


@pytest.mark.parametrize("widths", [range(1, 17), range(17, 41), range(41, 65), (256,)],
                         ids=["n1-16", "n17-40", "n41-64", "n256"])
def test_sampler_matches_reference_rows_and_rng_use(widths):
    for n in widths:
        for seed in range(2 if n == 256 else 6):
            for m in sorted({0, n // 2, n - 1, n}):
                rng, ref_rng = Random(f"sampler:{n}:{seed}:{m}"), Random(f"sampler:{n}:{seed}:{m}")
                got = BitMatrix.from_rows(gf2.sample_independent_rows(m, n, rng), n)
                assert got == ref_sample_independent_rows(m, n, ref_rng)
                assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 32, 64])
def test_rank_matches_reference(n):
    rng = Random(f"rank:{n}")
    for _ in range(100):
        m = rng.randint(0, 2 * n + 2)  # often m > n
        pool = [rng.getrandbits(n) for _ in range(rng.randint(1, n + 1))]
        rows = [rng.choice(pool) ^ (rng.choice(pool) if rng.random() < 0.5 else 0)
                if rng.random() < 0.5 else rng.getrandbits(n) for _ in range(m)]
        H = BitMatrix.from_rows([BitVector.from_int(v, n) for v in rows], n)
        assert echelon_rank(H) == ref_rank(H)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33, 64])
def test_honest_index_matches_the_solver(n):
    # Alice reads a off the kernel vector; Bob's solver must agree.
    rng = Random(f"honest-index:{n}")
    for _ in range(40):
        p = ToyPermutation(n, a=rng.randrange(1, 1 << n, 2), c=rng.randrange(1 << n))
        st = novy.honest_commit(rng.getrandbits(1), n, p, Random(rng.getrandbits(32)))
        H, r = BitMatrix.from_rows(st.hashes, n), bit_vector(st.responses)
        assert st.a == [y.value for y in echelon_solve_affine(H, r)].index(st.y)
        assert st.a == [y.value for y in ref_solve_affine(H, r)].index(st.y)


def random_system(rng, n):
    """A random system with n <= 10: dependent rows and inconsistent
    right-hand sides are common, full rank is not forced."""
    m = rng.randint(0, n)
    pool = [rng.getrandbits(n) for _ in range(rng.randint(1, max(1, m)))]
    rows = [rng.choice(pool) if rng.random() < 0.4 else rng.getrandbits(n) for _ in range(m)]
    H = BitMatrix.from_rows([BitVector.from_int(v, n) for v in rows], n)
    return H, BitVector.from_int(rng.getrandbits(m) if m else 0, m)


@pytest.mark.parametrize("n", range(1, 11))
def test_solver_matches_reference(n):
    rng = Random(f"solver:{n}")
    seen = {"inconsistent": 0, "deficient": 0, "empty": 0}
    for _ in range(300):
        H, r = random_system(rng, n)
        got = echelon_solve_affine(H, r)
        assert got == ref_solve_affine(H, r)
        seen["inconsistent"] += not got
        seen["deficient"] += echelon_rank(H) < H.m
        seen["empty"] += H.m == 0
    assert all(seen.values()), seen


@pytest.mark.parametrize("case", list(FUSED_CASES))
@pytest.mark.parametrize("seed", range(12))
def test_one_pass_branches_match_reference_grouping(case, seed):
    regs, f, _ = FUSED_CASES[case]
    s = random_state(Random(seed))
    for fn in (f, None):
        got = s.branches(regs, fn)
        ref = ref_branches(s, regs, fn)
        assert [(v, p) for v, p, _ in got] == [(v, p) for v, p, _ in ref]
        for (_, _, post), (_, _, ref_post) in zip(got, ref):
            assert post.layout == ref_post.layout
            assert list(post.amps.items()) == list(ref_post.amps.items())


def assert_same_branches(got, ref):
    assert [(v, p) for v, p, _ in got] == [(v, p) for v, p, _ in ref]
    for (_, _, post), (_, _, ref_post) in zip(got, ref):
        assert post.layout == ref_post.layout
        assert list(post.amps.items()) == list(ref_post.amps.items())


def point_mass(seed):
    rng = Random(seed)
    layout = RegisterLayout([("B", 1), ("X", 2), ("Y", 3)])
    amp = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return SparseState(layout, {rng.randrange(64): amp / abs(amp)})


def single_outcome(seed):
    """Four labels with the same B and X, each Y of even weight."""
    rng = Random(seed)
    layout = RegisterLayout([("B", 1), ("X", 2), ("Y", 3)])
    labels = [0b1_10_000 | y for y in (0b000, 0b011, 0b101, 0b110)]
    amps = {label: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for label in labels}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return SparseState(layout, {label: a / norm for label, a in amps.items()})


# Register lists of the (B:1, X:2, Y:3) layout that branches reads without f.
REGISTER_LISTS = {
    "adjacent": ["B", "X"], "adjacent-low": ["X", "Y"], "non-adjacent": ["B", "Y"],
    "reversed": ["Y", "B"], "reversed-adjacent": ["X", "B"], "all": ["B", "X", "Y"],
    "all-reversed": ["Y", "X", "B"], "none": [],
}


@pytest.mark.parametrize("regs", list(REGISTER_LISTS.values()), ids=list(REGISTER_LISTS))
@pytest.mark.parametrize("seed", range(12))
def test_multi_register_branches_match_the_packing_closure(regs, seed):
    s = random_state(Random(seed))
    assert_same_branches(s.branches(regs), ref_branches(s, regs))


@pytest.mark.parametrize("n", [2, 3])
def test_early_walk_branches_match_the_packing_closure(n):
    psi, p = seeded_inputs(n, 1)
    layout = cached_layout((("B", 1), ("X", n), ("Y", n)))
    base = init_state(layout).prepare_qubit("B", *psi).uniform_superpose("X")
    base = base.coherent_eval(p.forward_int, ["X"], "Y")
    for regs in (["B", "X"], ["X", "B"], ["B", "Y"], ["B", "X", "Y"]):
        assert_same_branches(base.branches(regs), ref_branches(base, regs))


@pytest.mark.parametrize("make", [point_mass, single_outcome])
@pytest.mark.parametrize("seed", range(6))
def test_branches_of_one_outcome_match_reference(make, seed):
    s = make(seed)
    for regs, f in [(["B"], None), (["B", "X"], None), (["X"], lambda x: x >> 1),
                    (["Y"], lambda y: y.bit_count() & 1)]:
        got = s.branches(regs, f)
        assert len(got) == 1
        assert_same_branches(got, ref_branches(s, regs, f))
    for case in FUSED_CASES.values():
        assert_same_branches(s.branches(case[0], case[1]), ref_branches(s, case[0], case[1]))


def ref_mixed(n, p, q):
    table = {}
    for b, weight in ((0, 1.0 - q), (1, q)):
        for key, prob in ref_novy_honest_table(n, b, p).items():
            table[key] = table.get(key, 0.0) + weight * prob
    return table


def ref_twop_mixed(n, allow_zero_m1, q):
    table = {}
    for b, weight in ((0, 1.0 - q), (1, q)):
        for key, prob in ref_twop_honest_table(n, b, allow_zero_m1).items():
            table[key] = table.get(key, 0.0) + weight * prob
    return table


def ref_view(n, b, p):
    table = {}
    for key, prob in ref_novy_honest_table(n, b, p).items():
        view = key.split(" b=")[0]
        table[view] = table.get(view, 0.0) + prob
    return table


@pytest.mark.parametrize("n,seed", PAIRS, ids=[f"n{n}-s{s}" for n, s in PAIRS])
def test_novy_compositions_bit_identical(n, seed):
    psi, p = seeded_inputs(n, seed)
    q = abs(psi[1]) ** 2
    config = ScenarioConfig(protocol="novy-attack", n=n, psi=psi, perm_a=p.a, perm_c=p.c).validate()
    layout = harness.outcome_layout(config)
    mixed = harness.outcome_strings(layout, harness.mixed_honest_distribution(config, q))
    assert hexed(mixed) == hexed(ref_mixed(n, p, q))
    for b in (0, 1):
        honest = ScenarioConfig(protocol="novy-honest", n=n, b=b, perm_a=p.a, perm_c=p.c)
        view = harness.outcome_strings(view_layout(layout), harness.bob_view_distribution(honest))
        assert hexed(view) == hexed(ref_view(n, b, p))


@pytest.mark.parametrize("q", [0, 0.3, 0.5, 1, -0.0], ids=["0", "0.3", "0.5", "1", "neg-zero"])
@pytest.mark.parametrize("allow_zero_m1", [False, True], ids=["nonzero-m1", "any-m1"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_twop_mixture_is_the_two_table_merge(n, allow_zero_m1, q):
    config = ScenarioConfig(protocol="2p-attack", n=n, psi=(0.6, 0.8j),
                            allow_zero_m1=allow_zero_m1).validate()
    got = formatted("2p", n, harness.mixed_honest_distribution(config, q))
    assert ordered_hex(got) == ordered_hex(ref_twop_mixed(n, allow_zero_m1, q))
    for b in (0, 1):
        honest = replace(config, protocol="2p-honest", psi=None, b=b)
        assert ordered_hex(formatted("2p", n, harness.exact_transcript_distribution(honest))) == \
            ordered_hex(ref_twop_honest_table(n, b, allow_zero_m1))


@pytest.mark.parametrize("q", [0, 1, -0.0], ids=["0", "1", "neg-zero"])
@pytest.mark.parametrize("n", [2, 3])
def test_novy_mixture_at_the_ends_is_the_two_table_merge(n, q):
    # The other bit's keys stay, with 0.0, never -0.0.
    psi, p = seeded_inputs(n, 3)
    config = ScenarioConfig(protocol="novy-attack", n=n, psi=psi, perm_a=p.a, perm_c=p.c)
    got = formatted("novy", n, harness.mixed_honest_distribution(config, q))
    assert hexed(got) == hexed(ref_mixed(n, p, q))
    assert len(got) == 2 * len(ref_novy_honest_table(n, 0, p))


@pytest.mark.parametrize("protocol", ["novy-attack", "2p-attack", "2p-honest"])
@pytest.mark.parametrize("n,q,match", [(3, 1.5, "q must be a probability"),
                                       (3, math.nan, "q must be a probability"),
                                       (3, "0.5", "q must be a probability"),
                                       (3, None, "q must be a probability"),
                                       (3, 0.5 + 0j, "q must be a probability"),
                                       (3, True, "q must be a probability"),
                                       (4, 0.5, "enumeration bound exceeded")],
                         ids=["q-above-1", "q-nan", "q-str", "q-none", "q-complex", "q-bool",
                              "too-wide"])
def test_mixture_refuses_before_any_table_work(monkeypatch, protocol, n, q, match):
    def refuse(*args):
        raise AssertionError("a table was built")

    for name in ("_novy_honest_table", "_twop_honest_table", "_systems_table", "_novy_systems"):
        monkeypatch.setattr(harness, name, refuse)
    inputs = {"b": 1} if protocol.endswith("honest") else {"psi": (0.6, 0.8j)}
    config = ScenarioConfig(protocol=protocol, n=n, perm_a=5, perm_c=3, **inputs).validate()
    with pytest.raises(ConfigError, match=match):
        harness.mixed_honest_distribution(config, q)


@pytest.mark.parametrize("protocol,inputs,match", [
    ("2p-honest", {"b": 5}, "honest scenarios take b in"),
    ("2p-attack", {"psi": (1, 1)}, "psi must be normalized"),
    ("novy-attack", {}, "attack scenarios take psi, not b"),
    ("novy-honest", {"b": 0, "psi": (0.6, 0.8)}, "honest scenarios take b in"),
], ids=["2p-honest-b5", "2p-attack-unnormalized", "novy-attack-no-psi", "novy-honest-psi"])
def test_mixture_refuses_a_config_validate_refuses(monkeypatch, protocol, inputs, match):
    # The mixture rebuilt an honest config, with b = 0 and no psi, before it
    # validated, and so returned a table for each of these. Now the config is
    # refused when it is made, before the mixture can run.
    def refuse(*args):
        raise AssertionError("a table was built")

    for name in ("_novy_honest_table", "_twop_honest_table", "_systems_table", "_novy_systems"):
        monkeypatch.setattr(harness, name, refuse)
    with pytest.raises(ConfigError, match=match):
        harness.mixed_honest_distribution(ScenarioConfig(protocol=protocol, n=3, **inputs), 0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_novy_systems_are_the_solution_pairs(n):
    systems = []
    for rows in ref_independent_row_tuples(n, n - 1):
        matrix = BitMatrix.from_rows(rows, n)
        for rs in itertools.product((0, 1), repeat=n - 1):
            ys = [v.value for v in echelon_solve_affine(matrix, bit_vector(rs))]
            # The H bits, row by row, then the R bits; Z, B and X below are zero.
            bits = "".join(map(str, rows)) + "".join(map(str, rs)) + "0" * (n + 2)
            systems.append((int(bits, 2), *ys))
    assert harness._novy_systems.__wrapped__(n) == tuple(systems)


def label_configs():
    """Every protocol at every width up to ENUM_MAX_N, with seeded psi and
    perms, and both m_1 rules for 2p, by test id."""
    configs = {}
    for n in range(1, harness.ENUM_MAX_N + 1):
        for seed in range(3):
            psi, p = seeded_inputs(n, seed)
            for protocol in harness.PROTOCOLS:
                inputs = {"psi": psi} if protocol.endswith("attack") else {"b": seed % 2}
                name = f"{protocol}-n{n}-s{seed}"
                if protocol.startswith("2p"):
                    for allow in (False, True):
                        configs[f"{name}-{'any' if allow else 'nonzero'}-m1"] = ScenarioConfig(
                            protocol=protocol, n=n, allow_zero_m1=allow, **inputs)
                elif n > 1:
                    configs[name] = ScenarioConfig(protocol=protocol, n=n, perm_a=p.a,
                                                   perm_c=p.c, **inputs)
    return configs


LABEL_CONFIGS = label_configs()


def old_view(config):
    """Bob's view as it was defined on string keys: the formatted exact
    table with each key cut at its unveiled `` b=`` and the rest summed in
    table order."""
    table = harness.outcome_strings(harness.outcome_layout(config),
                                    harness.exact_transcript_distribution(config))
    view = {}
    for key, prob in table.items():
        cut = key.partition(" b=")[0]
        view[cut] = view.get(cut, 0.0) + prob
    return view


RT2 = math.sqrt(0.5)
# Basis states, H, (1, i)/sqrt(2), a real and an imaginary part, one
# amplitude near 0 on either side, and signed zeros.
VIEW_PSI = [(1, 0), (0, 1), (RT2, RT2), (RT2, 1j * RT2), (0.6, 0.8j), (1.0, 5e-12),
            (5e-13j, -1.0), *SIGNED_ZERO_PSI]


def view_configs():
    """Each LABEL_CONFIGS config alone, and every enumerable novy config,
    grouped by (n, a, c): honest with b = 0 and 1, and attack with each
    VIEW_PSI and 16 seeded psi; by test id."""
    configs = {name: (config,) for name, config in LABEL_CONFIGS.items()}
    for n, perms in NOVY_PERMS.items():
        seeded = [seeded_inputs(n, seed)[0] for seed in range(16)]
        for a, c in perms:
            honest = ScenarioConfig(protocol="novy-honest", n=n, b=0, perm_a=a, perm_c=c)
            configs[f"novy-n{n}-a{a}-c{c}"] = (
                honest, replace(honest, b=1),
                *(replace(honest, protocol="novy-attack", b=None, psi=psi)
                  for psi in VIEW_PSI + seeded))
    return configs


VIEW_CONFIGS = view_configs()


@pytest.mark.parametrize("name", list(VIEW_CONFIGS))
def test_view_is_the_cut_of_the_formatted_table(name):
    # The same keys, in the same order, with float.hex-equal values.
    for config in VIEW_CONFIGS[name]:
        layout = view_layout(harness.outcome_layout(config))
        view = harness.outcome_strings(layout, harness.bob_view_distribution(config))
        assert ordered_hex(view) == ordered_hex(old_view(config)), config


@pytest.mark.parametrize("name", list(LABEL_CONFIGS))
def test_labels_fit_the_layout_and_format_apart(name):
    config = LABEL_CONFIGS[name]
    layout = harness.outcome_layout(config)
    tables = [harness.exact_transcript_distribution(config)]
    if config.is_attack:
        tables.append(harness.mixed_honest_distribution(config, abs(config.psi[1]) ** 2))
    if config.protocol == "novy-attack":
        tables.append(harness.exact_transcript_distribution(config, early_measure=True))
    pairs = [(layout, table) for table in tables]
    pairs.append((view_layout(layout), harness.bob_view_distribution(config)))
    for fields, table in pairs:
        assert all(0 <= label < 1 << fields.total_bits for label in table)
        assert len(harness.outcome_strings(fields, table)) == len(table)


def test_early_order_rejects_a_branch_that_is_not_a_point_mass(monkeypatch):
    # Y starts in (|0> + |1>)/sqrt(2), so each (b, x) branch keeps two labels.
    def spread_y(layout):
        return SparseState(layout, {0: complex(math.sqrt(0.5)), 1: complex(math.sqrt(0.5))})

    monkeypatch.setattr(harness, "init_state", spread_y)
    p = ToyPermutation(3, a=3, c=5)
    with pytest.raises(ValueError, match="not a point mass"):
        harness._novy_attack_table(3, (0.6, 0.8j), p, early_measure=True)


def test_early_order_rejects_two_x_of_one_block_weighing_apart(monkeypatch):
    # X = 0 weighs three times X = 1, so one float per (a, b) row would misweigh a key.
    def skewed_x(self, reg):
        shift, _, width = self.layout.spec(reg)
        amps = [math.sqrt(1.5), math.sqrt(0.5)] + [1.0] * ((1 << width) - 2)
        return SparseState(self.layout, {label | v << shift: amp * a / math.sqrt(1 << width)
                                         for label, amp in self.amps.items()
                                         for v, a in enumerate(amps)})

    monkeypatch.setattr(SparseState, "uniform_superpose", skewed_x)
    p = ToyPermutation(3, a=3, c=5)
    with pytest.raises(ValueError, match=r"\(B, X\) = 1 weighs .*, not its block's"):
        harness._novy_attack_table(3, (0.6, 0.8j), p, early_measure=True)


def test_late_order_rejects_a_tail_that_is_not_a_point_mass(monkeypatch):
    # Y starts in (|0> + |1>)/sqrt(2), so each (z, b) branch keeps two X values.
    def spread_y(layout):
        return SparseState(layout, {0: complex(math.sqrt(0.5)), 1: complex(math.sqrt(0.5))})

    monkeypatch.setattr(harness, "init_state", spread_y)
    p = ToyPermutation(3, a=3, c=5)
    with pytest.raises(ValueError, match="not a point mass"):
        harness._novy_attack_table(3, (0.6, 0.8j), p)


def test_late_order_rejects_two_amplitudes_in_a_block(monkeypatch):
    # Y starts in 0.6|0> + 0.8|1>, so each B block holds two amplitudes, and
    # one path would no longer give every class's floats.
    def skewed_y(layout):
        return SparseState(layout, {0: complex(0.6), 1: complex(0.8)})

    monkeypatch.setattr(harness, "init_state", skewed_y)
    p = ToyPermutation(3, a=3, c=5)
    with pytest.raises(ValueError, match="2 amplitudes, not one"):
        harness._novy_attack_table(3, (0.6, 0.8j), p)


# psi that hash and compare equal, and so share a memo entry, though their
# parts differ in sign or type: each group's rows must be the same floats.
EQUAL_PSI = {
    "one-zero": [(1, 0), (1.0, -0.0), (1 + 0j, 0j)],
    "signed-zero-one": [(-0.0, 1), (0.0, 1)],
    "signed-zero-parts": [(0.6, 0.8j), (complex(0.6, -0.0), complex(-0.0, 0.8))],
}
MEMO_PERMS = {2: ToyPermutation(2, a=3, c=1), 3: ToyPermutation(3, a=7, c=2)}


def hexed_rows(rows):
    return [(row, weight.hex()) for row, weight in rows]


@pytest.mark.parametrize("early", [False, True], ids=["late", "early"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("group", list(EQUAL_PSI))
def test_memoised_rows_match_a_fresh_walk_for_every_equal_psi(group, n, early):
    rows = harness._novy_attack_rows
    p = MEMO_PERMS[n]
    for first, second in itertools.permutations(EQUAL_PSI[group], 2):
        rows.cache_clear()
        rows(n, first, p, early)
        served = rows(n, second, p, early)
        assert rows.cache_info().hits == 1
        assert isinstance(served, tuple)
        assert hexed_rows(served) == hexed_rows(rows.__wrapped__(n, second, p, early))


def test_a_walk_that_raises_raises_again(monkeypatch):
    def spread_y(layout):
        return SparseState(layout, {0: complex(math.sqrt(0.5)), 1: complex(math.sqrt(0.5))})

    monkeypatch.setattr(harness, "init_state", spread_y)
    p = ToyPermutation(3, a=3, c=5)
    for early in (False, True):
        for _ in range(2):
            with pytest.raises(ValueError, match="not a point mass"):
                harness._novy_attack_table(3, (0.6, 0.8j), p, early_measure=early)
    assert harness._novy_attack_rows.cache_info().currsize == 0


def test_another_pi_order_or_width_misses_the_memo():
    rows = harness._novy_attack_rows
    psi = (0.6, 0.8j)
    rows(3, psi, MEMO_PERMS[3], False)
    others = [(3, psi, ToyPermutation(3, a=3, c=5), False), (3, psi, MEMO_PERMS[3], True),
              (2, psi, MEMO_PERMS[2], False)]
    for inputs in others:
        rows(*inputs)
    info = rows.cache_info()
    assert (info.hits, info.misses) == (0, 4)
    assert 1 <= info.maxsize <= 8


def oracle_calls():
    psi, p = seeded_inputs(3, 7)
    attack = ScenarioConfig(protocol="novy-attack", n=3, psi=psi, perm_a=p.a, perm_c=p.c).validate()
    twop = ScenarioConfig(protocol="2p-attack", n=2, psi=psi).validate()
    twop3 = replace(twop, n=3, allow_zero_m1=True)
    calls = {
        "novy-honest-table": lambda: harness._novy_honest_table(3, {1: 1.0}, p),
        "novy-mixed-table": lambda: harness._novy_honest_table(3, {0: 0.7, 1: 0.3}, p),
        "novy-late-table": lambda: harness._novy_attack_table(3, psi, p),
        "novy-early-table": lambda: harness._novy_attack_table(3, psi, p, early_measure=True),
        "2p-honest-table": lambda: harness._twop_honest_table(2, {1: 1.0}, False),
        "2p-mixed-table": lambda: harness._twop_honest_table(3, {0: 0.7, 1: 0.3}, True),
        "2p-attack-table": lambda: harness._twop_attack_table(2, psi, False),
        "2p-attack-table-n3": lambda: harness._twop_attack_table(3, psi, True),
        "mixed": lambda: harness.mixed_honest_distribution(attack, 0.3),
        "2p-mixed": lambda: harness.mixed_honest_distribution(twop3, 0.3),
        "view": lambda: harness.bob_view_distribution(
            ScenarioConfig(protocol="novy-honest", n=3, b=0, perm_a=p.a, perm_c=p.c)),
        "row-tuples": lambda: harness._novy_systems.__wrapped__(3),
    }
    for config in (attack, twop):
        for protocol in (config.protocol, config.protocol.replace("attack", "honest")):
            honest = protocol.endswith("honest")
            c = replace(config, protocol=protocol, psi=None if honest else config.psi,
                        b=0 if honest else None)
            calls[f"exact-{protocol}"] = lambda c=c: harness.exact_transcript_distribution(c)
    calls["exact-novy-early"] = lambda: harness.exact_transcript_distribution(attack, early_measure=True)
    return calls


@pytest.mark.parametrize("name", list(oracle_calls()))
def test_oracles_leave_no_cyclic_garbage(name):
    call = oracle_calls()[name]
    call()  # fill the program's caches first
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# sha256 of `bcsim enumerate --config <file>` stdout for each config.
ENUMERATE_GOLDEN = {
    "novy-honest": ({"protocol": "novy-honest", "n": 3, "b": 1, "perm": {"a": 3, "c": 5}},
                    "33e204543b716cf41a6c09351a642c6e928bbddbab210b4a85f41d07f6770e49"),
    "novy-attack": ({"protocol": "novy-attack", "n": 3, "psi": {"alpha": 0.6, "beta": [0, 0.8]},
                     "perm": {"a": 7, "c": 2}},
                    "72313a99bdf9dc104ee031f33c65a7a1754239e721ebbb59d4abdc0164599660"),
    "2p-honest": ({"protocol": "2p-honest", "n": 2, "b": 1, "allow_zero_m1": True},
                  "329d728c545b425ec3f9f69dd89442cf86441a34a4b9836e6dd6cde5d7a009e9"),
    "2p-attack": ({"protocol": "2p-attack", "n": 2, "psi": {"alpha": 0.6, "beta": [0, 0.8]}},
                  "5c2302202e55d506bfc7901aec6e57267d57cb924d28d149ddac362cd702052b"),
}


@pytest.mark.parametrize("name", list(ENUMERATE_GOLDEN))
def test_enumerate_output_digest(name, tmp_path, capsys):
    raw, digest = ENUMERATE_GOLDEN[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["enumerate", "--config", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_oracle_checks_still_hold():
    # The tables still show the paper's equivalence and early-vs-late results.
    psi, p = seeded_inputs(3, 99)
    config = ScenarioConfig(protocol="novy-attack", n=3, psi=psi, perm_a=p.a, perm_c=p.c)
    late = harness.exact_transcript_distribution(config)
    early = harness.exact_transcript_distribution(config, early_measure=True)
    honest = harness.mixed_honest_distribution(config, abs(psi[1]) ** 2)
    assert harness.compare_distributions(late, early) < 1e-10
    assert harness.compare_distributions(late, honest) < 1e-10


def ref_compare_distributions(p, q):
    """The TV as one lookup in q per key of p, then the keys only q has."""
    total = sum(abs(v - q.get(k, 0.0)) for k, v in p.items())
    if not q.keys() <= p.keys():
        total += sum(abs(v) for k, v in q.items() if k not in p)
    return 0.5 * total


@st.composite
def table_pair(draw, kind):
    """Two float tables whose keys are in the same order, permuted, one a
    subset of the other's (either side, in any order) or disjoint."""
    keys = draw(st.lists(st.integers(0, 1 << 12), unique=True, max_size=48))
    if kind == "same order":
        other = list(keys)
    elif kind == "permuted":
        other = draw(st.permutations(keys))
    elif kind == "subset":
        other = draw(st.permutations([k for k in keys if draw(st.booleans())]))
    else:
        other = draw(st.lists(st.integers(1 << 13, 1 << 14), unique=True, max_size=48))
    values = st.one_of(st.floats(0.0, 1.0), st.floats())
    p = {k: draw(values) for k in keys}
    q = {k: draw(values) for k in other}
    return (q, p) if draw(st.booleans()) else (p, q)


@pytest.mark.parametrize("kind", ["same order", "permuted", "subset", "disjoint"])
@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_tv_matches_the_lookup_loop_bit_for_bit(kind, data):
    p, q = data.draw(table_pair(kind))
    assert harness.compare_distributions(p, q).hex() == ref_compare_distributions(p, q).hex()


class NoLookup(dict):
    def get(self, key, default=None):
        raise AssertionError(f"looked up {key!r}")


def oracle_pairs(n, seed):
    """The (p, q) table pairs the exact checks compare at width n."""
    psi, p = seeded_inputs(n, seed)
    q = abs(psi[1]) ** 2
    novy_attack = ScenarioConfig(protocol="novy-attack", n=n, psi=psi, perm_a=p.a, perm_c=p.c)
    twop_attack = ScenarioConfig(protocol="2p-attack", n=n, psi=psi)
    late = harness.exact_transcript_distribution(novy_attack)
    return {
        "late-early": (late, harness.exact_transcript_distribution(novy_attack, early_measure=True)),
        "novy-mixture": (late, harness.mixed_honest_distribution(novy_attack, q)),
        "2p-mixture": (harness.exact_transcript_distribution(twop_attack),
                       harness.mixed_honest_distribution(twop_attack, q)),
        "novy-views": tuple(harness.bob_view_distribution(replace(
            novy_attack, protocol="novy-honest", psi=None, b=b)) for b in (0, 1)),
        "2p-views": tuple(harness.bob_view_distribution(replace(
            twop_attack, protocol="2p-honest", psi=None, b=b)) for b in (0, 1)),
    }


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_oracle_tvs_match_the_lookup_loop_bit_for_bit(n, seed):
    for name, (p, q) in oracle_pairs(n, seed).items():
        assert harness.compare_distributions(p, q).hex() == ref_compare_distributions(p, q).hex(), name


def test_tables_in_one_order_are_paired_without_lookups():
    pairs = oracle_pairs(3, 0)
    for name in ("late-early", "novy-mixture"):
        p, q = pairs[name]
        assert list(p) == list(q), name
        assert harness.compare_distributions(p, NoLookup(q)) == ref_compare_distributions(p, q)
    # A 2p mixture, and the views of b = 0 and b = 1, hold the same keys in another order.
    for name in ("2p-mixture", "novy-views", "2p-views"):
        p, q = pairs[name]
        assert p.keys() == q.keys() and list(p) != list(q), name
        with pytest.raises(AssertionError, match="looked up"):
            harness.compare_distributions(p, NoLookup(q))
