"""Two-prover bit commitment: honest protocol and its entangled attack.

Honestly, Alice and Alyson agree on a random string r before being
separated; committing to b means sending z = r XOR m_b for Bob's
announced masks m_0 = 0^n, m_1. The attack replaces the shared string by
n correlated register pairs, evaluates z coherently, and measures only
z. Both provers can then unveil consistent values without talking, or,
once allowed back together, uncompute their registers and return the
input qubit.

Every label of the pairs with B prepared holds one of two amplitudes, one
per value of B, so attack_commit draws z from those two alone and builds
a SparseState only for the two labels z leaves. Those block amplitudes
and a z class's two weights depend on psi and n alone, so they are built
once per (psi, n). The running sums of z's weights depend on m_1 only
through its leading bit, so they are kept per (psi, n, leading bit), made
only as far as a trial's draw has needed, and each trial bisects them.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, cycle, islice, repeat
from random import Random
from typing import Iterator

from .engine import (ALICE, ALYSON, BOB, COMMIT, INIT, RECOVER, TWO_PROVER, TWO_PROVER_LINKS,
                     UNVEIL, WAIT, ConfigError, Phase, SeparationBreachError, Transcript,
                     check_scenario)
from .gf2 import BitVector
from .qsim import (RegisterLayout, SparseState, block_amplitudes, cached_layout, check_weight,
                   choose, psi_from_key, psi_key, repeated_weight, unchecked_state)


@dataclass
class TwoProverHonestState:
    r: BitVector
    r_prime: BitVector
    m1: BitVector
    b: int
    z: BitVector
    transcript: Transcript
    phase: Phase = WAIT


@dataclass
class TwoProverAttackState:
    n: int
    state: SparseState
    m1: BitVector
    z: BitVector
    transcript: Transcript
    phase: Phase = WAIT


def _check_flag(allow_zero_m1) -> None:
    """Refuse, as a config does, an allow_zero_m1 that is not a bool."""
    if not isinstance(allow_zero_m1, bool):
        raise ConfigError("unveil and allow_zero_m1 must be true or false")


def _sample_mask(n: int, rng: Random, allow_zero: bool) -> BitVector:
    # m1 = 0^n makes both unveilings verify identically, so it is excluded
    # by default; pass allow_zero for the unrestricted variant.
    while True:
        v = rng.getrandbits(n)
        if v or allow_zero:
            return BitVector.from_int(v, n)


def _announce_masks(t: Transcript, n: int, rng: Random, allow_zero: bool) -> BitVector:
    """Bob sends m_0 = 0^n and a sampled m_1, which is returned."""
    m1 = _sample_mask(n, rng, allow_zero)
    t.announce(BOB, ALICE, COMMIT, "m_0", BitVector.from_int(0, n))
    t.announce(BOB, ALICE, COMMIT, "m_1", m1)
    return m1


def honest_commit(b: int, n: int, rng: Random, *,
                  allow_zero_m1: bool = False) -> TwoProverHonestState:
    """Alice draws r and shares it with Alyson; the pair is split, and
    Alice answers Bob's masks with z = r XOR m_b."""
    check_scenario(TWO_PROVER, False, n, b, None)
    _check_flag(allow_zero_m1)
    t = Transcript(TWO_PROVER_LINKS)
    r = BitVector.from_int(rng.getrandbits(n), n)
    t.announce(ALICE, ALYSON, INIT, "r_prime", r)
    m1 = _announce_masks(t, n, rng, allow_zero_m1)
    z = r ^ m1 if b else r
    t.announce(ALICE, BOB, COMMIT, "z", z)
    return TwoProverHonestState(r=r, r_prime=r, m1=m1, b=b, z=z, transcript=t)


def honest_unveil(st: TwoProverHonestState) -> tuple[int, BitVector, BitVector]:
    """Alice discloses (b, r) and Alyson r'."""
    if st.phase is not WAIT:
        raise ValueError(f"cannot unveil from phase {st.phase.value}")
    t = st.transcript
    t.announce(ALICE, BOB, UNVEIL, "b", st.b)
    t.announce(ALICE, BOB, UNVEIL, "r", st.r)
    t.announce(ALYSON, BOB, UNVEIL, "r_disclosed", st.r_prime)
    st.phase = UNVEIL
    return st.b, st.r, st.r_prime


def honest_unveil_check(t: Transcript, b: int, r: BitVector, r_prime: BitVector, *,
                        allow_zero_m1: bool = False) -> bool:
    """Bob's acceptance test: r = r' and z = r XOR m_b.

    An opening whose b is not a bit or whose strings are not as wide as z is rejected;
    a malformed transcript, or an m_0 not 0^n or m_1 = 0^n unless allow_zero_m1, raises ValueError.
    """
    try:
        m0 = t.value("m_0")
        m1 = t.value("m_1")
        z = t.value("z")
    except KeyError as exc:
        raise ValueError(f"malformed transcript: {exc}") from exc
    if not (isinstance(m0, BitVector) and isinstance(m1, BitVector) and isinstance(z, BitVector)
            and m0.n == m1.n == z.n):
        raise ValueError("malformed transcript: m_0, m_1 and z must be bit strings of one width")
    if m0.value or not (m1.value or allow_zero_m1):
        raise ValueError("malformed transcript: m_0 must be 0^n, and m_1 not unless allowed")
    if not (isinstance(b, int) and b in (0, 1) and isinstance(r, BitVector)
            and isinstance(r_prime, BitVector) and r.n == r_prime.n == z.n):
        return False
    return r.value == r_prime.value and z.value == r.value ^ (m1 if b else m0).value


# Running sums a pick adds to a table at a time.
_CHUNK = 1 << 10


def _z_weights(up: float, down: float, n: int, top: int) -> Iterator[float]:
    """z's weights for z = 0 ... 2^n - 1: down if z has bit top, up if not.

    They come in runs of top (of 2^n if top = 0) that alternate up, down.
    Short runs cycle one period, since a repeat object per run would cost
    more than the run; long ones take a repeat object per run, so the
    iterator a part-made table keeps holds no period of up to 2^n floats.
    """
    size = 1 << n
    run = top or size
    if run < 32:
        return islice(cycle([up] * run + [down] * run), size)
    return chain.from_iterable(map(repeat, cycle((up, down)), repeat(run, size // run)))


@lru_cache(maxsize=32)
def _z_sums(up: float, down: float, n: int, top: int) -> tuple[array, Iterator[float]]:
    """The running sums choose builds over _z_weights, as an array that
    holds those made so far and the iterator that makes the rest."""
    return array("d"), accumulate(_z_weights(up, down, n, top))


def _pick_z(up: float, down: float, n: int, m: int, rng: Random) -> tuple[int, float]:
    """choose over ((z, up if z <= z ^ m else down) for z in range(1 << n)).

    z <= z ^ m iff z lacks m's leading bit, so the pick bisects the cached
    running sums for that bit with one rng.random() u, making them first
    as far as the first above u; when float dust leaves the total at or
    below u, the last z, as choose takes.
    """
    top = 1 << m.bit_length() >> 1
    sums, rest = _z_sums(up, down, n, top)
    u = rng.random()
    while not sums or sums[-1] <= u:
        made = len(sums)
        sums.extend(islice(rest, _CHUNK))
        if len(sums) == made:
            break
    z = min(bisect_right(sums, u), len(sums) - 1)
    return z, check_weight(down if z & top else up)


@lru_cache(maxsize=128)
def _commit_weights(key: bytes, n: int) -> tuple[tuple[tuple[int, complex], ...], float, float,
                                                 RegisterLayout]:
    """The block amplitudes, as (b, amplitude) pairs, the weights up and
    down of a z class that lists its B = 0 label first or second, and the
    B, R, Z, R' layout, for the psi that psi_key packed into key."""
    blocks = tuple(block_amplitudes(*psi_from_key(key), n).items())
    up = repeated_weight([(amp, 1) for _, amp in blocks])
    down = repeated_weight([(amp, 1) for _, amp in reversed(blocks)])
    return blocks, up, down, cached_layout((("B", 1), ("R", n), ("Z", n), ("Rp", n)))


def attack_commit(psi: tuple[complex, complex], n: int, rng: Random, *,
                  allow_zero_m1: bool = False) -> TwoProverAttackState:
    """Share n correlated register pairs instead of a classical string,
    evaluate z = r XOR m_b coherently, measure Z, announce z.

    Every label of block b holds the same amplitude, and the class of each
    z holds one label per block, (b, r = z XOR m_b), so z is drawn from the
    block amplitudes alone; only the labels of the drawn z become a
    SparseState. Labels run r-major with b = 0 first, so a class sums
    block 0 first iff z <= z XOR m_1: each class weighs up or down.
    """
    key = psi_key(*check_scenario(TWO_PROVER, True, n, None, psi))
    _check_flag(allow_zero_m1)
    blocks, up, down, layout = _commit_weights(key, n)
    t = Transcript(TWO_PROVER_LINKS)
    m1 = _announce_masks(t, n, rng, allow_zero_m1)
    m = m1.value
    z_int, prob = _pick_z(up, down, n, m, rng)
    scale = 1.0 / math.sqrt(prob)
    masks = (0, m)
    amps = {}
    for b, amp in (blocks if z_int <= z_int ^ m else reversed(blocks)):
        r = z_int ^ masks[b]
        amps[(b << 3 * n) | (r << 2 * n) | (z_int << n) | r] = amp * scale
    z = BitVector.from_int(z_int, n)
    t.announce(ALICE, BOB, COMMIT, "z", z)
    return TwoProverAttackState(n=n, state=unchecked_state(layout, amps), m1=m1, z=z, transcript=t)


def attack_unveil(st: TwoProverAttackState, rng: Random) -> tuple[int, BitVector, BitVector]:
    """Alice measures B and R, Alyson measures R'; both disclose to Bob.

    The support invariant R = R' on every label guarantees the two
    disclosures agree without any communication.
    """
    if st.phase is not WAIT:
        raise ValueError(f"cannot unveil from phase {st.phase.value}")
    b, _, s = choose(st.state.branches(["B"]), rng)
    r_int, _, s = choose(s.branches(["R"]), rng)
    rp_int, _, s = choose(s.branches(["Rp"]), rng)
    st.state = s
    st.phase = UNVEIL
    r = BitVector.from_int(r_int, st.n)
    rp = BitVector.from_int(rp_int, st.n)
    t = st.transcript
    t.announce(ALICE, BOB, UNVEIL, "b", b)
    t.announce(ALICE, BOB, UNVEIL, "r", r)
    t.announce(ALYSON, BOB, UNVEIL, "r_disclosed", rp)
    return b, r, rp


def reunite(st: TwoProverAttackState) -> None:
    """Bring the provers back together; only then can they jointly uncompute."""
    if st.phase is not WAIT:
        raise ValueError(f"cannot reunite from phase {st.phase.value}")
    st.phase = RECOVER
    st.transcript.announce(ALICE, ALYSON, RECOVER, "reunion", 1)


def attack_recover(st: TwoProverAttackState) -> SparseState:
    """Erase R and R' by recomputing z XOR m_b from B, then discard them.

    Requires the reunion: while separated neither prover can reach the
    other's register (SeparationBreachError); after an unveil, ValueError.
    """
    if st.phase is WAIT:
        raise SeparationBreachError("recovery needs the provers reunited; current phase is wait")
    if st.phase is not RECOVER:
        raise ValueError(f"cannot recover from phase {st.phase.value}")
    z_int = st.z.value
    masks = (0, st.m1.value)
    erase = lambda b: z_int ^ masks[b]
    s = st.state.coherent_eval(erase, ["B"], "R")
    s = s.coherent_eval(erase, ["B"], "Rp")
    # Z holds the announced constant; XOR it away and drop the register too.
    s = s.coherent_eval(lambda: z_int, [], "Z").discard_zeroed("R", "Rp", "Z")
    st.state = s
    return s
