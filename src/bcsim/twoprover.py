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
a SparseState only for the two labels z leaves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from .engine import TWO_PROVER_LINKS, Party, Phase, SeparationBreachError, Transcript
from .gf2 import BitVector
from .qsim import SparseState, block_amplitudes, cached_layout, choose, repeated_weight


@dataclass
class TwoProverHonestState:
    n: int
    r: BitVector
    r_prime: BitVector
    transcript: Transcript
    m0: BitVector | None = None
    m1: BitVector | None = None
    b: int | None = None
    z: BitVector | None = None
    phase: Phase = Phase.COMMIT


@dataclass
class TwoProverAttackState:
    n: int
    transcript: Transcript
    state: SparseState | None = None
    m0: BitVector | None = None
    m1: BitVector | None = None
    z: BitVector | None = None
    phase: Phase = Phase.COMMIT


def _sample_mask(n: int, rng: Random, allow_zero: bool) -> BitVector:
    # m1 = 0^n makes both unveilings verify identically, so it is excluded
    # by default; pass allow_zero for the unrestricted variant.
    while True:
        v = rng.getrandbits(n)
        if v or allow_zero:
            return BitVector.from_int(v, n)


def honest_init(n: int, rng: Random) -> TwoProverHonestState:
    """Alice draws r and shares it with Alyson, then the pair is split."""
    if n < 1:
        raise ValueError("n must be at least 1")
    t = Transcript(TWO_PROVER_LINKS)
    r = BitVector.from_int(rng.getrandbits(n), n)
    t.announce(Party.ALICE, Party.ALYSON, Phase.INIT, "r_prime", r)
    return TwoProverHonestState(n=n, r=r, r_prime=r, transcript=t)


def honest_commit(st: TwoProverHonestState, b: int, rng: Random, *,
                  allow_zero_m1: bool = False) -> Transcript:
    if b not in (0, 1):
        raise ValueError(f"committed bit must be 0 or 1, got {b!r}")
    if st.phase is not Phase.COMMIT:
        raise ValueError(f"cannot commit from phase {st.phase.value}")
    t, n = st.transcript, st.n
    m0 = BitVector.zeros(n)
    m1 = _sample_mask(n, rng, allow_zero_m1)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_0", m0)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_1", m1)
    z = st.r ^ (m1 if b else m0)
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    st.m0, st.m1, st.b, st.z = m0, m1, b, z
    st.phase = Phase.WAIT
    return t


def honest_unveil(st: TwoProverHonestState) -> None:
    if st.phase is not Phase.WAIT:
        raise ValueError(f"cannot unveil from phase {st.phase.value}")
    t = st.transcript
    t.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "b", st.b)
    t.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "r", st.r)
    t.announce(Party.ALYSON, Party.BOB, Phase.UNVEIL, "r_disclosed", st.r_prime)
    st.phase = Phase.UNVEIL


def honest_unveil_check(t: Transcript, b: int, r: BitVector, r_prime: BitVector) -> bool:
    """Bob's acceptance test: r = r' and z = r XOR m_b.

    An opening whose b is not a bit or whose strings are not as wide as z
    is rejected; a malformed transcript raises ValueError.
    """
    try:
        m0 = t.value("m_0")
        m1 = t.value("m_1")
        z = t.value("z")
    except KeyError as exc:
        raise ValueError(f"malformed transcript: {exc}") from exc
    if not (all(isinstance(v, BitVector) for v in (m0, m1, z)) and len(m0) == len(m1) == len(z)):
        raise ValueError("malformed transcript: m_0, m_1 and z must be bit strings of one width")
    if not (isinstance(b, int) and b in (0, 1)
            and all(isinstance(v, BitVector) and len(v) == len(z) for v in (r, r_prime))):
        return False
    return r == r_prime and z == r ^ (m1 if b else m0)


def attack_init(n: int) -> TwoProverAttackState:
    """Share n correlated register pairs instead of a classical string.

    The pairs are built with the input qubit at commit time.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return TwoProverAttackState(n=n, transcript=Transcript(TWO_PROVER_LINKS))


def attack_commit(st: TwoProverAttackState, psi: tuple[complex, complex], rng: Random, *,
                  allow_zero_m1: bool = False) -> Transcript:
    """Evaluate z = r XOR m_b coherently, measure Z, announce z.

    Every label of block b holds the same amplitude, and the class of each
    z holds one label per block, (b, r = z XOR m_b), so z is drawn from the
    block amplitudes alone; only the labels of the drawn z become a
    SparseState. Labels run r-major with b = 0 first, so a class sums
    block 0 first iff z <= z XOR m_1.
    """
    if st.phase is not Phase.COMMIT:
        raise ValueError(f"cannot commit from phase {st.phase.value}")
    t, n = st.transcript, st.n
    m0 = BitVector.zeros(n)
    m1 = _sample_mask(n, rng, allow_zero_m1)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_0", m0)
    t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, "m_1", m1)

    blocks = block_amplitudes(*psi, n)
    m = m1.to_int()
    up = repeated_weight([(amp, 1) for amp in blocks.values()])
    down = repeated_weight([(amp, 1) for amp in reversed(blocks.values())])
    z_int, prob = choose(((z, up if z <= z ^ m else down) for z in range(1 << n)), rng)
    scale = 1.0 / math.sqrt(prob)
    masks = (0, m)
    layout = cached_layout((("B", 1), ("R", n), ("Z", n), ("Rp", n)))
    amps = {}
    for b in (blocks if z_int <= z_int ^ m else reversed(blocks)):
        r = z_int ^ masks[b]
        amps[(b << 3 * n) | (r << 2 * n) | (z_int << n) | r] = blocks[b] * scale
    z = BitVector.from_int(z_int, n)
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)

    st.m0, st.m1, st.z = m0, m1, z
    st.state = SparseState(layout, amps, check=False)
    st.phase = Phase.WAIT
    return t


def attack_unveil(st: TwoProverAttackState, rng: Random) -> tuple[int, BitVector, BitVector]:
    """Alice measures B and R, Alyson measures R'; both disclose to Bob.

    The support invariant R = R' on every label guarantees the two
    disclosures agree without any communication.
    """
    if st.phase is not Phase.WAIT:
        raise ValueError(f"cannot unveil from phase {st.phase.value}")
    b, _, s = st.state.measure(["B"], rng)
    r_int, _, s = s.measure(["R"], rng)
    rp_int, _, s = s.measure(["Rp"], rng)
    st.state = s
    st.phase = Phase.UNVEIL
    r = BitVector.from_int(r_int, st.n)
    rp = BitVector.from_int(rp_int, st.n)
    t = st.transcript
    t.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "b", b)
    t.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "r", r)
    t.announce(Party.ALYSON, Party.BOB, Phase.UNVEIL, "r_disclosed", rp)
    return b, r, rp


def reunite(st: TwoProverAttackState) -> None:
    """Bring the provers back together; only then can they jointly uncompute."""
    if st.phase is not Phase.WAIT:
        raise ValueError(f"cannot reunite from phase {st.phase.value}")
    st.phase = Phase.RECOVER
    st.transcript.announce(Party.ALICE, Party.ALYSON, Phase.RECOVER, "reunion", 1)


def attack_recover(st: TwoProverAttackState) -> SparseState:
    """Erase R and R' by recomputing z XOR m_b from B, then discard them.

    Requires the reunion: while separated, neither prover can reach the
    other's register, so attempting this raises SeparationBreachError.
    """
    if st.phase is not Phase.RECOVER:
        raise SeparationBreachError(
            f"recovery needs the provers reunited; current phase is {st.phase.value}"
        )
    z_int = st.z.to_int()
    masks = (0, st.m1.to_int())
    erase = lambda b: z_int ^ masks[b]
    s = st.state.coherent_eval(erase, ["B"], "R")
    s = s.coherent_eval(erase, ["B"], "Rp")
    s = s.discard_zeroed("R")
    s = s.discard_zeroed("Rp")
    # Z holds the announced constant; XOR it away and drop the register too.
    s = s.coherent_eval(lambda: z_int, [], "Z").discard_zeroed("Z")
    st.state = s
    return s
