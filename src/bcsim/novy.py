"""Permutation-based bit commitment: honest protocol and its coherent attack.

Honest commit: Alice hides x behind y = pi(x), answers n-1 random
inner-product queries about y, then announces z = a XOR b where a says
which of the two surviving solutions y is. The attacker instead runs the
same steps on superposed registers, measuring only what must be spoken
aloud. The post-commit state has support on exactly two basis labels, so
Alice can later either measure it to unveil a perfectly distributed bit,
or uncompute everything and hand back the input qubit untouched.

The attack announces each parity r_i and z with weight exactly 1/2,
as the honest commit does: every label of block b holds a_b until z, and
an independent row halves each block. So attack_commit draws them as
fair picks that no psi biases, and only the labels of the drawn z, which
hold psi's own amplitudes, become a SparseState.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random

from . import gf2
from .engine import (ALICE, BOB, COMMIT, NOVY, NOVY_LINKS, RECOVER, UNVEIL, WAIT, Phase,
                     Transcript, check_scenario)
from .gf2 import BitVector
from .perm import ToyPermutation
from .qsim import PRUNE_EPS, RegisterLayout, SparseState, cached_layout, choose, unchecked_state


@dataclass
class NovyHonestState:
    b: int
    x: BitVector
    y: int
    hashes: tuple[BitVector, ...]
    responses: tuple[int, ...]
    a: int
    z: int
    transcript: Transcript
    phase: Phase = WAIT


@dataclass
class NovyAttackState:
    n: int
    perm: ToyPermutation
    state: SparseState
    z: int
    y0: int
    y1: int
    transcript: Transcript
    phase: Phase = WAIT


def honest_commit(b: int, n: int, p: ToyPermutation, rng: Random) -> NovyHonestState:
    """Alice answers Bob's n - 1 hash rows on y = pi(x) and announces
    z = a XOR b. The sampler reduces each row once, into her Echelon,
    whose kernel vector k gives the two solutions, y and y ^ k."""
    check_scenario(NOVY, False, n, b, None)
    if p.n != n:
        raise ValueError(f"permutation width {p.n} does not match n={n}")
    t = Transcript(NOVY_LINKS)

    x = BitVector.from_int(rng.getrandbits(n), n)
    y = p.forward_int(x.value)
    system = gf2.Echelon(n)
    hashes = gf2.sample_independent_rows(n - 1, n, rng, system)
    responses = []
    for (h_name, r_name), h in zip(_round_names(n), hashes):
        t.announce(BOB, ALICE, COMMIT, h_name, h)
        r_i = gf2.dot(h.value, y)
        responses.append(r_i)
        t.announce(ALICE, BOB, COMMIT, r_name, r_i)

    # The solutions are y and y ^ k; the smaller has a 0 at k's leading bit.
    (k,) = system.kernel_basis()
    a = (y >> (k.bit_length() - 1)) & 1
    z = a ^ b
    t.announce(ALICE, BOB, COMMIT, "z", z)

    return NovyHonestState(b=b, x=x, y=y, hashes=hashes, responses=tuple(responses),
                           a=a, z=z, transcript=t)


def honest_unveil(st: NovyHonestState) -> tuple[int, BitVector]:
    """Alice discloses (b, x)."""
    if st.phase is not WAIT:
        raise ValueError(f"cannot unveil from phase {st.phase.value}")
    st.transcript.announce(ALICE, BOB, UNVEIL, "b", st.b)
    st.transcript.announce(ALICE, BOB, UNVEIL, "x", st.x)
    st.phase = UNVEIL
    return st.b, st.x


def honest_unveil_check(t: Transcript, b: int, x: BitVector, p: ToyPermutation) -> bool:
    """Bob's acceptance test: solve the announced system and compare pi(x).

    An opening whose b is not a bit or whose x is not an n-bit string is
    rejected; a malformed transcript, one with more than n hash rows or one
    whose system does not leave exactly two solutions, raises ValueError.
    """
    n = p.n
    try:
        hs = t.series("h_")
        rs = t.series("r_")
        z = t.value("z")
    except KeyError as exc:
        raise ValueError(f"malformed transcript: {exc}") from exc
    if not hs or len(hs) != len(rs):
        raise ValueError("malformed transcript: hash/response rounds do not line up")
    # One pass checks each round, z with the first, and adds its row.
    z_ok = isinstance(z, int) and z in (0, 1)
    system = gf2.Echelon(n)
    rank = 0
    for h, r in zip(hs, rs):
        if not (z_ok and isinstance(h, BitVector) and h.n == n
                and isinstance(r, int) and r in (0, 1)):
            raise ValueError(f"malformed transcript: h_i must be {n}-bit strings, r_i and z bits")
        rank += system.add(h.value, r)
    if len(hs) > n:
        raise ValueError(f"malformed transcript: {len(hs)} hash rows for n={n}")
    # Two solutions iff consistent with rank n - 1; never list 2^(n - rank).
    if system.rows[0] or rank != n - 1:
        problem = "parities contradict" if system.rows[0] else f"rank is {rank}, not {n - 1}"
        raise ValueError(f"malformed transcript: the hash system's {problem}")
    solutions = system.solutions()
    if not (isinstance(b, int) and b in (0, 1) and isinstance(x, BitVector) and len(x) == n):
        return False
    return p.forward_int(x.value) == solutions[z ^ b]


@lru_cache(maxsize=128)
def _round_names(n: int) -> tuple[tuple[str, str], ...]:
    """("h_i", "r_i") for the rounds i = 1 ... n - 1."""
    return tuple((f"h_{i}", f"r_{i}") for i in range(1, n))


@lru_cache(maxsize=128)
def _attack_layout(n: int) -> RegisterLayout:
    """The attack's (B, X, Y) registers at width n, built once per n."""
    return cached_layout((("B", 1), ("X", n), ("Y", n)))


# Each parity r_i and z: both values weigh exactly 1/2.
_HALVES = ((0, 0.5), (1, 0.5))


def attack_commit(psi: tuple[complex, complex], n: int, p: ToyPermutation,
                  rng: Random) -> NovyAttackState:
    """Run the commit phase coherently, announcing only measured values.

    Until z the state is sum_b a_b |b> sum_{y in A} |pi^-1(y)>|y>, where A is
    the affine set the announced parities leave, and each independent row
    halves A in both blocks, so each r_i weighs exactly 1/2. The class of
    each z holds one label per block, (b, pi^-1(y), y) with y = y_(b XOR z),
    block 0 first, so z weighs 1/2 too; only the labels of the drawn z
    become a SparseState, and they hold psi's own amplitudes.
    """
    psi = check_scenario(NOVY, True, n, None, psi)
    if p.n != n:
        raise ValueError(f"permutation width {p.n} does not match n={n}")
    t = Transcript(NOVY_LINKS)

    hashes = gf2.sample_independent_rows(n - 1, n, rng)
    system = gf2.Echelon(n)
    for (h_name, r_name), h in zip(_round_names(n), hashes):
        t.announce(BOB, ALICE, COMMIT, h_name, h)
        r_i, _ = choose(_HALVES, rng)
        system.add(h.value, r_i)  # sample_independent_rows drew h independent
        t.announce(ALICE, BOB, COMMIT, r_name, r_i)

    # The two surviving preimage/image pairs are now pinned down classically
    # by the announced system; Alice knows (y0, y1) but works on Y, not X.
    y0, y1 = system.solutions()
    z, _ = choose(_HALVES, rng)
    amps = {}
    for b, amp in enumerate(psi):
        if abs(amp) > PRUNE_EPS:
            y = y1 if b ^ z else y0
            amps[(b << 2 * n) | (p.inverse_int(y) << n) | y] = amp
    t.announce(ALICE, BOB, COMMIT, "z", z)
    return NovyAttackState(n=n, perm=p, state=unchecked_state(_attack_layout(n), amps), z=z,
                           y0=y0, y1=y1, transcript=t)


def attack_unveil(st: NovyAttackState, rng: Random) -> tuple[int, BitVector]:
    """Measure B then X and disclose them; always passes Bob's check."""
    if st.phase is not WAIT:
        raise ValueError(f"cannot unveil from phase {st.phase.value}")
    b, _, s = choose(st.state.branches(["B"]), rng)
    x_int, _, s = choose(s.branches(["X"]), rng)
    st.state = s
    st.phase = UNVEIL
    x = BitVector.from_int(x_int, st.n)
    st.transcript.announce(ALICE, BOB, UNVEIL, "b", b)
    st.transcript.announce(ALICE, BOB, UNVEIL, "x", x)
    return b, x


def attack_recover(st: NovyAttackState) -> SparseState:
    """Uncompute X and Y from B and hand back the input qubit.

    Both lookups are keyed on B alone: the solution index is b XOR z, the
    image is read off the announced system, and the preimage needs the
    permutation inverse (Alice never learned x0, x1 directly). Erasing Y
    from X via the forward map and then X by inverse lookup would do too.
    """
    if st.phase is not WAIT:
        raise ValueError(f"cannot recover from phase {st.phase.value}")
    z = st.z
    ys = (st.y0, st.y1)
    xs = (st.perm.inverse_int(ys[0]), st.perm.inverse_int(ys[1]))
    s = st.state.coherent_eval(lambda b: ys[b ^ z], ["B"], "Y")
    s = s.coherent_eval(lambda b: xs[b ^ z], ["B"], "X")
    s = s.discard_zeroed("X", "Y")
    st.state = s
    st.phase = RECOVER
    return s
