"""Permutation-based bit commitment: honest protocol and its coherent attack.

Honest commit: Alice hides x behind y = pi(x), answers n-1 random
inner-product queries about y, then announces z = a XOR b where a says
which of the two surviving solutions y is. The attacker instead runs the
same steps on superposed registers, measuring only what must be spoken
aloud. The post-commit state has support on exactly two basis labels, so
Alice can later either measure it to unveil a perfectly distributed bit,
or uncompute everything and hand back the input qubit untouched.

Until z, the attack's state is one amplitude per value of B times a
uniform superposition of (pi^-1(y), y) over the y the announced parities
allow, so attack_commit carries only those amplitudes and the weights
measure would sum; the four labels left for z are its first SparseState.
Bob's rows never bias those weights, so they are summed once per (psi, n).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from . import gf2
from .engine import NOVY_LINKS, Party, Phase, Transcript
from .gf2 import BitVector
from .perm import ToyPermutation
from .qsim import SparseState, block_amplitudes, cached_layout, choose, repeated_weight


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
    phase: Phase = Phase.WAIT


@dataclass
class NovyAttackState:
    n: int
    perm: ToyPermutation
    state: SparseState
    z: int
    y0: int
    y1: int
    transcript: Transcript
    phase: Phase = Phase.WAIT


def honest_commit(b: int, n: int, p: ToyPermutation, rng: Random) -> NovyHonestState:
    if b not in (0, 1):
        raise ValueError(f"committed bit must be 0 or 1, got {b!r}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if p.n != n:
        raise ValueError(f"permutation width {p.n} does not match n={n}")
    t = Transcript(NOVY_LINKS)

    x = BitVector.from_int(rng.getrandbits(n), n)
    y = p.forward_int(x.value)
    kernel = gf2.Echelon(n)
    hashes = gf2.sample_independent_rows(n - 1, n, rng, kernel)
    responses = []
    for i, h in enumerate(hashes, start=1):
        t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, f"h_{i}", h)
        r_i = gf2.dot(h.value, y)
        responses.append(r_i)
        t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, f"r_{i}", r_i)

    # The solutions are y and y ^ k; the smaller has a 0 at k's leading bit.
    _, k = kernel.solutions()
    a = (y >> (k.bit_length() - 1)) & 1
    z = a ^ b
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)

    return NovyHonestState(b=b, x=x, y=y, hashes=hashes, responses=tuple(responses),
                           a=a, z=z, transcript=t)


def honest_unveil(st: NovyHonestState) -> tuple[int, BitVector]:
    """Alice discloses (b, x)."""
    if st.phase is not Phase.WAIT:
        raise ValueError(f"cannot unveil from phase {st.phase.value}")
    st.transcript.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "b", st.b)
    st.transcript.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "x", st.x)
    st.phase = Phase.UNVEIL
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
    if not (all(isinstance(h, BitVector) and len(h) == n for h in hs)
            and all(isinstance(v, int) and v in (0, 1) for v in (*rs, z))):
        raise ValueError(f"malformed transcript: h_i must be {n}-bit strings, r_i and z bits")
    if len(hs) > n:
        raise ValueError(f"malformed transcript: {len(hs)} hash rows for n={n}")
    # Two solutions iff consistent with rank n - 1; never list 2^(n - rank).
    system = gf2.Echelon(n)
    rank = sum(system.add(h.value, r) for h, r in zip(hs, rs))
    if system.rows[0] or rank != n - 1:
        problem = "parities contradict" if system.rows[0] else f"rank is {rank}, not {n - 1}"
        raise ValueError(f"malformed transcript: the hash system's {problem}")
    solutions = system.solutions()
    if not (isinstance(b, int) and b in (0, 1) and isinstance(x, BitVector) and len(x) == n):
        return False
    return p.forward_int(x.value) == solutions[z ^ b]


_PSI_PARTS = struct.Struct("4d")


def _psi_key(psi: tuple[complex, complex]) -> bytes:
    """psi's four float parts packed bit for bit. == and hash do not tell
    0.0 from -0.0, but block_amplitudes keeps them apart, so a key of psi
    itself would not."""
    alpha, beta = map(complex, psi)
    return _PSI_PARTS.pack(alpha.real, alpha.imag, beta.real, beta.imag)


@lru_cache(maxsize=128)
def _round_weights(psi_key: bytes, n: int
                   ) -> tuple[tuple[float, ...], tuple[tuple[int, complex], ...]]:
    """Round i's weight, for i = 1 ... n - 1, and the block amplitudes after
    the last round, for the psi that _psi_key gave psi_key.

    Both parities of round i keep 2^(n-i) labels of each block whatever the
    row, so they weigh the same and the floats are the same on every trial.
    The chain stops at a weight that is not positive: choose refuses it
    before any rescale would divide by it.
    """
    re_a, im_a, re_b, im_b = _PSI_PARTS.unpack(psi_key)
    blocks = block_amplitudes(complex(re_a, im_a), complex(re_b, im_b), n)
    weights = []
    for i in range(1, n):
        weight = repeated_weight([(amp, 1 << (n - i)) for amp in blocks.values()])
        weights.append(weight)
        if not weight > 0.0:
            break
        scale = 1.0 / math.sqrt(weight)
        blocks = {b: amp * scale for b, amp in blocks.items()}
    return tuple(weights), tuple(blocks.items())


def attack_commit(psi: tuple[complex, complex], n: int, p: ToyPermutation,
                  rng: Random) -> NovyAttackState:
    """Run the commit phase coherently, announcing only measured values.

    Until z the state is sum_b a_b |b> sum_{y in A} |pi^-1(y)>|y>, where A is
    the affine set the announced parities leave: every label of block b
    holds a_b, and each independent row halves A. So the rounds pick from
    one (psi, n)'s cached weights, which are the ones measure would sum,
    and only the four labels left for z become a SparseState.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if p.n != n:
        raise ValueError(f"permutation width {p.n} does not match n={n}")
    t = Transcript(NOVY_LINKS)

    weights, blocks = _round_weights(_psi_key(psi), n)
    hashes = gf2.sample_independent_rows(n - 1, n, rng)
    system = gf2.Echelon(n)
    for i, (h, weight) in enumerate(zip(hashes, weights), start=1):
        t.announce(Party.BOB, Party.ALICE, Phase.COMMIT, f"h_{i}", h)
        r_i, _ = choose([(0, weight), (1, weight)], rng)
        if not system.add(h.value, r_i):
            raise ValueError(f"hash row h_{i} depends on the rows before it")
        t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, f"r_{i}", r_i)

    # The two surviving preimage/image pairs are now pinned down classically
    # by the announced system; Alice knows (y0, y1) but works on Y, not X.
    # A block's labels run in ascending x, as uniform_superpose laid them out.
    y0, y1 = system.solutions()
    pairs = sorted((p.inverse_int(y), y) for y in (y0, y1))
    layout = cached_layout((("B", 1), ("X", n), ("Y", n)))
    s = SparseState(layout, {(b << 2 * n) | (x << n) | y: amp
                             for b, amp in blocks for x, y in pairs}, check=False)
    z, _, s = s.measure(["B", "Y"], rng, lambda b, y: b ^ (y == y1))
    t.announce(Party.ALICE, Party.BOB, Phase.COMMIT, "z", z)
    return NovyAttackState(n=n, perm=p, state=s, z=z, y0=y0, y1=y1, transcript=t)


def attack_unveil(st: NovyAttackState, rng: Random) -> tuple[int, BitVector]:
    """Measure B then X and disclose them; always passes Bob's check."""
    if st.phase is not Phase.WAIT:
        raise ValueError(f"cannot unveil from phase {st.phase.value}")
    b, _, s = st.state.measure(["B"], rng)
    x_int, _, s = s.measure(["X"], rng)
    st.state = s
    st.phase = Phase.UNVEIL
    x = BitVector.from_int(x_int, st.n)
    st.transcript.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "b", b)
    st.transcript.announce(Party.ALICE, Party.BOB, Phase.UNVEIL, "x", x)
    return b, x


def attack_recover(st: NovyAttackState) -> SparseState:
    """Uncompute X and Y from B and hand back the input qubit.

    Both lookups are keyed on B alone: the solution index is b XOR z, the
    image is read off the announced system, and the preimage needs the
    permutation inverse (Alice never learned x0, x1 directly). Erasing Y
    from X via the forward map and then X by inverse lookup would do too.
    """
    if st.phase is not Phase.WAIT:
        raise ValueError(f"cannot recover from phase {st.phase.value}")
    z = st.z
    ys = (st.y0, st.y1)
    xs = (st.perm.inverse_int(ys[0]), st.perm.inverse_int(ys[1]))
    s = st.state.coherent_eval(lambda b: ys[b ^ z], ["B"], "Y")
    s = s.coherent_eval(lambda b: xs[b ^ z], ["B"], "X")
    s = s.discard_zeroed("X")
    s = s.discard_zeroed("Y")
    st.state = s
    st.phase = Phase.RECOVER
    return s
