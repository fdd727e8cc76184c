"""Party roles, phase-gated classical channels, and protocol transcripts.

Every classical value any party learns travels through a Transcript as a
Message. Each transcript is created with its protocol's links, the
directed (sender, receiver, phase) triples that may carry a message. The
two-prover scenarios rely on this to enforce that the committing pair
cannot talk while separated.

A trial announces its messages one at a time, 21 for a novy trial at
n = 10, so announcing avoids costs that no trial needs: each Party and
Phase member is also a module global, since on Python 3.11 ``Party.BOB``
goes through ``EnumType.__getattr__``; a Message is built with
``tuple.__new__``, skipping the NamedTuple's Python-level ``__new__``.

``PROTOCOLS``, the one place that spells a ``<family>-<role>`` name, maps
each to its (``Family`` record, is_attack) pair, which a ``ScenarioConfig``
reads once, when it is made. A record holds what this module reads; every
other fact of a family, its role module and its own config field too, is its
``harness.FAMILY_ENTRIES`` entry, so no code asks which family it has; a new
axis is a field. ``check_scenario`` holds the rules every family shares, on
n, b and psi, and names no family's own field.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from random import Random
from typing import TYPE_CHECKING, NamedTuple, Union

from .gf2 import MAX_WIDTH, BitVector
from .qsim import NORM_EPS

if TYPE_CHECKING:
    from .harness import ScenarioConfig


class Party(str, Enum):
    ALICE = "alice"
    BOB = "bob"
    ALYSON = "alyson"


class Phase(str, Enum):
    INIT = "init"
    COMMIT = "commit"
    WAIT = "wait"
    UNVEIL = "unveil"
    RECOVER = "recover"


ALICE, BOB, ALYSON = Party
INIT, COMMIT, WAIT, UNVEIL, RECOVER = Phase

# Every role's commit refuses an n above this bound, gf2's widest BitVector.
# Each role's work is polynomial in n (a novy trial took 61-72 ms at n = 1024
# on Python 3.11, 2 shared vCPUs), but the party coins are n-bit draws and
# rows; the bound keeps every run finite and below the sizes
# Random.getrandbits refuses.
MAX_N = MAX_WIDTH


@dataclass(frozen=True, eq=False)
class Family:
    """A protocol family, a dict key by identity: name, narrowest n, whether its provers reunite."""

    name: str
    narrowest: int
    reunites: bool


NOVY = Family("novy", 2, False)
TWO_PROVER = Family("2p", 1, True)
PROTOCOLS = {f"{family.name}-{role}": (family, role == "attack")
             for family in (NOVY, TWO_PROVER) for role in ("honest", "attack")}


class ConfigError(ValueError):
    """A scenario configuration is invalid."""


def shown(v) -> str:
    """repr(v), or its size or type if repr raises, as past the int-to-str digit limit."""
    try:
        return repr(v)
    except ValueError:
        return f"a {v.bit_length()}-bit int" if isinstance(v, int) else f"a long {type(v).__name__}"


def _is_number(value) -> bool:
    return isinstance(value, (int, float, complex)) and not isinstance(value, bool)


def check_scenario(family: Family, attack: bool, n, b, psi) -> tuple[complex, complex] | None:
    """The rules on n, b and psi, for a ``ScenarioConfig`` as it is made and
    for every role commit before any draw: ConfigError unless n is an int in
    [narrowest, MAX_N], an honest role has the int 0 or 1 as b and
    no psi, and an attack has no b and a psi of two numbers, finite and
    normalized once complex; a bool is no int or number here. Returns an
    attack's psi as that complex pair. A family's own config field is its
    harness entry's and its role module's to check."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {shown(n)}")
    if attack:
        if psi is None or b is not None:
            raise ConfigError("attack scenarios take psi, not b")
        if not (isinstance(psi, (tuple, list)) and len(psi) == 2
                and _is_number(psi[0]) and _is_number(psi[1])):
            raise ConfigError(f"psi must be a pair of amplitudes, got {shown(psi)}")
        try:
            alpha, beta = complex(psi[0]), complex(psi[1])
            norm = abs(alpha) ** 2 + abs(beta) ** 2
        except OverflowError:
            raise ConfigError(f"psi amplitudes out of range: {shown(psi)}") from None
        if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
            raise ConfigError("psi amplitudes must be finite")
        if abs(norm - 1.0) > NORM_EPS:
            raise ConfigError("psi must be normalized")
    elif not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1) or psi is not None:
        raise ConfigError("honest scenarios take b in {0, 1}, not psi")
    if n > MAX_N:
        raise ConfigError(f"scenarios need n <= {MAX_N}, got {shown(n)}")
    if n < family.narrowest:
        raise ConfigError(f"{family.name} scenarios need n >= {family.narrowest}")
    return (alpha, beta) if attack else None


class SeparationBreachError(Exception):
    """A message was announced over a (sender, receiver, phase) link that its
    transcript's protocol lacks, such as Alice -> Alyson while they are separated."""


PayloadValue = Union[int, BitVector]


class Message(NamedTuple):
    """One announced value, numbered by its (sender, receiver) round."""

    sender: Party
    receiver: Party
    phase: Phase
    round: int
    name: str
    value: PayloadValue

    def to_json(self) -> dict:
        value = str(self.value) if isinstance(self.value, BitVector) else self.value
        return {
            "sender": self.sender.value,
            "receiver": self.receiver.value,
            "phase": self.phase.value,
            "round": self.round,
            "name": self.name,
            "value": value,
        }


Link = tuple[Party, Party, Phase]


def _duplex(a: Party, b: Party, phases) -> frozenset[Link]:
    return frozenset(link for phase in phases for link in ((a, b, phase), (b, a, phase)))


NOVY_LINKS = _duplex(ALICE, BOB, Phase)

# Both provers can always talk to Bob; to each other only before the
# commit phase starts and after they reunite.
TWO_PROVER_LINKS = (NOVY_LINKS
                    | _duplex(ALYSON, BOB, Phase)
                    | _duplex(ALICE, ALYSON, (INIT, RECOVER)))

_new_message = tuple.__new__


@lru_cache(maxsize=16)
def _pair_index(links: frozenset[Link]) -> tuple[dict[Link, int], int]:
    """Each link's (sender, receiver) pair index, and how many pairs there are.
    Every transcript on the link set shares the map and only reads it."""
    pairs: dict[tuple[Party, Party], int] = {}
    index = {link: pairs.setdefault(link[:2], len(pairs)) for link in links}
    return index, len(pairs)


class Transcript:
    """Ordered record of classical messages over a fixed link set.

    Only the links given at creation may carry a message; rounds increase
    per (sender, receiver) pair and names are unique. Each link set maps
    its links to pair indices once, so ``announce`` checks a link and finds
    its pair's round counter in one lookup.
    """

    __slots__ = ("links", "messages", "_pair", "_rounds", "_index")

    def __init__(self, links: frozenset[Link]):
        self.links = links
        self.messages: list[Message] = []
        self._pair, pairs = _pair_index(links)
        self._rounds = [0] * pairs
        self._index: dict[str, PayloadValue] = {}

    def announce(self, sender: Party, receiver: Party, phase: Phase,
                 name: str, value: PayloadValue) -> Message:
        """Record a message with the next round number for its (sender, receiver) pair."""
        pair = self._pair.get((sender, receiver, phase))
        if pair is None:
            raise SeparationBreachError(
                f"{sender.value} -> {receiver.value} is not permitted during {phase.value}"
            )
        if name in self._index:
            raise ValueError(f"transcript already has a message named {name!r}")
        rounds = self._rounds
        rnd = rounds[pair] = rounds[pair] + 1
        message = _new_message(Message, (sender, receiver, phase, rnd, name, value))
        self.messages.append(message)
        self._index[name] = value
        return message

    def value(self, name: str) -> PayloadValue:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"transcript has no message named {name!r}") from None

    def series(self, prefix: str) -> list[PayloadValue]:
        """Values named '<prefix>1', '<prefix>2', ... until the first gap."""
        index = self._index
        out = []
        i = 1
        while (name := f"{prefix}{i}") in index:
            out.append(index[name])
            i += 1
        return out

    def to_json(self) -> list[dict]:
        return [m.to_json() for m in self.messages]


@dataclass
class ProtocolOutcome:
    accepted: bool | None = None
    unveiled_bit: int | None = None
    recovery_fidelity: float | None = None


def run_protocol(config: "ScenarioConfig", rng: Random) -> tuple[Transcript, ProtocolOutcome]:
    """Execute one full run of the configured protocol.

    A config is checked, and stores its family, role module, role and
    ``own_keyword``, when it is made, so no draw here meets a field its
    checks refuse; every role takes ``**config.own_keyword``. A commit
    returns its state, transcript at ``st.transcript``, an unveil the
    opening ``honest_unveil_check`` takes. Each phase is read off
    ``config.roles`` as it runs.
    """
    family, attack, own, mod = config.family, config.is_attack, config.own_keyword, config.roles
    secret = config.psi if attack else config.b
    commit = mod.attack_commit if attack else mod.honest_commit
    st = commit(secret, config.n, rng=rng, **own)
    t = st.transcript
    if config.unveil:
        opening = mod.attack_unveil(st, rng) if attack else mod.honest_unveil(st)
        ok = mod.honest_unveil_check(t, *opening, **own)
        return t, ProtocolOutcome(accepted=ok, unveiled_bit=opening[0])
    if not attack:
        return t, ProtocolOutcome()
    if family.reunites:
        mod.reunite(st)
    final = mod.attack_recover(st)
    return t, ProtocolOutcome(recovery_fidelity=final.fidelity_pure("B", *config.psi))
