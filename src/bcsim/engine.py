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
``tuple.__new__``, skipping the NamedTuple's Python-level ``__new__``; and
``run_protocol`` resolves the role modules once, on its first call.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from random import Random
from typing import TYPE_CHECKING, NamedTuple, Union

from .gf2 import BitVector

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

# Each role's commit refuses an n above its bound. An attack commit sums
# O(2^n) Born weights one label at a time, once per (psi, n), to keep the
# sparse path's floats, and a 2p one caches up to 2^n running sums, 512 KiB
# at n = 16; wider needs exact 1/2 weights and getrandbits draws.
ATTACK_MAX_N = 16
# Honest work is polynomial in n (a novy-honest trial took 80-92 ms at
# n = 1024 on Python 3.11, 2 shared vCPUs), but the party coins are n-bit draws
# and rows; this bound keeps every honest run finite and below the sizes
# Random.getrandbits refuses.
HONEST_MAX_N = 1024


def check_width(n: int, narrowest: int, widest: int) -> None:
    """A role commit's width check: ValueError unless n is an int, not a
    bool, in [narrowest, widest]."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an int, got {n!r}")
    if not narrowest <= n <= widest:
        raise ValueError(f"n must be in [{narrowest}, {widest}], got {n}")


def check_bit(b: int) -> None:
    """An honest commit's bit check: ValueError unless b is 0 or 1 as an
    int, not a bool."""
    if not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1):
        raise ValueError(f"committed bit must be the int 0 or 1, got {b!r}")


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


class Transcript:
    """Ordered record of classical messages over a fixed link set.

    Only the links given at creation may carry a message; rounds increase
    per (sender, receiver) pair and names are unique.
    """

    def __init__(self, links: frozenset[Link]):
        self.links = links
        self.messages: list[Message] = []
        self._rounds: dict[tuple[Party, Party], int] = {}
        self._index: dict[str, PayloadValue] = {}

    def announce(self, sender: Party, receiver: Party, phase: Phase,
                 name: str, value: PayloadValue) -> Message:
        """Record a message with the next round number for its (sender, receiver) pair."""
        if (sender, receiver, phase) not in self.links:
            raise SeparationBreachError(
                f"{sender.value} -> {receiver.value} is not permitted during {phase.value}"
            )
        if name in self._index:
            raise ValueError(f"transcript already has a message named {name!r}")
        key = (sender, receiver)
        rnd = self._rounds.get(key, 0) + 1
        self._rounds[key] = rnd
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

    The config need not be validated: each commit raises ValueError, before
    any draw, for an n its config refuses, and each honest commit for such
    a b. Every commit returns its role's state with the transcript at
    ``st.transcript``, and every unveil returns the opening that the
    protocol's ``honest_unveil_check`` takes after the transcript.
    """
    novy, twoprover = _roles()
    proto, attack = config.protocol, config.is_attack
    secret = config.psi if attack else config.b
    if proto.startswith("novy"):
        p = config.permutation()
        mod, check_args = novy, (p,)
        commit = novy.attack_commit if attack else novy.honest_commit
        st = commit(secret, config.n, p, rng)
    elif proto.startswith("2p"):
        mod, check_args = twoprover, ()
        commit = twoprover.attack_commit if attack else twoprover.honest_commit
        st = commit(secret, config.n, rng, allow_zero_m1=config.allow_zero_m1)
    else:
        raise ValueError(f"unknown protocol {proto!r}")
    t = st.transcript
    if config.unveil:
        opening = mod.attack_unveil(st, rng) if attack else mod.honest_unveil(st)
        ok = mod.honest_unveil_check(t, *opening, *check_args)
        return t, ProtocolOutcome(accepted=ok, unveiled_bit=opening[0])
    if not attack:
        return t, ProtocolOutcome()
    if mod is twoprover:
        twoprover.reunite(st)
    final = mod.attack_recover(st)
    return t, ProtocolOutcome(recovery_fidelity=final.fidelity_pure("B", *config.psi))


@lru_cache(maxsize=1)
def _roles():
    """The novy and twoprover modules, which import this one."""
    from . import novy, twoprover
    return novy, twoprover
