"""Exact sparse state-vector simulation over named bit registers.

A joint state is a mapping from integer basis labels to complex
amplitudes; registers are named, fixed-width bit fields packed into the
label, first-declared register in the most significant bits. All
measurements are computational-basis. Classical functions enter the
state only through XOR-style coherent evaluation, which keeps every
operation reversible and lets ancillas be disposed of with a machine
check that they were actually uncomputed.
"""
from __future__ import annotations

import math
import struct
from functools import lru_cache, reduce
from random import Random
from typing import Callable, Iterable, Mapping, Sequence

PRUNE_EPS = 1e-12
NORM_EPS = 1e-10


class UncomputationError(Exception):
    """A register was discarded while still holding nonzero bits."""


class RegisterLayout:
    """Ordered named bit registers packed into integer basis labels.

    ``drop_plan(names)`` is memoized per instance, since every discard_zeroed
    asks for it; a list it refuses is not memoized and raises on every call.
    """

    __slots__ = ("names", "widths", "total_bits", "_spec", "_drop_plans")

    def __init__(self, registers: Sequence[tuple[str, int]]):
        names: list[str] = []
        widths: list[int] = []
        for name, width in registers:
            if width <= 0:
                raise ValueError(f"register {name!r} must have positive width")
            if name in names:
                raise ValueError(f"duplicate register name {name!r}")
            names.append(name)
            widths.append(width)
        self.names = tuple(names)
        self.widths = tuple(widths)
        self.total_bits = sum(widths)
        spec: dict[str, tuple[int, int, int]] = {}
        offset = 0
        for name, width in zip(self.names, self.widths):
            shift = self.total_bits - offset - width
            spec[name] = (shift, (1 << width) - 1, width)
            offset += width
        self._spec = spec
        self._drop_plans: dict[tuple[str, ...], tuple] = {}

    def registers(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self.names, self.widths))

    def spec(self, name: str) -> tuple[int, int, int]:
        """(shift, mask, width) of a register within a label."""
        try:
            return self._spec[name]
        except KeyError:
            raise ValueError(f"unknown register {name!r}") from None

    def value(self, label: int, name: str) -> int:
        shift, mask, _ = self.spec(name)
        return (label >> shift) & mask

    def drop_plan(self, names: tuple[str, ...]) -> tuple["RegisterLayout", int, tuple[tuple[int, int], ...]]:
        """The layout without the named registers, the mask of their bits, and
        (down, mask) per run of kept registers: a label whose dropped bits are
        0 becomes the sum of (label >> down) & mask over the runs."""
        plan = self._drop_plans.get(names)
        if plan is None:
            if not names or len(set(names)) != len(names):
                raise ValueError(f"registers to drop must be distinct and at least one, got {names!r}")
            zeroed = sum(mask << shift for shift, mask, _ in map(self.spec, names))
            # A kept register moves down by the widths dropped below it, so
            # the kept registers between two dropped ones share their down.
            runs: dict[int, int] = {}
            down = 0
            for name, width in reversed(self.registers()):
                shift, mask, _ = self._spec[name]
                if name in names:
                    down += width
                else:
                    runs[down] = runs.get(down, 0) | mask << shift - down
            kept = tuple(r for r in self.registers() if r[0] not in names)
            plan = self._drop_plans[names] = (cached_layout(kept), zeroed, tuple(runs.items()))
        return plan

    def format_label(self, label: int) -> str:
        if self.total_bits == 0:
            return ""
        return f"{label:0{self.total_bits}b}"

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterLayout) and self.registers() == other.registers()

    def __hash__(self):
        return hash(self.registers())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{w}" for n, w in self.registers())
        return f"RegisterLayout({inner})"


@lru_cache(maxsize=None)
def cached_layout(registers: tuple[tuple[str, int], ...]) -> RegisterLayout:
    """Shared immutable layout instance; register churn is hot in trial loops."""
    return RegisterLayout(registers)


class SparseState:
    """Joint quantum state as {basis label -> amplitude} over a layout."""

    __slots__ = ("layout", "amps")

    def __init__(self, layout: RegisterLayout, amps: Mapping[int, complex]):
        """Prune amplitudes of magnitude at most PRUNE_EPS into a new dict and
        require norm 1; non-finite amplitudes raise. unchecked_state builds
        a state without either."""
        kept = {}
        norm = 0.0
        for label, amp in amps.items():
            size = abs(amp)
            if size > PRUNE_EPS:
                kept[label] = amp
                norm += amp.real * amp.real + amp.imag * amp.imag
            elif not size <= PRUNE_EPS:
                raise ValueError(f"amplitude {amp!r} of label {label} is not finite")
        if not abs(norm - 1.0) <= NORM_EPS:
            raise ValueError(f"state norm {norm!r} departs from 1")
        self.layout = layout
        self.amps = kept

    # -- inspection -----------------------------------------------------

    @property
    def support_size(self) -> int:
        return len(self.amps)

    def norm(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self.amps.values())

    def dump(self) -> str:
        """One line per support label: '<bits> <re> <im>', ascending labels."""
        lines = []
        for label in sorted(self.amps):
            amp = self.amps[label]
            lines.append(f"{self.layout.format_label(label)} {amp.real!r} {amp.imag!r}")
        return "\n".join(lines)

    def _require_zeroed(self, name: str) -> None:
        shift, mask, _ = self.layout.spec(name)
        for label in self.amps:
            if (label >> shift) & mask:
                raise ValueError(f"register {name!r} must be all-zero in every support label")

    # -- preparation ----------------------------------------------------

    def prepare_qubit(self, reg: str, alpha: complex, beta: complex) -> "SparseState":
        """Put a zeroed 1-bit register into alpha|0> + beta|1>, unentangled."""
        shift, _, width = self.layout.spec(reg)
        if width != 1:
            raise ValueError(f"register {reg!r} must have width 1")
        alpha, beta = _normalized_pair(alpha, beta)
        self._require_zeroed(reg)
        new: dict[int, complex] = {}
        hi = 1 << shift
        for label, amp in self.amps.items():
            if abs(alpha) > PRUNE_EPS:
                new[label] = amp * alpha
            if abs(beta) > PRUNE_EPS:
                new[label | hi] = amp * beta
        return SparseState(self.layout, new)

    def uniform_superpose(self, reg: str) -> "SparseState":
        """Expand a zeroed register into the equal superposition of all values."""
        shift, _, width = self.layout.spec(reg)
        self._require_zeroed(reg)
        size = 1 << width
        scale = 1.0 / math.sqrt(size)
        new: dict[int, complex] = {}
        for label, amp in self.amps.items():
            scaled = amp * scale
            for v in range(size):
                new[label | (v << shift)] = scaled
        return SparseState(self.layout, new)

    # -- reversible evolution --------------------------------------------

    def coherent_eval(self, f: Callable[..., int], inputs: Sequence[str], target: str) -> "SparseState":
        """XOR f(input values) into the target register on every label.

        Amplitudes are untouched; repeating the call with the same
        arguments is the identity. With no inputs f() is a constant:
        coherent_eval(lambda: c, [], reg) erases a register known to hold c.
        """
        if target in inputs:
            raise ValueError("target register cannot also be an input")
        t_shift, t_mask, _ = self.layout.spec(target)
        if len(inputs) > 1:
            outs = self._apply(f, [self.layout.spec(name) for name in inputs])
        elif inputs:
            shift, mask, _ = self.layout.spec(inputs[0])
            outs = [f((label >> shift) & mask) for label in self.amps]
        else:
            outs = [f()] * len(self.amps)
        new: dict[int, complex] = {}
        for out, (label, amp) in zip(outs, self.amps.items()):
            if out & ~t_mask:
                raise ValueError(f"f output {out} exceeds register {target!r}")
            new[label ^ (out << t_shift)] = amp
        return unchecked_state(self.layout, new)

    # -- measurement -----------------------------------------------------

    def branches(self, regs: Sequence[str], f: Callable[..., int] | None = None
                 ) -> list[tuple[int, float, "SparseState"]]:
        """Every outcome of measuring the listed registers, or f of them:
        (value, probability, collapsed state), ascending by value,
        zero-probability outcomes skipped. With f, each state is projected
        onto one level set of f, exactly as XOR-ing f into a fresh ancilla,
        measuring it and discarding it would.

        An outcome's key is f of the listed registers' values, as in
        coherent_eval, or without f their bits concatenated in listed order.
        Its probability sums each label's re*re + im*im in ``amps`` order,
        and its state keeps its labels in that order."""
        weights: dict[int, float] = {}
        groups: dict[int, list[tuple[int, complex]]] = {}
        if len(regs) == 1 and f is None:
            shift, mask, _ = self.layout.spec(regs[0])
            for item in self.amps.items():
                label, amp = item
                key = (label >> shift) & mask
                w = weights.get(key)
                if w is None:
                    weights[key] = 0.0 + amp.real * amp.real + amp.imag * amp.imag
                    groups[key] = [item]
                else:
                    weights[key] = w + amp.real * amp.real + amp.imag * amp.imag
                    groups[key].append(item)
        else:
            specs = [self.layout.spec(r) for r in regs]
            if len(specs) == 1:
                shift, mask, _ = specs[0]
                keys = list(map(f, [(label >> shift) & mask for label in self.amps]))
            elif f is None:
                keys = [0] * len(self.amps)
                for shift, mask, width in specs:
                    keys = [k << width | (label >> shift) & mask for k, label in zip(keys, self.amps)]
            else:
                keys = self._apply(f, specs)
            for key, item in zip(keys, self.amps.items()):
                amp = item[1]
                w = weights.get(key)
                if w is None:
                    weights[key] = 0.0 + amp.real * amp.real + amp.imag * amp.imag
                    groups[key] = [item]
                else:
                    weights[key] = w + amp.real * amp.real + amp.imag * amp.imag
                    groups[key].append(item)
        out = []
        for value in sorted(weights) if len(weights) > 1 else weights:
            prob = weights[value]
            if prob > 0.0:
                scale = 1.0 / math.sqrt(prob)
                kept = {label: amp * scale for label, amp in groups[value]}
                out.append((value, prob, unchecked_state(self.layout, kept)))
        return out

    def _apply(self, f: Callable[..., int], specs: list[tuple[int, int, int]]) -> list[int]:
        """f of the values of the registers with these specs, per label in
        ``amps`` order; the values are read a register at a time."""
        columns = [[(label >> s) & m for label in self.amps] for s, m, _ in specs]
        return list(map(f, *columns)) if columns else [f() for _ in self.amps]

    # -- analysis and disposal --------------------------------------------

    def fidelity_pure(self, reg: str, alpha: complex, beta: complex) -> float:
        """Overlap <psi|rho|psi> of a 1-bit register's reduced state with (alpha, beta)."""
        shift, _, width = self.layout.spec(reg)
        if width != 1:
            raise ValueError(f"register {reg!r} must have width 1")
        alpha, beta = _normalized_pair(alpha, beta)
        hi = 1 << shift
        components: dict[int, list[complex]] = {}
        for label, amp in self.amps.items():
            rest = label & ~hi
            pair = components.get(rest)
            if pair is None:
                pair = [0j, 0j]
                components[rest] = pair
            pair[(label >> shift) & 1] = amp
        ca = alpha.conjugate()
        cb = beta.conjugate()
        fid = 0.0
        for c0, c1 in components.values():
            overlap = ca * c0 + cb * c1
            fid += overlap.real * overlap.real + overlap.imag * overlap.imag
        return fid

    def discard_zeroed(self, *regs: str) -> "SparseState":
        """Drop registers proven to be |0..0| on every support label.

        Raises UncomputationError otherwise, for the first in argument
        order, as the chain of one-register discards would: a failed
        discard means some erase step upstream did not actually uncompute
        the register. An empty or repeated list raises ValueError.
        """
        layout, zeroed, runs = self.layout.drop_plan(regs)
        for label in self.amps:
            if label & zeroed:
                if len(regs) > 1:  # the chain raises, for the first register held
                    reduce(SparseState.discard_zeroed, regs, self)
                raise UncomputationError(
                    f"register {regs[0]!r} not uncomputed: support label "
                    f"{self.layout.format_label(label)} has nonzero bits"
                )
        if len(runs) == 1:
            down = runs[0][0]
            return unchecked_state(layout, {label >> down: amp for label, amp in self.amps.items()})
        return unchecked_state(layout, {sum([(label >> down) & mask for down, mask in runs]): amp
                                        for label, amp in self.amps.items()})


def _normalized_pair(alpha: complex, beta: complex) -> tuple[complex, complex]:
    """The pair as complex numbers; ValueError unless |alpha|^2 + |beta|^2 = 1.

    A NaN, infinite or overflowing part fails the comparison.
    """
    try:
        alpha, beta = complex(alpha), complex(beta)
        norm = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        norm = math.inf
    if not abs(norm - 1.0) <= NORM_EPS:
        raise ValueError(f"amplitudes ({alpha!r}, {beta!r}) are not normalized")
    return alpha, beta


def unchecked_state(layout: RegisterLayout, amps: dict[int, complex]) -> SparseState:
    """A SparseState that takes amps over, uncopied, without the prune and
    norm check of SparseState(layout, amps): for a dict made from a checked
    state by a map that keeps its norm, or by a renormalized collapse."""
    state = _new(SparseState)
    state.layout, state.amps = layout, amps
    return state


_new = object.__new__


def init_state(layout: RegisterLayout) -> SparseState:
    """All registers |0..0| with amplitude 1."""
    return unchecked_state(layout, {0: complex(1.0)})


_QUBIT = cached_layout((("B", 1),))


def block_amplitudes(alpha: complex, beta: complex, n: int) -> dict[int, complex]:
    """b -> the amplitude every label of block b holds in
    (alpha|0> + beta|1>) (x) 2^(-n/2) sum_v |v>, v over n-bit strings.

    Made by prepare_qubit, with its checks and prune, then the scale of
    uniform_superpose and its prune: (1+0j)*alpha, then * 2^(-n/2). So
    the floats are the ones a sparse state prepared in that order holds.
    The other order, (1+0j) * 2^(-n/2), then * alpha, gives the same
    float.hex for every sign and zero of alpha's parts but -0-0j, which
    both prune.
    """
    qubit = init_state(_QUBIT).prepare_qubit("B", alpha, beta)
    scale = 1.0 / math.sqrt(1 << n)
    blocks = {}
    for b, amp in qubit.amps.items():
        scaled = amp * scale
        if abs(scaled) > PRUNE_EPS:
            blocks[b] = scaled
    return blocks


_PSI_PARTS = struct.Struct("4d")


def psi_key(alpha: complex, beta: complex) -> bytes:
    """psi's four float parts packed bit for bit: a cache key for work on psi
    alone that, unlike psi itself, tells 0.0 from -0.0, as block_amplitudes
    does."""
    return _PSI_PARTS.pack(alpha.real, alpha.imag, beta.real, beta.imag)


def psi_from_key(key: bytes) -> tuple[complex, complex]:
    """The (alpha, beta) that psi_key packed into key."""
    re_a, im_a, re_b, im_b = _PSI_PARTS.unpack(key)
    return complex(re_a, im_a), complex(re_b, im_b)


def choose(outcomes: Iterable[tuple], rng: Random) -> tuple:
    """Born pick of one outcome from outcomes in ascending value order.

    Each outcome is a tuple whose [1] is its weight, such as (value, weight)
    or a branches triple; the chosen one is returned whole. Draws one
    rng.random() u and returns the first outcome whose cumulative weight
    exceeds u; when float dust leaves the total at or below u, the last
    outcome. A chosen weight outside (0, 1 + 1e-9], possible only for an
    unchecked state, raises ValueError, as does an empty list.
    """
    u = rng.random()
    acc = 0.0
    outcome = (None, 0.0)
    for outcome in outcomes:
        acc += outcome[1]
        if u < acc:
            break
    check_weight(outcome[1])
    return outcome


def check_weight(weight: float) -> float:
    """A Born pick's chosen weight, or ValueError unless it lies in (0, 1 + 1e-9]."""
    if not 0.0 < weight <= 1.0 + 1e-9:
        raise ValueError(f"outcome probability {weight} outside (0, 1]")
    return weight


def repeated_weight(runs: Iterable[tuple[complex, int]]) -> float:
    """The weight branches sums over labels that repeat a few amplitudes.

    ``runs`` lists (amplitude, count) in label order. Each label adds
    re*re + im*im to the running weight, left to right, as in branches, so
    the result is float-equal to branches'; ``sum`` (compensated from
    Python 3.12) or count * |a|^2 would not be.
    """
    w = 0.0
    for amp, count in runs:
        rr = amp.real * amp.real
        ii = amp.imag * amp.imag
        # Four labels per pass: + is left-associative, so the adds keep their order.
        for _ in range(count >> 2):
            w = w + rr + ii + rr + ii + rr + ii + rr + ii
        for _ in range(count & 3):
            w = w + rr + ii
    return w
