import math
import re
from random import Random

import pytest

from bcsim import qsim
from bcsim.perm import ToyPermutation
from bcsim.qsim import (
    RegisterLayout,
    SparseState,
    UncomputationError,
    cached_layout,
    choose,
    init_state,
    unchecked_state,
)

RT2 = 1 / math.sqrt(2)


def single_qubit():
    return init_state(RegisterLayout([("B", 1)]))


def weights(s, regs, f=None):
    """Each outcome's Born weight, as branches(regs, f) lists them."""
    return {value: prob for value, prob, _ in s.branches(regs, f)}


def pick(s, regs, rng, f=None):
    """A measurement of regs, or of f of them: the Born pick among branches(regs, f)."""
    return choose(s.branches(regs, f), rng)


def epr_pairs(s, a, b):
    """Correlated pairs on zeroed same-width registers a and b."""
    return s.uniform_superpose(a).coherent_eval(lambda v: v, [a], b)


# The SparseState bodies that measure, epr_pairs and xor_constant had before
# measure picked from branches and coherent_eval took both jobs over. The
# expressions that replaced them must give the same floats, dict order and
# RNG use.

def ref_measure(s, regs, rng, f=None):
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
    chosen, prob = inline_choose(weights, rng.random())
    if not 0.0 < prob <= 1.0 + 1e-9:
        raise ValueError(f"outcome probability {prob} outside (0, 1]")
    scale = 1.0 / math.sqrt(prob)
    kept = {label: amp * scale for key, (label, amp) in zip(keys, s.amps.items()) if key == chosen}
    return chosen, prob, unchecked_state(s.layout, kept)


def ref_epr_pairs(s, reg_a, reg_b):
    shift_a, _, width_a = s.layout.spec(reg_a)
    shift_b, _, width_b = s.layout.spec(reg_b)
    if width_a != width_b:
        raise ValueError(f"width mismatch: {reg_a!r}={width_a}, {reg_b!r}={width_b}")
    s._require_zeroed(reg_a)
    s._require_zeroed(reg_b)
    size = 1 << width_a
    scale = 1.0 / math.sqrt(size)
    new = {}
    for label, amp in s.amps.items():
        scaled = amp * scale
        for v in range(size):
            new[label | (v << shift_a) | (v << shift_b)] = scaled
    return SparseState(s.layout, new)


def ref_coherent_eval(s, f, inputs, target):
    """coherent_eval's loop, which called f on a generator per label for any
    number of inputs."""
    t_shift, t_mask, _ = s.layout.spec(target)
    specs = [s.layout.spec(name)[:2] for name in inputs]
    new = {}
    for label, amp in s.amps.items():
        out = f(*((label >> sh) & m for sh, m in specs))
        if out & ~t_mask:
            raise ValueError(f"f output {out} exceeds register {target!r}")
        new[label ^ (out << t_shift)] = amp
    return unchecked_state(s.layout, new)


def ref_xor_constant(s, reg, value):
    shift, mask, _ = s.layout.spec(reg)
    if value & ~mask:
        raise ValueError(f"value {value} exceeds register {reg!r}")
    patch = value << shift
    return unchecked_state(s.layout, {label ^ patch: amp for label, amp in s.amps.items()})


def ref_discard_zeroed(s, reg):
    """discard_zeroed's body when it dropped one register per call."""
    shift, mask, width = s.layout.spec(reg)
    for label in s.amps:
        if (label >> shift) & mask:
            raise UncomputationError(
                f"register {reg!r} not uncomputed: support label "
                f"{s.layout.format_label(label)} has nonzero bits"
            )
    low_mask = (1 << shift) - 1
    drop = shift + width
    new = {((label >> drop) << shift) | (label & low_mask): amp for label, amp in s.amps.items()}
    return unchecked_state(cached_layout(tuple(r for r in s.layout.registers() if r[0] != reg)), new)


def exact(s):
    """Everything of a state that a float-level difference would change."""
    return s.layout, [(label, amp.real.hex(), amp.imag.hex()) for label, amp in s.amps.items()]


class TestLayout:
    def test_packing_is_declaration_order(self):
        layout = RegisterLayout([("A", 2), ("B", 3)])
        label = 0b10110
        assert layout.value(label, "A") == 0b10
        assert layout.value(label, "B") == 0b110
        assert layout.format_label(label) == "10110"

    def test_duplicate_and_zero_width_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout([("A", 1), ("A", 1)])
        with pytest.raises(ValueError):
            RegisterLayout([("A", 0)])

    def test_unknown_register(self):
        with pytest.raises(ValueError):
            RegisterLayout([("A", 1)]).spec("Q")

    def test_cached_layouts_are_shared(self):
        a = cached_layout((("A", 1), ("B", 2)))
        b = cached_layout((("A", 1), ("B", 2)))
        assert a is b

    @pytest.mark.parametrize("make", [cached_layout, RegisterLayout], ids=["cached", "fresh"])
    def test_drop_plan_is_the_shared_layout_and_refuses_every_time(self, make):
        layout = make((("A", 1), ("B", 2), ("C", 3)))
        rest = cached_layout((("A", 1), ("C", 3)))
        plan = layout.drop_plan(("B",))
        assert plan == (rest, 0b011000, ((0, 0b111), (2, 0b1000)))
        assert plan[0] is rest and layout.drop_plan(("B",)) is plan
        for names, match in [(("Q",), "unknown register 'Q'"), (("B", "Q"), "unknown register 'Q'"),
                             ((), "distinct"), (("B", "B"), "distinct")] * 3:
            with pytest.raises(ValueError, match=match):
                layout.drop_plan(names)
        assert layout.drop_plan(("B",)) is plan


class TestInitAndPrepare:
    def test_init_single_register(self):
        s = single_qubit()
        assert s.amps == {0: 1.0 + 0j}
        assert s.norm() == 1.0

    def test_init_two_registers(self):
        s = init_state(RegisterLayout([("X", 3), ("Y", 3)]))
        assert s.amps == {0: 1.0 + 0j}

    def test_prepare_trivial_alpha_one(self):
        s = single_qubit().prepare_qubit("B", 1, 0)
        assert s.amps == {0: 1.0 + 0j}

    def test_prepare_hadamard(self):
        s = single_qubit().prepare_qubit("B", RT2, RT2)
        assert s.support_size == 2
        assert abs(s.amps[0] - RT2) < 1e-12
        assert abs(s.amps[1] - RT2) < 1e-12

    def test_prepare_born_weights(self):
        s = single_qubit().prepare_qubit("B", 0.6, 0.8j)
        assert weights(s, ["B"]) == pytest.approx({0: 0.36, 1: 0.64})

    def test_prepare_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            single_qubit().prepare_qubit("B", 1, 1)

    def test_prepare_rejects_nonzero_register(self):
        s = single_qubit().prepare_qubit("B", 0, 1)
        with pytest.raises(ValueError):
            s.prepare_qubit("B", 1, 0)


class TestSuperposeAndEpr:
    def test_width_one(self):
        s = init_state(RegisterLayout([("X", 1)])).uniform_superpose("X")
        assert s.amps == pytest.approx({0: RT2, 1: RT2})

    def test_width_three(self):
        s = init_state(RegisterLayout([("X", 3)])).uniform_superpose("X")
        assert s.support_size == 8
        assert all(abs(a - 1 / math.sqrt(8)) < 1e-12 for a in s.amps.values())

    def test_tensor_structure_leaves_other_register_zero(self):
        s = init_state(RegisterLayout([("X", 2), ("Y", 2)])).uniform_superpose("X")
        assert s.support_size == 4
        assert all(s.layout.value(label, "Y") == 0 for label in s.amps)

    def test_epr_single_pair(self):
        s = epr_pairs(init_state(RegisterLayout([("A", 1), ("B", 1)])), "A", "B")
        assert s.amps == pytest.approx({0b00: RT2, 0b11: RT2})

    def test_epr_two_pairs(self):
        s = epr_pairs(init_state(RegisterLayout([("A", 2), ("B", 2)])), "A", "B")
        assert s.support_size == 4
        for label in s.amps:
            assert s.layout.value(label, "A") == s.layout.value(label, "B")
            assert abs(s.amps[label] - 0.5) < 1e-12

    def test_epr_measurements_always_agree(self):
        for seed in range(20):
            s = epr_pairs(init_state(RegisterLayout([("A", 2), ("B", 2)])), "A", "B")
            rng = Random(seed)
            a, _, s = pick(s, ["A"], rng)
            b, prob_b, _ = pick(s, ["B"], rng)
            assert a == b
            assert prob_b == 1.0


class TestCoherentEval:
    def test_copy(self):
        s = init_state(RegisterLayout([("X", 2), ("Y", 2)])).uniform_superpose("X")
        s = s.coherent_eval(lambda x: x, ["X"], "Y")
        for label in s.amps:
            assert s.layout.value(label, "X") == s.layout.value(label, "Y")

    def test_self_inverse_is_exact(self):
        s = init_state(RegisterLayout([("X", 3), ("Y", 3)])).uniform_superpose("X")
        evolved = s.coherent_eval(lambda x: (3 * x + 1) % 8, ["X"], "Y")
        assert evolved.coherent_eval(lambda x: (3 * x + 1) % 8, ["X"], "Y").amps == s.amps

    def test_permutation_image(self):
        p = ToyPermutation(3)
        s = init_state(RegisterLayout([("X", 3), ("Y", 3)])).uniform_superpose("X")
        s = s.coherent_eval(p.forward_int, ["X"], "Y")
        assert s.support_size == 8
        for label in s.amps:
            assert abs(s.amps[label] - 1 / math.sqrt(8)) < 1e-12
            assert s.layout.value(label, "Y") == p.forward_int(s.layout.value(label, "X"))
        x_one = next(l for l in s.amps if s.layout.value(l, "X") == 1)
        assert s.layout.value(x_one, "Y") == 0

    def test_amplitudes_untouched(self):
        s = init_state(RegisterLayout([("B", 1), ("F", 1)])).prepare_qubit("B", 0.6, 0.8j)
        out = s.coherent_eval(lambda b: 1 - b, ["B"], "F")
        assert sorted(map(abs, out.amps.values())) == pytest.approx([0.6, 0.8])

    def test_output_width_enforced(self):
        s = init_state(RegisterLayout([("X", 2), ("F", 1)]))
        with pytest.raises(ValueError):
            s.coherent_eval(lambda x: 2, ["X"], "F")

    def test_unknown_register(self):
        with pytest.raises(ValueError):
            single_qubit().coherent_eval(lambda x: x, ["Q"], "B")

    def test_target_cannot_be_input(self):
        s = init_state(RegisterLayout([("X", 2)]))
        with pytest.raises(ValueError):
            s.coherent_eval(lambda x: x, ["X"], "X")

    @staticmethod
    def _random_state(seed: int) -> SparseState:
        rng = Random(seed)
        layout = RegisterLayout([("B", 1), ("R", 3), ("Z", 3), ("P", 2)])
        amps = {rng.randrange(1 << layout.total_bits): complex(rng.gauss(0, 1), rng.gauss(0, 1))
                for _ in range(40)}
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        return SparseState(layout, {label: a / norm for label, a in amps.items()})

    def test_two_input_output_width_enforced(self):
        s = self._random_state(0)
        with pytest.raises(ValueError):
            s.coherent_eval(lambda b, r: 8, ["B", "R"], "Z")


class TestMeasure:
    def test_point_mass_outcome(self):
        s = single_qubit().prepare_qubit("B", 0, 1)
        value, prob, post = pick(s, ["B"], Random(0))
        assert value == 1 and prob == 1.0
        assert post.amps == s.amps

    def test_hadamard_frequencies(self):
        rng = Random(42)
        n_samples = 10_000
        s = single_qubit().prepare_qubit("B", RT2, RT2)
        ones = sum(pick(s, ["B"], rng)[0] for _ in range(n_samples))
        sigma = math.sqrt(0.25 / n_samples)
        assert abs(ones / n_samples - 0.5) <= 3 * sigma

    def test_born_frequency_within_three_sigma(self):
        s = single_qubit().prepare_qubit("B", 0.5, math.sqrt(0.75))
        rng = Random(13)
        n_samples = 10_000
        ones = sum(pick(s, ["B"], rng)[0] for _ in range(n_samples))
        sigma = math.sqrt(0.25 * 0.75 / n_samples)
        assert abs(ones / n_samples - 0.75) <= 3 * sigma

    def test_epr_collapse_is_exact(self):
        s = epr_pairs(init_state(RegisterLayout([("A", 1), ("B", 1)])), "A", "B")
        value, _, post = s.branches(["A"])[0]
        assert value == 0
        assert post.amps == {0: pytest.approx(1.0)}

    def test_collapse_renormalizes(self):
        s = single_qubit().prepare_qubit("B", 0.6, 0.8)
        value, prob, post = s.branches(["B"])[1]
        assert value == 1
        assert prob == pytest.approx(0.64)
        assert abs(post.amps[1] - 1.0) < 1e-12

    def test_joint_measurement_concatenates(self):
        s = init_state(RegisterLayout([("A", 1), ("B", 2)]))
        s = s.prepare_qubit("A", 0, 1).coherent_eval(lambda a: 3 * a, ["A"], "B")
        value, _, _ = pick(s, ["A", "B"], Random(1))
        assert value == 0b111

    @pytest.mark.parametrize("amp", [2.0, 0.0], ids=["above-one", "zero"])
    def test_impossible_weight_rejected(self, amp):
        # Only an unchecked state can hold such a weight.
        s = unchecked_state(RegisterLayout([("B", 1)]), {0: complex(amp)})
        with pytest.raises(ValueError, match="outside"):
            pick(s, ["B"], Random(0))


class FixedDraw:
    """Stands in for Random: random() returns u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def inline_choose(weights, u):
    """The cumulative pick measure made inline before choose took it over."""
    values = sorted(weights)
    chosen = values[-1]  # guard: float dust may leave the cumulative < 1
    acc = 0.0
    for value in values:
        acc += weights[value]
        if u < acc:
            chosen = value
            break
    return chosen, weights[chosen]


class TestChoose:
    @pytest.mark.parametrize("seed", range(40))
    def test_choose_picks_what_the_inline_loop_picked(self, seed):
        rng = Random(seed)
        k = rng.randint(1, 6)
        raw = [rng.random() for _ in range(k)]
        total = sum(raw)
        weights = {v: w / total for v, w in zip(rng.sample(range(64), k), raw)}
        for u in (rng.random(), 0.0, weights[min(weights)], math.nextafter(1.0, 0.0)):
            assert choose(sorted(weights.items()), FixedDraw(u)) == inline_choose(weights, u)

    def test_choose_guard_takes_the_last_outcome(self):
        weights = {0: 0.1, 1: 0.2, 2: 0.7 - 1e-12}
        u = 1.0 - 1e-13
        assert u >= 0.1 + 0.2 + (0.7 - 1e-12)
        picked = choose(sorted(weights.items()), FixedDraw(u))
        assert picked == inline_choose(weights, u) == (2, 0.7 - 1e-12)

    @pytest.mark.parametrize("outcomes,u", [
        ([(0, 0.5), (1, 0.0)], 0.75),
        ([(0, 1.5)], 0.2),
        ([(0, 0.5), (1, -0.25)], 0.9),
        ([(0, float("nan"))], 0.5),
        ([], 0.5),
    ], ids=["zero", "above-one", "negative", "nan", "empty"])
    def test_choose_rejects_a_weight_outside_the_unit_interval(self, outcomes, u):
        with pytest.raises(ValueError, match="outside"):
            choose(outcomes, FixedDraw(u))

    def test_choose_accepts_float_dust_above_one(self):
        assert choose([(3, 1.0 + 1e-10)], FixedDraw(0.5)) == (3, 1.0 + 1e-10)


class TestMarginal:
    """Branch weights are the exact Born marginal of the measured registers."""

    def test_point_mass(self):
        assert weights(single_qubit(), ["B"]) == {0: 1.0}

    def test_epr_half_half(self):
        s = epr_pairs(init_state(RegisterLayout([("A", 1), ("B", 1)])), "A", "B")
        assert weights(s, ["A"]) == pytest.approx({0: 0.5, 1: 0.5})

    def test_squared_magnitudes(self):
        s = single_qubit().prepare_qubit("B", 0.6, 0.8j)
        assert weights(s, ["B"]) == pytest.approx({0: 0.36, 1: 0.64})

    def test_sums_to_one(self):
        s = init_state(RegisterLayout([("X", 3)])).uniform_superpose("X")
        assert sum(weights(s, ["X"]).values()) == pytest.approx(1.0, abs=1e-10)


def with_ancilla(s, width):
    """s with a zeroed register A appended at the least significant end."""
    layout = RegisterLayout(s.layout.registers() + (("A", width),))
    return unchecked_state(layout, {label << width: amp for label, amp in s.amps.items()})


def ancilla_measure(s, regs, f, width, rng):
    """Reference form of pick(s, regs, rng, f): XOR f into a fresh ancilla,
    measure the ancilla, erase it with the announced value, discard it."""
    s = with_ancilla(s, width).coherent_eval(f, regs, "A")
    value, prob, s = ref_measure(s, ["A"], rng)
    return value, prob, ref_xor_constant(s, "A", value).discard_zeroed("A")


def ancilla_branches(s, regs, f, width):
    """Reference form of branches(regs, f): XOR f into a fresh ancilla; for
    each ancilla value, ascending, sum its labels' squared magnitudes in amps
    order, keep and rescale those labels, then erase and discard the ancilla."""
    s = with_ancilla(s, width).coherent_eval(f, regs, "A")
    out = []
    for value in sorted({s.layout.value(label, "A") for label in s.amps}):
        kept = {label: amp for label, amp in s.amps.items() if s.layout.value(label, "A") == value}
        prob = 0.0
        for amp in kept.values():
            prob = prob + amp.real * amp.real + amp.imag * amp.imag
        scale = 1.0 / math.sqrt(prob)
        post = unchecked_state(s.layout, {label: amp * scale for label, amp in kept.items()})
        out.append((value, prob, ref_xor_constant(post, "A", value).discard_zeroed("A")))
    return out


def random_state(rng):
    layout = RegisterLayout([("B", 1), ("X", 2), ("Y", 3)])
    labels = rng.sample(range(1 << layout.total_bits), rng.randint(1, 24))
    amps = {label: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for label in labels}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return SparseState(layout, {label: a / norm for label, a in amps.items()})


FUSED_CASES = {
    "parity": (["Y"], lambda y: (0b101 & y).bit_count() & 1, 1),
    "b-xor-match": (["B", "Y"], lambda b, y: b ^ (y == 0b011), 1),
    "identity": (["Y"], lambda y: y, 3),
    "identity-joint": (["B", "Y"], lambda b, y: (b << 3) | y, 4),
}


class TestFusedMeasure:
    @pytest.mark.parametrize("case", list(FUSED_CASES))
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_ancilla_form_exactly(self, case, seed):
        regs, f, width = FUSED_CASES[case]
        s = random_state(Random(seed))
        value, prob, post = pick(s, regs, Random(f"m{seed}"), f)
        ref_value, ref_prob, ref_post = ancilla_measure(s, regs, f, width, Random(f"m{seed}"))
        assert (value, prob) == (ref_value, ref_prob)
        assert post.layout == ref_post.layout
        assert list(post.amps.items()) == list(ref_post.amps.items())

    @pytest.mark.parametrize("case", list(FUSED_CASES))
    @pytest.mark.parametrize("seed", range(12))
    def test_measure_returns_a_branches_triple(self, case, seed):
        # A sampled measurement is the listed triple whose cumulative-weight
        # interval holds one uniform draw, or the last one past float dust.
        regs, _, _ = FUSED_CASES[case]
        s = random_state(Random(seed))
        listed = s.branches(regs)
        u, below = Random(f"m{seed}").random(), 0.0
        expected = listed[-1]
        for triple in listed:
            if below <= u < below + triple[1]:
                expected = triple
                break
            below += triple[1]
        value, prob, post = pick(s, regs, Random(f"m{seed}"))
        assert (value, prob) == expected[:2]
        assert post.layout == expected[2].layout
        assert list(post.amps.items()) == list(expected[2].amps.items())

    @pytest.mark.parametrize("case", list(FUSED_CASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_branches_enumerate_every_outcome(self, case, seed):
        regs, f, width = FUSED_CASES[case]
        s = random_state(Random(seed))
        branches = s.branches(regs, f)
        ref = ancilla_branches(s, regs, f, width)
        assert [(v, p) for v, p, _ in branches] == [(v, p) for v, p, _ in ref]
        assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-12)
        for (_, _, post), (_, _, ref_post) in zip(branches, ref):
            assert list(post.amps.items()) == list(ref_post.amps.items())

    @pytest.mark.parametrize("seed", range(4))
    def test_branch_weights_equal_the_marginal(self, seed):
        s = random_state(Random(seed))
        for regs, concat in ((["Y"], lambda y: y), (["B", "X"], lambda b, x: (b << 2) | x)):
            marginal = {v: p for v, p, _ in ancilla_branches(s, regs, concat, 3)}
            assert weights(s, regs) == marginal
            assert sum(marginal.values()) == pytest.approx(1.0, abs=1e-12)


def padded_state(rng, width):
    """A random checked state on B and X, with Y and Z zeroed; X, Y and Z are width bits."""
    layout = RegisterLayout([("B", 1), ("X", width), ("Y", width), ("Z", width)])
    picks = rng.sample(range(2 << width), rng.randint(1, min(6, 2 << width)))
    amps = {pick << 2 * width: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for pick in picks}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return SparseState(layout, {label: a / norm for label, a in amps.items()})


def assert_measures_agree(s, regs, f, seed, draws=6):
    rng, ref_rng = Random(seed), Random(seed)
    for _ in range(draws):
        value, prob, post = pick(s, regs, rng, f)
        ref_value, ref_prob, ref_post = ref_measure(s, regs, ref_rng, f)
        assert (value, prob.hex()) == (ref_value, ref_prob.hex())
        assert exact(post) == exact(ref_post)
    assert rng.random() == ref_rng.random()


class TestAgainstReplacedBodies:
    @pytest.mark.parametrize("case", list(FUSED_CASES) + ["Y", "B-X"])
    @pytest.mark.parametrize("seed", range(12))
    def test_measure_matches_reference_on_random_states(self, case, seed):
        regs, f, _ = FUSED_CASES.get(case, (case.split("-"), None, 0))
        assert_measures_agree(random_state(Random(seed)), regs, f, f"m{seed}")

    @pytest.mark.parametrize("width", range(1, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_measure_and_pairs_match_reference_by_width(self, width, seed):
        rng = Random(f"{width}:{seed}")
        s = padded_state(rng, width)
        pairs = epr_pairs(s, "Y", "Z")
        assert exact(pairs) == exact(ref_epr_pairs(s, "Y", "Z"))
        parity = lambda x: (x & 0b101101).bit_count() & 1
        for state, regs, f in ((s, ["X"], None), (s, ["B", "X"], None), (s, ["X"], parity),
                               (pairs, ["Y"], None), (pairs, ["B", "Z"], None)):
            assert_measures_agree(state, regs, f, rng.random())

    @pytest.mark.parametrize("source,target,f", [
        ("B", "Y", lambda b: 5 * b + 2), ("X", "Y", lambda x: (3 * x + 1) & 7),
        ("Y", "X", lambda y: y), ("Y", "B", lambda y: y & 1), ("B", "X", lambda b: 4 + b),
    ], ids=["B-Y", "X-Y", "Y-X", "Y-B", "B-X-overflow"])
    @pytest.mark.parametrize("seed", range(12))
    def test_one_input_eval_matches_the_generic_loop(self, source, target, f, seed):
        s = random_state(Random(seed))
        try:
            ref = ref_coherent_eval(s, f, [source], target)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                s.coherent_eval(f, [source], target)
            return
        out = s.coherent_eval(f, [source], target)
        assert out.layout is s.layout
        assert list(out.amps.items()) == list(ref.amps.items())

    @pytest.mark.parametrize("width", range(1, 7))
    def test_zero_input_eval_matches_xor_constant(self, width):
        rng = Random(width)
        s = epr_pairs(padded_state(rng, width), "Y", "Z")
        mask = (1 << width) - 1
        for reg in ("X", "Y", "Z"):
            for c in (0, 1, mask, rng.randrange(mask + 1)):
                assert exact(s.coherent_eval(lambda: c, [], reg)) == exact(ref_xor_constant(s, reg, c))

    def test_zero_weight_outcome_is_never_picked(self):
        # The one divergence, on an unchecked state only: when float dust
        # leaves the total at or below u, the replaced loop fell through to
        # a zero-weight last outcome and raised; the pick takes the last
        # outcome that has weight.
        half = math.sqrt(0.5)
        s = unchecked_state(RegisterLayout([("X", 2)]),
                            {0: complex(half), 1: complex(half - 1e-12), 2: 0j})
        u = 1.0 - 1e-13
        assert u >= half * half + (half - 1e-12) ** 2
        with pytest.raises(ValueError, match="outside"):
            ref_measure(s, ["X"], FixedDraw(u))
        assert pick(s, ["X"], FixedDraw(u))[0] == 1


class TestBranchesCollapseEachOutcomeOnce:
    @pytest.mark.parametrize("regs,count", [(["B"], 2), (["X"], 4), (["Y"], 4), (["B", "X"], 8),
                                            (["X", "Y", "B"], 8)])
    @pytest.mark.parametrize("seed", range(6))
    def test_one_collapsed_state_per_outcome(self, monkeypatch, regs, count, seed):
        s = init_state(RegisterLayout([("B", 1), ("X", 2), ("Y", 3)]))
        s = s.prepare_qubit("B", 0.6, 0.8j).uniform_superpose("X")
        s = s.coherent_eval(lambda b, x: (x * x + 3 * b) % 6, ["B", "X"], "Y")
        unchecked, built = qsim.unchecked_state, []

        def spy(layout, amps):
            built.append(len(amps))
            return unchecked(layout, amps)

        monkeypatch.setattr(qsim, "unchecked_state", spy)
        listed = s.branches(regs)
        assert len(listed) == count
        # Each label lands in exactly one collapsed state, built once.
        assert built == [post.support_size for _, _, post in listed]
        assert sum(built) == s.support_size
        # Picking one of them builds nothing more.
        assert choose(listed, Random(f"c{seed}")) in listed
        assert len(built) == count


class TestFidelity:
    def test_untouched_register_scores_one(self):
        s = single_qubit().prepare_qubit("B", 0.6, 0.8j)
        assert s.fidelity_pure("B", 0.6, 0.8j) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled_scores_half(self):
        s = epr_pairs(init_state(RegisterLayout([("A", 1), ("B", 1)])), "A", "B")
        assert s.fidelity_pure("A", 1, 0) == pytest.approx(0.5, abs=1e-12)

    def test_complex_overlap_scores_its_squared_modulus(self):
        s = single_qubit().uniform_superpose("B")
        assert s.fidelity_pure("B", math.sqrt(0.5), 1j * math.sqrt(0.5)) == pytest.approx(
            0.5, abs=1e-12)

    def test_orthogonal_state_scores_zero(self):
        s = single_qubit().prepare_qubit("B", 1, 0)
        assert s.fidelity_pure("B", 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_wide_register_rejected(self):
        s = init_state(RegisterLayout([("X", 2)]))
        with pytest.raises(ValueError):
            s.fidelity_pure("X", 1, 0)


class TestDiscardAndAncillas:
    def test_fresh_ancilla_discards_cleanly(self):
        s = init_state(RegisterLayout([("X", 2), ("R", 1)])).uniform_superpose("X")
        out = s.discard_zeroed("R")
        assert out.layout.names == ("X",)
        assert out.support_size == 4

    def test_copy_then_uncopy_then_discard(self):
        s = init_state(RegisterLayout([("X", 2), ("Y", 2)])).uniform_superpose("X")
        s = s.coherent_eval(lambda x: x, ["X"], "Y")
        s = s.coherent_eval(lambda x: x, ["X"], "Y")
        out = s.discard_zeroed("Y")
        assert out.layout.names == ("X",)
        assert all(abs(a - 0.5) < 1e-12 for a in out.amps.values())

    def test_discarding_entangled_register_raises(self):
        s = init_state(RegisterLayout([("X", 2), ("Y", 2)])).uniform_superpose("X")
        s = s.coherent_eval(lambda x: x, ["X"], "Y")
        with pytest.raises(UncomputationError):
            s.discard_zeroed("Y")

    @staticmethod
    def zeroed_state(rng):
        """A random state on 3-5 registers, of which the ones returned are 0 on every label."""
        names = rng.sample("ABCDE", rng.randint(3, 5))
        layout = RegisterLayout([(name, rng.randint(1, 3)) for name in names])
        zeroed = rng.sample(names, rng.randint(1, len(names)))
        live = sum(layout.spec(name)[1] << layout.spec(name)[0] for name in names if name not in zeroed)
        labels = {rng.randrange(1 << layout.total_bits) & live for _ in range(rng.randint(1, 8))}
        amps = {label: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for label in labels}
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        return SparseState(layout, {label: a / norm for label, a in amps.items()}), zeroed

    @pytest.mark.parametrize("seed", range(40))
    def test_one_call_discard_is_the_chain_of_single_discards(self, seed):
        rng = Random(seed)
        s, zeroed = self.zeroed_state(rng)
        for k in range(1, len(zeroed) + 1):
            regs = rng.sample(zeroed, k)
            chain = s
            for reg in regs:
                chain = ref_discard_zeroed(chain, reg)
            out = s.discard_zeroed(*regs)
            assert out.layout is chain.layout
            assert exact(out) == exact(chain)

    @pytest.mark.parametrize("seed", range(40))
    def test_one_call_discard_raises_what_the_chain_raises(self, seed):
        rng = Random(seed)
        s, zeroed = self.zeroed_state(rng)
        held = [name for name in s.layout.names if any(s.layout.value(label, name) for label in s.amps)]
        if not held:
            s, held = s.coherent_eval(lambda: 1, [], s.layout.names[-1]), [s.layout.names[-1]]
            zeroed = [name for name in zeroed if name != held[0]]
        regs = rng.sample(zeroed, rng.randint(0, len(zeroed)))
        regs.insert(rng.randint(0, len(regs)), rng.choice(held))
        with pytest.raises(UncomputationError) as expected:
            chain = s
            for reg in regs:
                chain = ref_discard_zeroed(chain, reg)
        with pytest.raises(UncomputationError, match=f"^{re.escape(str(expected.value))}$"):
            s.discard_zeroed(*regs)

    @pytest.mark.parametrize("regs", [(), ("Y", "Y"), ("X", "Y", "X")], ids=repr)
    def test_empty_or_repeated_register_list_refused(self, regs):
        s = init_state(RegisterLayout([("X", 2), ("Y", 2)]))
        for _ in range(2):
            with pytest.raises(ValueError, match="distinct"):
                s.discard_zeroed(*regs)

    def test_zero_input_eval_erases_known_value(self):
        s = init_state(RegisterLayout([("X", 2)])).coherent_eval(lambda: 3, [], "X")
        assert s.amps == {3: 1.0}
        out = s.coherent_eval(lambda: 3, [], "X")
        assert out.amps == {0: pytest.approx(1.0)}
        with pytest.raises(ValueError, match="exceeds"):
            s.coherent_eval(lambda: 4, [], "X")


class TestInvariants:
    def test_normalization_through_a_pipeline(self):
        p = ToyPermutation(3)
        s = init_state(RegisterLayout([("B", 1), ("X", 3), ("Y", 3), ("R", 1)]))
        for step in (
            lambda s: s.prepare_qubit("B", 0.6, 0.8j),
            lambda s: s.uniform_superpose("X"),
            lambda s: s.coherent_eval(p.forward_int, ["X"], "Y"),
            lambda s: s.coherent_eval(lambda y: y & 1, ["Y"], "R"),
            lambda s: pick(s, ["R"], Random(3))[2],
        ):
            s = step(s)
            assert abs(s.norm() - 1.0) <= 1e-10

    def test_norm_violation_rejected(self):
        layout = RegisterLayout([("B", 1)])
        with pytest.raises(ValueError):
            SparseState(layout, {0: 0.5 + 0j})

    def test_pruning_drops_dust(self):
        layout = RegisterLayout([("B", 1)])
        s = SparseState(layout, {0: 1.0 + 0j, 1: 1e-13 + 0j})
        assert s.support_size == 1

    def test_commuting_controls_on_a_small_circuit(self):
        # B and X only ever drive evaluations; measuring them first or last
        # gives the same exact joint distribution over (B, X, W).
        def build():
            s = init_state(RegisterLayout([("B", 1), ("X", 2), ("W", 2)]))
            return s.prepare_qubit("B", 0.6, 0.8).uniform_superpose("X")

        def circuit(s):
            return s.coherent_eval(lambda b, x: (x ^ (3 * b)) & 3, ["B", "X"], "W")

        late = weights(circuit(build()), ["B", "X", "W"])
        early = {}
        for bx, p_bx, collapsed in build().branches(["B", "X"]):
            for w, p_w in weights(circuit(collapsed), ["W"]).items():
                early[(bx << 2) | w] = early.get((bx << 2) | w, 0.0) + p_bx * p_w
        assert set(late) == set(early)
        for key in late:
            assert late[key] == pytest.approx(early[key], abs=1e-12)


class TestDump:
    def test_sorted_lines_with_components(self):
        s = single_qubit().prepare_qubit("B", RT2, -RT2)
        lines = s.dump().splitlines()
        assert lines[0].startswith("0 ") and lines[1].startswith("1 ")
        bits, re_part, im_part = lines[1].split(" ")
        assert float(re_part) == pytest.approx(-RT2)
        assert float(im_part) == 0.0


class TestNonFiniteInputs:
    """NaN fails every ordered comparison, so each check must be written to
    fail on it; each case below used to pass silently."""

    @pytest.mark.parametrize("alpha,beta", [(math.nan, 1), (1, math.nan), (complex(0, math.nan), 1),
                                            (math.inf, 0), (complex(math.inf, math.nan), 0),
                                            (1e200, 0), (10 ** 400, 0)])
    def test_prepare_qubit_rejects_non_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="not normalized"):
            single_qubit().prepare_qubit("B", alpha, beta)

    @pytest.mark.parametrize("amp", [math.nan, complex(math.nan, 0), complex(0, math.nan)])
    def test_checked_state_rejects_nan_instead_of_pruning_it(self, amp):
        layout = RegisterLayout([("B", 1)])
        with pytest.raises(ValueError, match="not finite"):
            SparseState(layout, {0: 1, 1: amp})

    def test_checked_state_rejects_nan_norm(self):
        layout = RegisterLayout([("B", 1)])
        with pytest.raises(ValueError, match="norm"):
            SparseState(layout, {0: complex(math.inf, math.nan)})

    @pytest.mark.parametrize("alpha,beta", [(2, 0), (math.nan, 0), (1, math.nan), (math.inf, 0),
                                            (1e200, 0), (10 ** 400, 0)])
    def test_fidelity_pure_rejects_unnormalized_targets(self, alpha, beta):
        s = single_qubit().prepare_qubit("B", 1, 0)
        with pytest.raises(ValueError, match="not normalized"):
            s.fidelity_pure("B", alpha, beta)


class TestUncheckedStateOwnership:
    def test_unchecked_state_takes_its_dict_uncopied(self):
        amps = {0: 1 + 0j}
        assert unchecked_state(RegisterLayout([("B", 1)]), amps).amps is amps

    def test_checked_state_builds_its_own_dict(self):
        amps = {0: 1 + 0j, 1: 1e-13 + 0j}
        s = SparseState(RegisterLayout([("B", 1)]), amps)
        assert s.amps is not amps and list(s.amps) == [0] and len(amps) == 2
