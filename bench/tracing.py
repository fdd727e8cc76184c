"""Span tracing of bcsim's layers from outside the package.

``Tracer.install`` rebinds the public functions and methods of each layer
module where their callers look them up: class attributes for methods
(``SparseState.measure``, ``BitVector.from_int``, ``Transcript.announce``),
module attributes for functions (``gf2.solve_affine``), and every other
``bcsim`` module attribute bound to the same object by ``from ... import``
(``harness.init_state``). A call that crosses into a layer from outside it
records one span (name, start, end, parent span, operation id) in flat
in-memory arrays; a call from inside the same layer is only counted,
unless its own self time is a metric. ``uninstall`` puts every original
back. Self time of a span is its duration minus the durations of its
direct child spans, minus what the tracer itself spent in it: ``install``
times wrapped no-ops to learn the cost of a span inside its own interval,
the cost its caller pays, and the cost of a counted call.

Layers are the modules below; ``selftest`` and ``cli`` are not traced.
"""
from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from time import perf_counter
from types import FunctionType

import reference

LAYERS = ("qsim", "gf2", "perm", "engine", "novy", "twoprover", "harness")
MAX_SPANS = 1_000_000  # about 70 MB of span arrays; the traced loop stops here
CALIBRATION_CALLS = 5000
CALIBRATION_REPEATS = 7

QSIM_OPS = ("coherent_eval", "measure", "marginal_distribution", "postselect",
            "discard_zeroed", "add_register", "xor_constant", "fidelity_pure")
QSIM_PREP = ("qsim.SparseState.prepare_qubit", "qsim.SparseState.uniform_superpose",
             "qsim.SparseState.epr_pairs", "qsim.SparseState.coherent_sample",
             "qsim.init_state")
PHASES = ("attack_commit", "attack_unveil", "attack_recover", "honest_commit",
          "honest_unveil_check")
ORACLES = ("exact_transcript_distribution", "mixed_honest_distribution",
           "bob_view_distribution", "independent_row_tuples", "compare_distributions")
TABLE_ORACLES = ORACLES[:3]  # their returned tables count toward harness.table_entries
# Module whose lru caches give each hit ratio.
CACHES = {"qsim.layout_cache.hit_ratio": "qsim", "perm.table_cache.hit_ratio": "perm",
          "novy.parity_cache.hit_ratio": "novy"}
# A call from inside its own layer is only counted, because its time is
# already that layer's self time, except for these, whose own self time
# is a metric.
NESTED_SPANS = frozenset(
    [f"qsim.SparseState.{op}" for op in QSIM_OPS] + list(QSIM_PREP)
    + ["gf2.BitVector.from_int", "gf2.solve_affine", "gf2.sample_independent_rows",
       "engine.Transcript.announce", "harness.trial_rng"]
    + [f"{mod}.{phase}" for mod in ("novy", "twoprover") for phase in PHASES]
    + [f"harness.{fn}" for fn in ORACLES])


# Dunder methods are traced too (``str(bv)``, ``bv ^ other``, ``a == b`` are
# how callers use a type) except attribute plumbing and debug output.
UNTRACED_DUNDERS = frozenset({"__setattr__", "__delattr__", "__getattr__", "__getattribute__",
                              "__post_init__", "__repr__", "__new__", "__init_subclass__"})


def _metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, which direction is better)."""
    out = {}

    def add(name, unit, better="lower"):
        out[name] = (unit, better)

    for op in QSIM_OPS:
        add(f"qsim.{op}.calls", "count")
        add(f"qsim.{op}.self_s", "s")
    add("qsim.prep.self_s", "s")
    add("qsim.self_s", "s")
    add("qsim.labels_in", "labels")
    add("qsim.labels_per_s", "labels/s", "higher")
    add("qsim.peak_support", "labels")
    add("qsim.scan_ratio", "ratio")
    add("qsim.layout_cache.hit_ratio", "ratio", "higher")
    add("gf2.self_s", "s")
    add("gf2.BitVector.constructed", "count")
    for fn in ("BitVector.from_int", "solve_affine", "sample_independent_rows"):
        add(f"gf2.{fn}.calls", "count")
        add(f"gf2.{fn}.self_s", "s")
    add("gf2.sample_independent_rows.accept_ratio", "ratio", "higher")
    add("gf2.dot.calls", "count")
    add("perm.self_s", "s")
    add("perm.forward.calls", "count")
    add("perm.table_cache.hit_ratio", "ratio", "higher")
    add("engine.self_s", "s")
    add("engine.Transcript.announce.calls", "count")
    add("engine.Transcript.announce.self_s", "s")
    add("engine.Message.to_json.calls", "count")
    for mod in ("novy", "twoprover"):
        add(f"{mod}.self_s", "s")
        for phase in PHASES:
            add(f"{mod}.{phase}.self_s", "s")
    add("novy.parity_cache.hit_ratio", "ratio", "higher")
    add("harness.self_s", "s")
    add("harness.trial_rng.calls", "count")
    add("harness.trial_rng.self_s", "s")
    for fn in ORACLES:
        add(f"harness.{fn}.self_s", "s")
    add("harness.table_entries", "count")
    add("trace.untraced_ops_per_s", "1/s", "higher")
    add("trace.ops_per_s", "1/s", "higher")
    add("trace.overhead", "x")
    return out


PER_LAYER = _metric_units()


class _CountingRng:
    """Delegates to a Random and counts ``getrandbits`` draws."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return self._rng.getrandbits(k)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def self_times(parents, starts, ends) -> array:
    """Duration of each span minus the durations of its direct children."""
    out = array("d", (end - start for start, end in zip(starts, ends)))
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[i] - starts[i]
    return out


@dataclass(frozen=True)
class SpanCosts:
    """Time the tracer adds to each call it wraps, in reference loops.

    ``inner`` falls inside the span's own interval and ``outer`` on its
    caller's time; qsim spans, which also read support sizes, have their
    own pair. ``counted`` falls on the innermost span around a call that
    is only counted. Costs are kept as multiples of the reference loop's
    time, because the host's speed when they were measured need not be
    its speed during the traced run.
    """

    inner: float
    outer: float
    sized_inner: float
    sized_outer: float
    counted: float

    def correct(self, selfs, names, parents, nested_in, sized, loop_s: float) -> None:
        """Take the tracer's own cost out of each span's self time, in place,
        at a host speed where one reference loop takes ``loop_s``."""
        plain = (self.inner * loop_s, self.outer * loop_s)
        with_size = (self.sized_inner * loop_s, self.sized_outer * loop_s)
        counted = self.counted * loop_s
        for i, name_id in enumerate(names):
            inner, outer = with_size if sized[name_id] else plain
            selfs[i] -= inner + nested_in[i] * counted
            if parents[i] >= 0:
                selfs[parents[i]] -= outer


class _State:
    """Stands in for a SparseState: a sized span reads its ``support_size``."""

    amps = {0: 1.0}

    @property
    def support_size(self) -> int:
        return len(self.amps)


def _echo(state):
    return state


def _loop(fn, state, calls: int) -> float:
    started = perf_counter()
    for _ in range(calls):
        fn(state)
    return perf_counter() - started


def span_costs() -> SpanCosts:
    """Time wrapped no-ops on a scratch tracer; each cost is the least of
    ``CALIBRATION_REPEATS`` loops, less the same loop calling the no-op bare,
    over the median time of reference loops run before and after."""
    loops = [reference.loop_seconds() for _ in range(3)]
    probe = Tracer()
    probe.op = 0
    state, calls, repeats = _State(), CALIBRATION_CALLS, CALIBRATION_REPEATS
    bare = min(_loop(_echo, state, calls) for _ in range(repeats)) / calls

    def costs(caller: str, callee: str) -> tuple[float, float]:
        """(cost inside the callee's spans, total cost) per call."""
        loop = probe._wrap(_loop, f"{caller}.loop")
        fn = probe._wrap(_echo, f"{callee}.echo")
        inside = total = float("inf")
        for _ in range(repeats):
            first = len(probe.start) + 1
            total = min(total, loop(fn, state, calls) / calls - bare)
            spans = range(first, len(probe.start))
            inside = min(inside, sum(probe.end[i] - probe.start[i] for i in spans) / calls - bare)
        return inside, total

    inner, total = costs("caller", "callee")
    sized_inner, sized_total = costs("caller", "qsim")
    _, counted = costs("engine", "engine")
    loops += [reference.loop_seconds() for _ in range(3)]
    unit = statistics.median(loops)
    return SpanCosts(inner / unit, (total - inner) / unit, sized_inner / unit,
                     (sized_total - sized_inner) / unit, counted / unit)


def _targets():
    """(owner, attribute, original, span name) for every traced callable."""
    for layer in LAYERS:
        mod = sys.modules[f"bcsim.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if issubclass(obj, (Enum, BaseException)):
                    continue
                for attr, raw in list(vars(obj).items()):
                    if attr in UNTRACED_DUNDERS or (attr.startswith("_") and not attr.endswith("__")):
                        continue
                    if isinstance(raw, (FunctionType, classmethod, staticmethod)):
                        yield obj, attr, raw, f"{layer}.{name}.{attr}"
            elif isinstance(obj, FunctionType) or hasattr(obj, "cache_info"):
                yield mod, name, obj, f"{layer}.{name}"


def _cache_counts(caches) -> tuple[int, int]:
    hits = misses = 0
    for cache in caches:
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    """Records spans at bcsim's layer boundaries while installed."""

    def __init__(self):
        self.op = -1  # operation id stamped on new spans; -1 outside operations
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.size_in = array("q")  # support size entering a qsim call, else -1
        self.size_out = array("q")  # support size leaving a qsim call, else -1
        self.nested_in = array("q")  # calls counted without a span while this span was innermost
        self.sized: list[bool] = []  # per name: a qsim span, which also reads support sizes
        self.costs = SpanCosts(0.0, 0.0, 0.0, 0.0, 0.0)
        self.counters = {"draws": 0, "accepted_rows": 0, "table_entries": 0}
        self.nested_calls: dict[int, int] = {}  # name id -> calls counted without a span
        self._stack = [-1]
        self._stack_layer = [""]
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple] = {}

    @property
    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.costs = span_costs()
        modules = [m for name, m in sys.modules.items()
                   if name == "bcsim" or name.startswith("bcsim.")]
        for metric, layer in CACHES.items():
            mod = sys.modules[f"bcsim.{layer}"]
            caches = [obj for obj in vars(mod).values()
                      if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__]
            self._caches[metric] = (caches, _cache_counts(caches))
        for owner, attr, raw, span_name in list(_targets()):
            if isinstance(owner, type):
                self._patch(owner, attr, self._wrap_descriptor(raw, span_name))
                continue
            wrapper = self._wrap(raw, span_name)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_descriptor(self, raw, span_name):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(raw.__func__, span_name))
        return self._wrap(raw, span_name)

    def _wrap(self, fn, span_name):
        fn = self._with_counters(fn, span_name)
        layer = span_name.split(".", 1)[0]
        sized = layer == "qsim"
        if span_name not in self.names:
            self.names.append(span_name)
            self.sized.append(sized)
        name_id = self.names.index(span_name)
        always = span_name in NESTED_SPANS
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        op_ids, size_in, size_out = self.op_id, self.size_in, self.size_out
        stack, stack_layer, nested = self._stack, self._stack_layer, self.nested_calls
        nested_in = self.nested_in

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not always and stack_layer[-1] == layer:
                if self.op >= 0:
                    nested[name_id] = nested.get(name_id, 0) + 1
                    nested_in[stack[-1]] += 1
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            nested_in.append(0)
            parents.append(stack[-1])
            op_ids.append(self.op)
            size_in.append(getattr(args[0], "support_size", -1) if sized and args else -1)
            size_out.append(-1)
            ends.append(0.0)
            stack.append(idx)
            stack_layer.append(layer)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                stack_layer.pop()
            if sized:
                state = result[-1] if isinstance(result, tuple) and result else result
                size_out[idx] = getattr(state, "support_size", -1)
            return result

        return span

    def _with_counters(self, fn, span_name):
        """Add the counts a span cannot give: rng draws, table sizes."""
        counters = self.counters
        if span_name == "gf2.sample_independent_rows":
            @functools.wraps(fn)
            def counted(m, n, rng, *args, **kwargs):
                proxy = _CountingRng(rng)
                result = fn(m, n, proxy, *args, **kwargs)
                counters["draws"] += proxy.draws
                counters["accepted_rows"] += m
                return result
            return counted
        if span_name in {f"harness.{fn_name}" for fn_name in TABLE_ORACLES}:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                table = fn(*args, **kwargs)
                counters["table_entries"] += len(table)
                return table
            return counted
        return fn

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int, loop_s: float) -> dict[str, float]:
        """Per-layer metrics over the spans of operations 0.. (counts and times per op).

        ``loop_s`` is the reference loop's typical time during the traced
        run, which puts the tracer's own cost at the host's speed then.
        """
        selfs = self_times(self.parent, self.start, self.end)
        self.costs.correct(selfs, self.name, self.parent, self.nested_in, self.sized, loop_s)
        calls = {self.names[i]: n for i, n in self.nested_calls.items()}
        self_s: dict[str, float] = {}
        layer_of = [name.split(".", 1)[0] for name in self.names]
        labels_in = 0
        peak = 0
        measure_labels = scanned = 0
        child_labels: dict[int, int] = {}
        measure = "qsim.SparseState.measure"
        measure_id = self.names.index(measure) if measure in self.names else -2
        for i, name_id in enumerate(self.name):
            if self.op_id[i] < 0:
                continue
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[i]
            if self.size_in[i] < 0:
                continue
            peak = max(peak, self.size_in[i], self.size_out[i])
            parent = self.parent[i]
            if parent < 0 or layer_of[self.name[parent]] != "qsim":
                labels_in += self.size_in[i]
            elif self.name[parent] == measure_id:
                child_labels[parent] = child_labels.get(parent, 0) + self.size_in[i]
        for i, name_id in enumerate(self.name):
            if name_id == measure_id and self.op_id[i] >= 0:
                measure_labels += self.size_in[i]
                scanned += child_labels.get(i, self.size_in[i])

        def per_op(value):
            return value / ops if ops else 0.0

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for op in QSIM_OPS:
            out[f"qsim.{op}.calls"] = per_op(calls.get(f"qsim.SparseState.{op}", 0))
            out[f"qsim.{op}.self_s"] = per_op(self_s.get(f"qsim.SparseState.{op}", 0.0))
        out["qsim.prep.self_s"] = per_op(sum(self_s.get(k, 0.0) for k in QSIM_PREP))
        out["qsim.labels_in"] = per_op(labels_in)
        out["qsim.labels_per_s"] = ratio(labels_in, layer_self("qsim"))
        out["qsim.peak_support"] = float(peak)
        out["qsim.scan_ratio"] = ratio(scanned, measure_labels)
        out["gf2.BitVector.constructed"] = per_op(calls.get("gf2.BitVector.__init__", 0))
        for fn in ("BitVector.from_int", "solve_affine", "sample_independent_rows"):
            out[f"gf2.{fn}.calls"] = per_op(calls.get(f"gf2.{fn}", 0))
            out[f"gf2.{fn}.self_s"] = per_op(self_s.get(f"gf2.{fn}", 0.0))
        out["gf2.sample_independent_rows.accept_ratio"] = ratio(
            self.counters["accepted_rows"], self.counters["draws"])
        out["gf2.dot.calls"] = per_op(calls.get("gf2.dot", 0))
        out["perm.forward.calls"] = per_op(calls.get("perm.ToyPermutation.forward", 0))
        out["engine.Transcript.announce.calls"] = per_op(calls.get("engine.Transcript.announce", 0))
        out["engine.Transcript.announce.self_s"] = per_op(self_s.get("engine.Transcript.announce", 0.0))
        out["engine.Message.to_json.calls"] = per_op(calls.get("engine.Message.to_json", 0))
        for mod in ("novy", "twoprover"):
            for phase in PHASES:
                out[f"{mod}.{phase}.self_s"] = per_op(self_s.get(f"{mod}.{phase}", 0.0))
        out["harness.trial_rng.calls"] = per_op(calls.get("harness.trial_rng", 0))
        out["harness.trial_rng.self_s"] = per_op(self_s.get("harness.trial_rng", 0.0))
        for fn in ORACLES:
            out[f"harness.{fn}.self_s"] = per_op(self_s.get(f"harness.{fn}", 0.0))
        out["harness.table_entries"] = per_op(self.counters["table_entries"])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_op(layer_self(layer))
        for metric, (caches, (hits0, misses0)) in self._caches.items():
            hits, misses = _cache_counts(caches)
            out[metric] = ratio(hits - hits0, hits - hits0 + misses - misses0)
        return out

    def dump(self, path) -> None:
        """Write every span as TSV (name, start, end, parent, op), gzipped.

        The first line is a JSON list of span names; ``name`` indexes it.
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(self.names) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op_id):
                fh.write("%d\t%.9f\t%.9f\t%d\t%d\n" % row)
