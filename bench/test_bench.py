"""Tests of the benchmark itself: span arithmetic, tracer hygiene, result format.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import subprocess
import sys
from array import array
from pathlib import Path
from random import Random

import pytest

import run
import tracing
import workloads
from bcsim import gf2, harness, novy, qsim
from bcsim.harness import ScenarioConfig, emit_report, run_trials

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bcsim_namespace() -> dict:
    """Identity of every attribute of every bcsim module and of their classes."""
    out = {}
    for name, mod in sys.modules.items():
        if name != "bcsim" and not name.startswith("bcsim."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("bcsim"):
                for cls_attr, raw in vars(value).items():
                    out[(name, attr, cls_attr)] = id(raw)
    return out


class TestSelfTimes:
    def test_synthetic_tree(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
        parents = array("q", [-1, 0, 0, 2])
        starts = array("d", [0.0, 1.0, 5.0, 6.0])
        ends = array("d", [10.0, 4.0, 9.0, 7.0])
        assert list(tracing.self_times(parents, starts, ends)) == [3.0, 3.0, 3.0, 1.0]

    @staticmethod
    def _tracer(spans):
        """A tracer holding (name id, start, end, parent, spanless calls) spans."""
        tracer = tracing.Tracer()
        tracer.names = ["novy.attack_commit", "qsim.SparseState.measure",
                        "qsim.SparseState.marginal_distribution"]
        tracer.sized = [False, True, True]
        for name, start, end, parent, nested in spans:
            tracer.name.append(name)
            tracer.start.append(start)
            tracer.end.append(end)
            tracer.parent.append(parent)
            tracer.nested_in.append(nested)
            tracer.op_id.append(0)
            tracer.size_in.append(-1 if name == 0 else 16)
            tracer.size_out.append(-1 if name == 0 else 8)
        return tracer

    def test_layer_self_time_sums_child_free_intervals(self):
        tracer = self._tracer([(0, 0.0, 8.0, -1, 0), (1, 1.0, 5.0, 0, 0), (2, 2.0, 3.0, 1, 0)])
        metrics = tracer.metrics(ops=2, loop_s=1.0)
        assert metrics["novy.self_s"] == 2.0  # (8 - 4) over 2 ops
        assert metrics["novy.attack_commit.self_s"] == 2.0
        assert metrics["qsim.self_s"] == 2.0  # (4 - 1) + 1 over 2 ops
        assert metrics["qsim.measure.self_s"] == 1.5
        assert metrics["qsim.labels_in"] == 8.0  # only the call entering qsim
        assert metrics["qsim.scan_ratio"] == 1.0
        assert metrics["qsim.peak_support"] == 16.0

    def test_tracer_cost_is_taken_out(self):
        tracer = self._tracer([(0, 0.0, 8.0, -1, 3), (1, 1.0, 5.0, 0, 0), (2, 2.0, 3.0, 1, 0)])
        tracer.costs = tracing.SpanCosts(inner=0.01, outer=0.02, sized_inner=0.1, sized_outer=0.2,
                                         counted=0.05)
        metrics = tracer.metrics(ops=1, loop_s=2.0)  # costs double at this host speed
        # commit: 4 - inner 0.02 - 3 counted calls 0.3 - measure's outer 0.4
        assert metrics["novy.self_s"] == pytest.approx(3.28)
        # measure: 3 - sized inner 0.2 - marginal's outer 0.4; marginal: 1 - 0.2
        assert metrics["qsim.measure.self_s"] == pytest.approx(2.4)
        assert metrics["qsim.self_s"] == pytest.approx(3.2)

    def test_measured_costs_are_positive(self):
        costs = tracing.span_costs()
        assert all(cost > 0 for cost in vars(costs).values())


def test_call_times_are_scaled_by_the_following_reference_loop():
    phase = run.Phase(ops_per_round=2)
    ref = run.reference.REFERENCE_S
    phase.durations.extend([1.0, 2.0, 3.0, 4.0])
    phase.loops.extend([ref, 2 * ref, ref, 4 * ref])
    assert phase.scaled() == [1.0, 1.0, 3.0, 1.0]
    assert phase.round_seconds() == [2.0, 4.0]


class TestTracer:
    def test_wrappers_fully_removed(self):
        workload = workloads.build("narrow-trials", 3)
        try:
            before = _bcsim_namespace()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                assert _bcsim_namespace() != before
                for i, op in enumerate(workload.ops):
                    tracer.op = i
                    op.call(0)
            finally:
                tracer.uninstall()
            assert _bcsim_namespace() == before
            assert len(tracer.start) > 0
        finally:
            workload.close()

    def test_from_import_rebinding_is_traced(self):
        original = qsim.init_state
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert harness.init_state is qsim.init_state is not original
            tracer.op = 0
            harness.init_state(qsim.RegisterLayout([("Q", 1)]))
            gf2.solve_affine(gf2.BitMatrix.from_rows([gf2.BitVector.parse("11")]),
                             gf2.BitVector.parse("1"))
        finally:
            tracer.uninstall()
        names = {tracer.names[i] for i in tracer.name}
        assert {"qsim.init_state", "gf2.solve_affine", "gf2.BitMatrix.from_rows"} <= names

    def test_rng_draws_are_unchanged_and_counted(self):
        untraced = gf2.sample_independent_rows(5, 6, Random(4))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = 0
            traced = gf2.sample_independent_rows(5, 6, Random(4))
        finally:
            tracer.uninstall()
        assert traced == untraced
        assert tracer.counters["accepted_rows"] == 5
        assert tracer.counters["draws"] >= 5

    @pytest.mark.parametrize("config", [
        ScenarioConfig(protocol="novy-attack", n=5, psi=(0.6, 0.8j), trials=30, seed=7),
        ScenarioConfig(protocol="novy-attack", n=4, psi=(0.8, 0.6), unveil=False, trials=20),
        ScenarioConfig(protocol="novy-honest", n=4, b=1, trials=30, seed=2),
        ScenarioConfig(protocol="2p-attack", n=3, psi=(0.6, 0.8), unveil=False, trials=20),
        ScenarioConfig(protocol="2p-honest", n=3, b=0, trials=30, seed=5),
    ])
    def test_report_json_byte_identical_with_tracing(self, config):
        plain = emit_report(run_trials(config), "json")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = 0
            traced = emit_report(run_trials(config), "json")
        finally:
            tracer.uninstall()
        assert traced == plain
        assert len(tracer.start) > 0


class TestWorkloads:
    def test_same_seed_same_configs(self):
        for name in workloads.TRIAL_MIXES:
            first = [sc.config for sc in workloads.build(name, 11).scenarios]
            again = [sc.config for sc in workloads.build(name, 11).scenarios]
            other = [sc.config for sc in workloads.build(name, 12).scenarios]
            assert first == again != other

    def test_recovery_probe_restores_module_attributes(self):
        original = novy.attack_recover
        workload = workloads.build("wide-attack", 1)
        assert novy.attack_recover is not original
        workload.close()
        assert novy.attack_recover is original

    def test_failed_check_is_reported(self):
        workload = workloads.build("narrow-trials", 1)
        try:
            sc = next(s for s in workload.scenarios if s.config.protocol == "novy-honest"
                      and s.config.unveil)
            transcript, outcome = sc.call(0)
            outcome.unveiled_bit = 1 - sc.config.b
            assert "honest unveiled bit" in sc.check((transcript, outcome))
        finally:
            workload.close()


class TestBenchmarkJson:
    def test_end_to_end_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert declared == run.END_TO_END

    def test_per_layer_names_units_and_direction(self):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
        assert declared == tracing.PER_LAYER

    def test_workloads(self):
        assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, tracing.PER_LAYER)])
def test_short_run_reports_every_metric(trace, names):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "narrow-trials", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(names)
