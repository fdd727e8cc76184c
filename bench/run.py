"""bcsim benchmark: seeded workloads timed from outside the package.

    python3 bench/run.py --workload narrow-trials --seed 1 --seconds 15 --trace 0

One process, one thread, closed loop: each operation starts when the
previous one ends. A round is one operation of every scenario in the
workload's fixed order. With ``--trace 0`` the run prints every
end-to-end metric; with ``--trace 1`` it runs half its time untraced and
half traced, and prints the per-layer metrics and the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. ``--workload all`` runs each workload in its own process.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 20260
MIN_ROUNDS = 100  # round_ms_p90 needs at least 10 rounds beyond it
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
FAILURES_SHOWN = 5

# Every time below is put at the fixed host speed of ``reference``: each
# operation is followed by one reference loop, and its call time is scaled
# by REFERENCE_S over that loop's time. Unscaled, the median round of a
# 12 s run moved by up to 40% between runs, with the share of the run the
# host spent in its slow state; scaled, by under 5%.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "trial_us_p50.novy-attack": "us",
    "trial_us_p50.novy-honest": "us",
    "trial_us_p50.2p-attack": "us",
    "trial_us_p50.2p-honest": "us",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """Timings of consecutive rounds: per-op call seconds, and the seconds
    of the reference loop run after each op."""

    ops_per_round: int
    durations: array = field(default_factory=lambda: array("d"))
    loops: array = field(default_factory=lambda: array("d"))
    failures: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.durations) // self.ops_per_round

    @property
    def ops(self) -> int:
        return len(self.durations)

    def speed(self) -> float:
        """Median factor that put this phase's times at the reference host speed."""
        return reference.REFERENCE_S / statistics.median(self.loops)

    def scaled(self) -> list[float]:
        """Per-op call seconds at the reference host speed."""
        ref = reference.REFERENCE_S
        return [d * ref / loop for d, loop in zip(self.durations, self.loops)]

    def round_seconds(self) -> list[float]:
        k = self.ops_per_round
        scaled = self.scaled()
        return [sum(scaled[r * k:(r + 1) * k]) for r in range(self.rounds)]


def run_phase(workload, seconds: float, first_round: int, min_rounds: int, tracer=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    ops = workload.ops
    phase = Phase(len(ops))
    durations = phase.durations
    op_id = 0
    r = first_round
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = op_id
            started = time.perf_counter()
            try:
                result = op.call(r)
                reason = None
            except Exception as exc:  # an exception is a failed operation
                result, reason = None, f"{type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - started)
            phase.loops.append(reference.loop_seconds())
            if tracer is not None:
                tracer.op = -1
            if reason is None:
                reason = op.check(result)
            if reason is not None:
                phase.failures.append(f"round {r} {op.name}: {reason}")
            op_id += 1
        r += 1
        if r - first_round >= min_rounds and time.perf_counter() >= deadline:
            return phase
        if tracer is not None and tracer.full:
            return phase


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ops_per_s(phase: Phase) -> float:
    """Operations completed per second of call time, at the reference host speed."""
    return phase.ops / sum(phase.scaled())


def protocol_us(phase: Phase, protocols: list[str], protocol: str) -> float:
    """Median over rounds of the mean call time of the protocol's ops in the round.

    Averaging a protocol's ops within a round (both branches of a trial
    workload) keeps the median off the gap between their two modes.
    """
    cols = [k for k, p in enumerate(protocols) if p == protocol]
    k = phase.ops_per_round
    scaled = phase.scaled()
    means = [sum(scaled[r * k + c] for c in cols) / len(cols) for r in range(phase.rounds)]
    return statistics.median(means) * 1e6


def setup_seconds(workload_name: str, seed: int) -> list[float]:
    """Set-up seconds of fresh interpreters, at the reference host speed."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        elapsed, loop = map(float, proc.stdout.split())
        samples.append(elapsed * reference.REFERENCE_S / loop)
    return samples


def end_to_end_metrics(workload, phase: Phase, setup: list[float], rss_mb: float) -> dict:
    rounds_ms = [s * 1e3 for s in phase.round_seconds()]
    protocols = [op.protocol for op in workload.ops]
    out = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s(phase),
        "round_ms_p50": statistics.median(rounds_ms),
        "round_ms_p90": nearest_rank(rounds_ms, 0.9),
    }
    for protocol in workloads.PROTOCOLS:
        out[f"trial_us_p50.{protocol}"] = protocol_us(phase, protocols, protocol)
    out["peak_rss_mb"] = rss_mb
    return out


def run_workload(args) -> int:
    workload = workloads.build(args.workload, args.seed)
    try:
        workload.warm_up()
        if args.trace:
            return _traced(workload, args)
        phase = run_phase(workload, args.seconds, 0, MIN_ROUNDS)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks = workload.whole_run_checks()
    finally:
        workload.close()
    setup = setup_seconds(args.workload, args.seed)
    metrics = end_to_end_metrics(workload, phase, setup, rss_mb)
    beyond = phase.rounds - math.ceil(0.9 * phase.rounds)
    print(f"rounds={phase.rounds} ops={phase.ops} rounds_beyond_p90={beyond} "
          f"speed_factor={phase.speed():.3f} setup_samples={[round(x, 4) for x in setup]}")
    return _report(args, [phase], checks, metrics, END_TO_END)


def _traced(workload, args) -> int:
    plain = run_phase(workload, args.seconds / 2, 0, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, args.seconds / 2, plain.rounds, 1, tracer)
    finally:
        tracer.uninstall()
    # Before the whole-run checks, whose run_trials replay would add its
    # lookups to the cache hit ratios.
    loop_s = statistics.median(traced.loops)
    metrics = tracer.metrics(traced.ops, loop_s)
    checks = workload.whole_run_checks()
    metrics["trace.untraced_ops_per_s"] = ops_per_s(plain)
    metrics["trace.ops_per_s"] = ops_per_s(traced)
    metrics["trace.overhead"] = metrics["trace.untraced_ops_per_s"] / metrics["trace.ops_per_s"]
    layer_self_s = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    accounted = layer_self_s * traced.speed() * metrics["trace.untraced_ops_per_s"]
    costs_us = {name: round(cost * loop_s * 1e6, 3) for name, cost in vars(tracer.costs).items()}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}.tsv.gz"
    tracer.dump(spans_path)
    print(f"untraced {plain.ops} ops, traced {traced.ops} ops; "
          f"{len(tracer.start)} spans written to {spans_path.relative_to(HERE.parent)}; "
          f"tracer cost per call in us {costs_us}; layer self time over untraced time {accounted:.3f}")
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    return _report(args, [plain, traced], checks, metrics, units)


def _report(args, phases: list[Phase], checks: list[str], metrics: dict, units: dict) -> int:
    failures = [f for phase in phases for f in phase.failures]
    attempted = sum(phase.ops for phase in phases)
    for reason in failures[:FAILURES_SHOWN] + checks:
        print(f"FAIL {reason}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failures and not checks,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(cmd).returncode != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
