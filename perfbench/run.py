"""Ring-gather benchmark: one command for every workload.

    python3 perfbench/run.py --workload battery|census|large_runs \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; ring_gather is imported from `src/`.
With `--trace 0` the workload runs whole rounds for at least S seconds and
the last line printed is a JSON object with the end-to-end metrics:

- `ops_per_s`: the operations of one round over the median wall time of a
  round spent in program calls. An operation is one sampled run (battery),
  one class decided (census) or one `ring-gather simulate` invocation
  (large_runs); every round attempts the same operations.
- `setup_s`: median over several fresh interpreters of importing
  ring_gather plus making the workload's inputs.
- `peak_rss_mb`: peak resident memory of the timed rounds; for large_runs,
  of the largest child process.

With `--trace 1` it runs one untraced round and one traced round (see
`tracing.py`) and reports the per-layer metrics, counted over the traced
round, with the tracing overhead. Spans are written to `.perfbench_out/`.
Either way the outputs are then checked; `correct` is false when a check
rejected an output. The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
WORKLOAD_NAMES = ("battery", "census", "large_runs")

PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "miss_ratio": "ratio",
    "events": "count",
    "tracing_overhead": "ratio",
}
PER_LAYER = (
    "ring.RingConfig.calls",
    "ring.canonical_form.calls",
    "ring.canonical_form.self_s",
    "ring.classify_symmetry.calls",
    "ring.classify_symmetry.self_s",
    "ring.compute_view.calls",
    "ring.compute_view.self_s",
    "protocol.decide_targets.calls",
    "protocol.decide_targets.self_s",
    "protocol.decide_targets.miss_ratio",
    "protocol.local_decide.calls",
    "protocol.classify_protocol_state.calls",
    "protocol.classify_protocol_state.self_s",
    "protocol.enabled_moves.calls",
    "protocol.enabled_moves.self_s",
    "simulate.run.calls",
    "simulate.run.self_s",
    "simulate.events",
    "simulate.Trace.to_jsonl.self_s",
    "cli.main.self_s",
    "checker.replay_trace.self_s",
    "checker.check_outdated_bound.self_s",
    "checker.check_never_periodic.self_s",
    "checker.check_no_tower_before_target.self_s",
    "checker.check_phase_monotonic.self_s",
    "checker.check_local_global_consistency.self_s",
    "checker.check_lemma1_views.self_s",
    "checker.check_phase2_transitions.self_s",
    "checker.check_all_paths_gather.calls",
    "checker.check_all_paths_gather.self_s",
    "checker.enumerate_initial_configs.self_s",
    "bench.tracing_overhead",
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (see setup_probe.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        samples.append(float(out.split()[-1]))
    return median(samples)


def timed_rounds(wl, seconds: float):
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(wl.round())
    return rounds


def per_layer(tracer, overhead: float) -> dict:
    self_s = tracer.self_seconds()
    values = dict(tracer.counters)
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s[name]
    decides = values["protocol.decide_targets.calls"]
    values["protocol.decide_targets.miss_ratio"] = (
        values["protocol.local_decide.calls"] / decides if decides else 0.0
    )
    values["bench.tracing_overhead"] = overhead
    return {
        name: _metric(values[name], PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
        for name in PER_LAYER
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ring_gather" / "__init__.py").is_file():
        print(f"perfbench: no ring_gather sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ring_gather

    if not Path(ring_gather.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: ring_gather imported from outside {SRC}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        from tracing import Tracer

        wl = cls(in_process=True) if cls is workloads.LargeRuns else cls()
        wl.setup(args.seed)
        rounds = [wl.round()]
        tracer = Tracer()
        tracer.install()
        try:
            wl.setup(args.seed)
            rounds.append(wl.round())
        finally:
            tracer.uninstall()
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"spans-{args.workload}")
        metrics = per_layer(tracer, rounds[1].seconds / rounds[0].seconds - 1)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        wl = cls()
        wl.setup(args.seed)
        rounds = timed_rounds(wl, args.seconds)
        rate = rounds[0].ops / median(r.seconds for r in rounds)
        metrics = {
            "ops_per_s": _metric(rate, "1/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(wl.peak_rss_mb(), "MB"),
        }
    rejected, problems = wl.check()

    attempted = sum(r.ops for r in rounds)
    failed = min(attempted, sum(r.failed for r in rounds) + rejected)
    for problem in problems:
        print(f"{args.workload}: REJECTED {problem}")
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, "
          f"{sum(r.seconds for r in rounds):.3f} s in program calls "
          f"({', '.join(f'{r.seconds:.3f}' for r in rounds)})")
    if not args.trace:
        for key, value in wl.figures(rate).items():
            print(f"{args.workload}: {key} = {value:.4f}")
    for key, value in wl.verdicts().items():
        print(f"{args.workload}: {key} = {value}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
