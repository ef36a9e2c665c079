"""Quick test of the benchmark itself: every workload's correctness checks
at a tiny size, the reference code, and the tracer.

    python3 -m pytest perfbench/test_quick.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ring_gather as rg  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = (15, 10)


def _run_checks(wl, seed=0):
    wl.setup(seed)
    rounds = [wl.round(), wl.round()]
    rejected, problems = wl.check()
    assert problems == []
    assert rejected == 0
    assert all(r.ops > 0 and r.failed == 0 and r.seconds > 0 for r in rounds)
    return rounds


def test_battery_checks_pass():
    wl = workloads.Battery(grid=TINY, random_seeds=1, lazy_seeds=0, sample=2,
                           transition_ns=(15,), lemma1_n_max=6)
    rounds = _run_checks(wl)
    assert rounds[0].ops == 110 * 2


def test_census_checks_pass():
    wl = workloads.Census(grid=TINY, rotated=4, sampled_runs=3)
    rounds = _run_checks(wl)
    assert rounds[0].ops == 110
    assert wl.verdicts()["bad classes"] > 0  # the phase-1 defect shows at n=15


def test_large_runs_checks_pass_as_processes_and_in_process():
    for in_process in (False, True):
        wl = workloads.LargeRuns(sizes=(TINY,), starts_per_size=1, in_process=in_process)
        rounds = _run_checks(wl, seed=3)
        assert rounds[0].ops == len(workloads.SCHEDULERS)
        assert wl.mismatched == 0


def test_reference_class_counts():
    # binary bracelets: 4 with 3 beads of 7, 110 and 600 non-periodic ones
    # at the protocol's two smallest grids
    assert len(reference.nonperiodic_classes(7, 3)) == 4
    assert len(reference.nonperiodic_classes(*TINY)) == 110
    # n = 6, k = 2: {0,3} is periodic; {0,1} and {0,2} are not
    assert reference.nonperiodic_classes(6, 2) == {"....11", "...1.1"}


def test_dihedral_min_is_invariant():
    occ = "..1.11.1111.11."
    want = reference.dihedral_min(occ)
    for shift in range(len(occ)):
        for reflect in (False, True):
            assert reference.dihedral_min(reference.apply_dihedral(occ, shift, reflect)) == want
    assert want == rg.canonical_form(rg.RingConfig.from_string(occ))


def _tampered(text, index, **changes):
    lines = text.splitlines()
    event = json.loads(lines[index])
    event.update(changes)
    lines[index] = json.dumps(event)
    return "\n".join(lines) + "\n"


def test_validator_accepts_real_traces_and_rejects_broken_ones():
    cfg = rg.RingConfig.from_string("11111.11111....")
    text = rg.run(cfg, rg.builtin_scheduler("random", 1)).to_jsonl()
    assert reference.validate_trace(text) is None
    lines = text.splitlines()
    fire = next(i for i, ln in enumerate(lines) if '"fire"' in ln and '"to": null' not in ln)
    src = json.loads(lines[fire])["from"]
    broken = [
        _tampered(text, 1, occ="1" * 10 + "." * 5),
        _tampered(text, fire, to=(src + 2) % 15),
        _tampered(text, fire, kind="activate"),
        _tampered(text, fire, round=-1),
        "\n".join(lines[:1] + lines[2:]) + "\n",  # an activation dropped
        "\n".join(lines[:-1] + ['{"outcome": "Stuck", "rounds": 999}']) + "\n",
    ]
    for bad in broken:
        assert reference.validate_trace(bad) is not None


def test_tracer_counts_spans_and_restores_the_program():
    before = rg.checker.check_all_paths_gather
    tracer = Tracer()
    tracer.install()
    try:
        assert rg.checker.check_all_paths_gather is not before
        starts = list(rg.enumerate_initial_configs(*TINY))
        for cfg in starts[:5]:
            rg.check_all_paths_gather(cfg)
    finally:
        tracer.uninstall()
    assert rg.checker.check_all_paths_gather is before
    assert rg.checker.TRACE_CHECKS["replay"] is rg.checker.replay_trace
    assert tracer.calls["checker.check_all_paths_gather"] == 5
    assert tracer.calls["checker.enumerate_initial_configs"] == 1
    assert tracer.counters["ring.RingConfig.calls"] > 0
    self_s = tracer.self_seconds()
    assert self_s["checker.enumerate_initial_configs"] > 0
    assert all(v >= 0 for v in self_s.values())


def test_fails_without_the_program():
    bare = workloads.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
