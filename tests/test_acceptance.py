"""Acceptance gate: every criterion at its declared tolerance.

Each test prints one pass/fail line.  The scheduler battery (criteria 1, 2
and 5) runs every canonical non-periodic towerless start at (15,10) and
(17,10) under the synchronous scheduler, 50 seeded random-fair schedules,
and 10 seeded lazy schedules, checking every trace.
"""

import os
import random

import pytest

from ring_gather import (
    RingConfig,
    Tag,
    builtin_scheduler,
    build_phase2_instances,
    canonical_form,
    check_lemma1_views,
    check_phase2_transitions,
    classify_symmetry,
    enumerate_initial_configs,
    replay_trace,
    run,
    run_verification,
)
from ring_gather.checker import _clear_all_caches

from oracles import brute_symmetry_class, orbit_classes

GRIDS = ((15, 10), (17, 10))
RANDOM_SEEDS = 50
LAZY_SEEDS = 10
ROUND_C = 20


def _emit(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE criterion {criterion}: {status} {detail}".rstrip())


@pytest.fixture(scope="module")
def battery():
    _clear_all_caches()
    jobs = min(os.cpu_count() or 1, 4)
    report = run_verification(
        grids=GRIDS,
        random_seeds=RANDOM_SEEDS,
        lazy_seeds=LAZY_SEEDS,
        c=ROUND_C,
        jobs=jobs,
    )
    return report


def _check(report, name):
    entry = report["checks"][name]
    detail = f"{entry['passed']} ok, {entry['failed']} failed"
    if entry["failed"]:
        detail += f"; first: {entry['first_counterexample']}"
    return entry["failed"] == 0, detail


@pytest.mark.slow
def test_criterion_1_gathering_soundness(battery):
    """Every run over the canonical starts ends Gathered within 20*n^2
    asynchronous rounds, established against the orbit-enumeration oracle."""
    for n, k in GRIDS:
        assert len(list(enumerate_initial_configs(n, k))) == len(orbit_classes(n, k))
    ok, detail = _check(battery, "round_bound")
    _emit(1, ok, detail)
    assert ok, f"gathering soundness failed: {detail}"


@pytest.mark.slow
def test_criterion_2_lemma_invariants(battery):
    """No tower before TerminalSkew/Target, never periodic, at most one
    outdated robot with an incorrect target, on every criterion-1 trace."""
    results = {
        name: _check(battery, name)
        for name in ("no_tower_before_target", "never_periodic", "outdated_bound")
    }
    ok = all(r[0] for r in results.values())
    detail = "; ".join(f"{name}: {d}" for name, (p, d) in results.items())
    _emit(2, ok, detail)
    assert ok, f"lemma invariants failed: {detail}"


def test_criterion_3_phase2_transitions():
    """Constructed instances of the nine special configurations plus
    Terminal conform to the transition lemmas at n in {15, 17, 21}."""
    failures = []
    for n in (15, 17, 21):
        verdict = check_phase2_transitions(build_phase2_instances(n, 10))
        if not verdict.passed:
            failures.append((n, verdict.violation))
    _emit(3, not failures, f"{len(failures)} failures {failures}")
    assert not failures


def test_criterion_4_geometry_oracle():
    """classify_symmetry agrees with brute-force dihedral stabilizer search
    exhaustively for n <= 13 and on 1e5 random configurations with n <= 21;
    the view lemma holds for n <= 11."""
    mismatches = 0
    for n in range(1, 14):
        for bits in range(1, 1 << n):
            occ = tuple((bits >> i) & 1 for i in range(n))
            if classify_symmetry(RingConfig(n, occ)).cfg_class != brute_symmetry_class(occ):
                mismatches += 1
    rng = random.Random(20260811)
    for _ in range(100_000):
        n = rng.randrange(3, 22)
        k = rng.randrange(1, n + 3)
        occ = [0] * n
        for _ in range(k):
            occ[rng.randrange(n)] += 1
        occ = tuple(occ)
        if classify_symmetry(RingConfig(n, occ)).cfg_class != brute_symmetry_class(occ):
            mismatches += 1
    lemma1 = check_lemma1_views(11)
    ok = mismatches == 0 and lemma1.passed
    _emit(4, ok, f"{mismatches} classifier mismatches; lemma1: {lemma1.passed}")
    assert ok


@pytest.mark.slow
def test_criterion_5_local_global_consistency(battery):
    """On every configuration of the synchronous runs, the per-view local
    decision equals the global rule for every robot."""
    ok, detail = _check(battery, "local_global_consistency")
    _emit(5, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_6_determinism_and_replay(battery):
    """Byte-identical traces for identical inputs; replaying every emitted
    trace reproduces each occupancy string exactly."""
    replay_ok, replay_detail = _check(battery, "replay")
    sample = list(enumerate_initial_configs(15, 10))[:8]
    byte_identical = True
    for cfg in sample:
        for name, seed in (("synchronous", None), ("random", 3), ("lazy", 5)):
            a = run(cfg, builtin_scheduler(name, seed)).to_jsonl()
            b = run(cfg, builtin_scheduler(name, seed)).to_jsonl()
            if a != b:
                byte_identical = False
            from ring_gather import Trace

            if not replay_trace(Trace.from_jsonl(a)).passed:
                replay_ok = False
    ok = replay_ok and byte_identical
    _emit(6, ok, f"byte-identical: {byte_identical}; battery replay: {replay_detail}")
    assert ok
