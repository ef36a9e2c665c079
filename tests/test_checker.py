"""Lemma checkers: enumeration, trace checks, transitions, replay."""

import random

import pytest

from ring_gather import (
    RingConfig,
    Tag,
    Trace,
    TraceEvent,
    Verdict,
    builtin_scheduler,
    build_phase2_instances,
    canonical_form,
    check_lemma1_views,
    check_never_periodic,
    check_no_tower_before_target,
    check_outdated_bound,
    check_phase2_transitions,
    check_phase_monotonic,
    check_round_bound,
    check_trace,
    enumerate_initial_configs,
    replay_trace,
    run,
    run_verification,
)

from ring_gather import checker, check_all_paths_gather, protocol
from ring_gather.checker import TRACE_CHECKS, _successors, _xstate

import oracles
from oracles import orbit_classes


def cfg_at(n, positions):
    return RingConfig.from_positions(n, positions)


TERMINAL_15 = cfg_at(15, list(range(5)) + list(range(6, 11)))


def make_trace(events, initial, outcome="Gathered", rounds=1, n=15, k=10):
    return Trace(
        n=n,
        k=k,
        scheduler="synchronous",
        seed=None,
        fairness_bound=40,
        initial=initial,
        events=events,
        outcome=outcome,
        rounds=rounds,
    )


class TestEnumerate:
    def test_two_robots_on_five(self):
        classes = list(enumerate_initial_configs(5, 2, relaxed=True))
        assert len(classes) == 2

    def test_periodic_excluded(self):
        classes = list(enumerate_initial_configs(9, 3, relaxed=True))
        assert canonical_form(cfg_at(9, [0, 3, 6])) not in {
            c.to_string() for c in classes
        }
        assert len(classes) == len(orbit_classes(9, 3))

    @pytest.mark.parametrize("n,k", [(15, 10), (17, 10)])
    def test_counts_match_orbit_oracle(self, n, k):
        classes = list(enumerate_initial_configs(n, k))
        assert len(classes) == len(orbit_classes(n, k))
        # all canonical, all distinct, all valid
        strings = [c.to_string() for c in classes]
        assert len(set(strings)) == len(strings)
        for c in classes:
            assert c.to_string() == canonical_form(c)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="k even"):
            list(enumerate_initial_configs(15, 9))
        with pytest.raises(ValueError, match="n odd"):
            list(enumerate_initial_configs(16, 10))


class TestTraceChecks:
    def test_clean_run_passes_everything(self):
        trace = run(TERMINAL_15, builtin_scheduler("synchronous"))
        assert check_no_tower_before_target(trace)
        assert check_never_periodic(trace)
        assert check_outdated_bound(trace)
        assert check_phase_monotonic(trace)
        assert check_round_bound(trace, 20)
        assert replay_trace(trace)

    def test_no_tower_violation_detected(self):
        bad = make_trace(
            [TraceEvent(1, "fire", 0, 1, 2, "..2.1111111....", "Unknown", 0)],
            initial="..111111111....",
        )
        verdict = check_no_tower_before_target(bad)
        assert not verdict.passed
        assert verdict.violation.step == 1

    def test_tower_after_target_allowed(self):
        trace = run(TERMINAL_15, builtin_scheduler("lazy", 4))
        assert trace.outcome == "Gathered"
        assert check_no_tower_before_target(trace)

    def test_periodic_frame_detected(self):
        bad = make_trace(
            [TraceEvent(1, "fire", 0, 1, 3, "1..1..1..", "Unknown", 0)],
            initial="11.1...1.",
            n=9,
            k=3,
        )
        verdict = check_never_periodic(bad)
        assert not verdict.passed

    def test_round_bound(self):
        trace = run(TERMINAL_15, builtin_scheduler("synchronous"))
        assert check_round_bound(trace, 20)
        assert not check_round_bound(
            make_trace([], TERMINAL_15.to_string(), outcome="StepLimit")
        )
        gathered = make_trace([], "a..............", outcome="Gathered", rounds=0)
        assert check_round_bound(gathered, 1)

    def test_outdated_bound_on_adversarial_run(self):
        trace = run(TERMINAL_15, builtin_scheduler("lazy", 1))
        assert check_outdated_bound(trace)

    def test_replay_detects_tampering(self):
        trace = run(TERMINAL_15, builtin_scheduler("random", 2))
        tampered = Trace(**{**trace.__dict__, "events": list(trace.events)})
        ev = tampered.events[len(tampered.events) // 2]
        tampered.events[len(tampered.events) // 2] = ev._replace(
            occ=ev.occ.replace("1", ".", 1)
        )
        assert not replay_trace(tampered).passed


def with_event(trace, index, **fields):
    """A copy of `trace` with fields of one event replaced."""
    events = list(trace.events)
    events[index] = events[index]._replace(**fields)
    return Trace(**{**trace.__dict__, "events": events})


def reference_verdicts(trace):
    return {name: check(trace) for name, check in oracles.TRACE_CHECKS.items()}


SCHEDULES = [("synchronous", None)]
SCHEDULES += [("random", seed) for seed in range(4)]
SCHEDULES += [("lazy", seed) for seed in range(2)]


@pytest.fixture(scope="module")
def traces_15():
    """Every class at (15, 10) under each schedule of SCHEDULES."""
    return [
        run(cfg, builtin_scheduler(name, seed))
        for cfg in enumerate_initial_configs(15, 10)
        for name, seed in SCHEDULES
    ]


class TestReplayRobustness:
    """A stored trace with a node that cannot be replayed gets a failing
    replay verdict of its own instead of an exception or a pass."""

    @pytest.fixture(scope="class")
    def trace(self):
        return run(RingConfig.from_string(".1.1.11.1111.11"), builtin_scheduler("random", 0))

    @staticmethod
    def assert_replay_fails(tampered, index, description):
        ev = tampered.events[index]
        assert replay_trace(tampered) == Verdict.fail(ev.step, description, ev.occ)
        assert check_outdated_bound(tampered) == Verdict.fail(
            ev.step, f"replay failed: {description}", ev.occ
        )

    def test_activation_from_an_empty_node(self, trace):
        assert trace.events[0].kind == "activate" and trace.initial[0] == "."
        tampered = with_event(trace, 0, from_node=0)
        self.assert_replay_fails(tampered, 0, "activate from an empty node")

    def test_activation_from_a_node_off_the_ring(self, trace):
        # robot 5 on node 9 decides Stay, so its fire names no node again
        ev = trace.events[3]
        assert (ev.kind, ev.robot, ev.from_node) == ("activate", 5, 9)
        fire = next(e for e in trace.events[4:] if e.robot == ev.robot)
        assert (fire.kind, fire.to_node) == ("fire", None)
        tampered = with_event(trace, 3, from_node=99)
        self.assert_replay_fails(tampered, 3, "activate from a node off the ring")

    def test_fire_to_a_node_off_the_ring(self, trace):
        ev = trace.events[10]
        assert (ev.kind, ev.from_node, ev.to_node) == ("fire", 13, 12)
        tampered = with_event(trace, 10, to_node=99)
        self.assert_replay_fails(tampered, 10, "fire to a node off the ring")


    def test_fire_from_an_emptied_node(self):
        # robots 4 and 9 both claim the one robot on node 4 of Terminal, and
        # both fire its move to node 5
        start = TERMINAL_15.to_string()
        before = canonical_form(TERMINAL_15)
        after = canonical_form(RingConfig.from_string(start[:4] + ".1" + start[6:]))
        trace = make_trace(
            [
                TraceEvent(1, "activate", 4, 4, None, before, "Terminal", 0),
                TraceEvent(2, "activate", 9, 4, None, before, "Terminal", 0),
                TraceEvent(3, "fire", 4, 4, 5, after, "TerminalSkew", 0),
                TraceEvent(4, "fire", 9, 4, 5, after, "TerminalSkew", 0),
            ],
            initial=start,
        )
        assert replay_trace(trace) == Verdict.fail(4, "fire from an empty node", after)

    def test_pending_intent_on_an_emptied_node(self):
        # robot 6 snapshots on node 11; the tampered event puts it on node 12,
        # whose own robot then moves away while robot 6's intent is pending,
        # so counting incorrect intents would need a view from an empty node:
        # the outdated-robot check fails there instead of raising
        trace = run(RingConfig.from_string("..1.11.1.111111"), builtin_scheduler("lazy", 0))
        assert trace.events[30][:4] == (31, "activate", 6, 11)
        tampered = with_event(trace, 30, from_node=12)
        assert check_outdated_bound(tampered) == Verdict.fail(
            36, "pending intent on an empty node", "...1111.1.11111"
        )
        # the replay itself fails later, where robot 6 fires from node 11
        assert replay_trace(tampered) == Verdict.fail(
            46, "fired move differs from intent", "...11111..11111"
        )


class TestPinnedVerdicts:
    def test_two_outdated_robots(self):
        trace = run(RingConfig.from_string("..11.11..11.11.11"), builtin_scheduler("lazy", 0))
        verdicts = check_trace(trace)
        assert verdicts.pop("outdated_bound") == Verdict.fail(
            6, "2 outdated robots with incorrect targets", "..1.11.11..11.111"
        )
        assert all(verdicts.values())

    def test_tower_before_target(self):
        trace = run(RingConfig.from_string(".1.1.11.1111.11"), builtin_scheduler("lazy", 0))
        verdicts = check_trace(trace)
        occ = "...1.21.111.111"
        assert verdicts.pop("no_tower_before_target") == Verdict.fail(
            27, "tower before Phase 3", occ
        )
        assert verdicts.pop("outdated_bound") == Verdict.fail(27, "unknown state reached", occ)
        assert verdicts.pop("phase_monotonic") == Verdict.fail(27, "unknown state reached", occ)
        assert all(verdicts.values())


class TestSinglePassMatchesReference:
    """`check_trace` against the five separate walkers of `oracles`."""

    def test_every_class_under_every_schedule(self, traces_15):
        for trace in traces_15:
            verdicts = check_trace(trace)
            assert list(verdicts) == list(TRACE_CHECKS)
            assert verdicts == reference_verdicts(trace), (
                trace.initial, trace.scheduler, trace.seed
            )

    def test_tampered_traces(self, traces_15):
        rng = random.Random(6)
        tags = [tag.value for tag in Tag] + ["Bogus"]
        new_value = {
            "kind": lambda trace: rng.choice(["activate", "fire", "look"]),
            "robot": lambda trace: rng.randrange(trace.k),
            "from_node": lambda trace: rng.randrange(trace.n),
            "to_node": lambda trace: rng.choice([None, rng.randrange(trace.n)]),
            "occ": lambda trace: rng.choice(trace.events).occ,
            "tag": lambda trace: rng.choice(tags),
        }
        replay_failures = set()
        compared = 0
        for _ in range(600):
            trace = rng.choice(traces_15)
            index = rng.randrange(len(trace.events))
            field = rng.choice(["drop", *new_value])
            if field == "drop":
                events = trace.events[:index] + trace.events[index + 1 :]
                tampered = Trace(**{**trace.__dict__, "events": events})
            else:
                tampered = with_event(trace, index, **{field: new_value[field](trace)})
            try:
                want = reference_verdicts(tampered)
            except (ValueError, IndexError):
                continue  # the reference cannot replay it (an empty node, say)
            assert check_trace(tampered) == want, (trace.initial, trace.scheduler, field, index)
            compared += 1
            if not want["replay"].passed:
                replay_failures.add(want["replay"].violation.description)
        assert compared > 500
        assert replay_failures == {
            "activate with intent pending",
            "activate with a target node",
            "fire without intent",
            "fired move differs from intent",
            "intent to move fired as stay",
            "unknown event kind 'look'",
            "occupancy diverged from recording",
        }


def test_verify_report_lists_every_failure():
    report = run_verification(grids=((15, 10),), random_seeds=0, lazy_seeds=2)
    failures = report["failures"]
    assert len(failures) == sum(entry["failed"] for entry in report["checks"].values())
    assert failures
    for failure in failures:
        assert list(failure) == [
            "initial", "scheduler", "seed", "check", "step", "description", "occ"
        ]
    for name, entry in report["checks"].items():
        mine = [{k: v for k, v in f.items() if k != "check"} for f in failures if f["check"] == name]
        assert mine[:1] == ([entry["first_counterexample"]] if entry["failed"] else [])


class TestPhase2Transitions:
    @pytest.mark.parametrize("n", [15, 17, 21])
    def test_conformance(self, n):
        verdict = check_phase2_transitions(build_phase2_instances(n, 10))
        assert verdict.passed, verdict.violation

    def test_terminal_reaches_target_within_depth(self):
        inst = {Tag.TERMINAL: build_phase2_instances(15, 10)[Tag.TERMINAL]}
        assert check_phase2_transitions(inst).passed

    def test_mislabel_detected(self):
        verdict = check_phase2_transitions({Tag.START: TERMINAL_15})
        assert not verdict.passed
        assert "mislabeled" in verdict.violation.description


class TestAllPathsGather:
    def test_terminal_gathers_under_every_interleaving(self):
        for n in (15, 17):
            inst = build_phase2_instances(n, 10)
            assert check_all_paths_gather(inst[Tag.TERMINAL]).passed

    def test_phase2_instances_gather_under_every_interleaving(self):
        for n in (15, 17):
            for tag, cfg in build_phase2_instances(n, 10).items():
                verdict = check_all_paths_gather(cfg)
                assert verdict.passed, (n, tag, verdict.violation)

    def test_failure_branch_census_is_stable(self):
        # Some initial classes admit an interleaving whose stale phase-1
        # intent later collides with a legal move; the exhaustive census of
        # those classes is a deterministic property of the rule engine.
        bad15 = sum(
            0 if check_all_paths_gather(cfg, max_states=3_000_000).passed else 1
            for cfg in enumerate_initial_configs(15, 10)
        )
        assert bad15 == 12

    @pytest.mark.parametrize(
        "n,k,classes,bad", [(17, 10, 600, 54), (19, 10, 2494, 163), (19, 12, 1368, 196)]
    )
    def test_failure_branch_census_of_larger_grids(self, n, k, classes, bad):
        verdicts = [check_all_paths_gather(c) for c in enumerate_initial_configs(n, k)]
        assert (len(verdicts), sum(not v.passed for v in verdicts)) == (classes, bad)

    def test_defect_start_has_reachable_failing_branch(self):
        verdict = check_all_paths_gather(RingConfig.from_string(".1.1.11.1111.11"))
        assert not verdict.passed
        # the failing branch ends with a tower outside the rule set
        assert any(c not in ".1" for c in verdict.violation.occ)

    def test_cycle_is_a_failing_verdict(self):
        # outside the protocol's sizes a scheduler can move robots back and
        # forth forever; the search reports the repeated configuration
        verdict = check_all_paths_gather(RingConfig.from_string("..111"))
        assert not verdict.passed
        assert "repeated" in verdict.violation.description
        assert RingConfig.from_string(verdict.violation.occ).k == 3


def _fields(verdict):
    v = verdict.violation
    return (verdict.passed, v and v.step, v and v.description, v and v.occ)


# every class at (15, 10), then the cycle outside the protocol's sizes
PROVEN_STARTS = [*enumerate_initial_configs(15, 10), RingConfig.from_string("..111")]


@pytest.fixture(scope="module")
def fresh_verdicts():
    """Each start's verdict from a search that shares no proven state."""
    out = {}
    for cfg in PROVEN_STARTS:
        protocol.clear_caches()
        out[cfg.to_string()] = _fields(check_all_paths_gather(cfg))
    return out


class TestProvenTable:
    """The all-paths search keeps the states it proves across calls."""

    @pytest.mark.parametrize("bound", [None, 16])
    @pytest.mark.parametrize("order", ["enumeration", "reverse"])
    def test_matches_fresh_search(self, fresh_verdicts, order, bound, monkeypatch):
        if bound is not None:
            monkeypatch.setattr(checker, "_CACHE_SIZE", bound)
        starts = PROVEN_STARTS if order == "enumeration" else PROVEN_STARTS[::-1]
        protocol.clear_caches()
        for cfg in starts:
            assert _fields(check_all_paths_gather(cfg)) == fresh_verdicts[cfg.to_string()]
            assert len(checker._PROVEN) <= checker._CACHE_SIZE
        assert checker._PROVEN
        assert sum(not v[0] for v in fresh_verdicts.values()) == 12 + 1

    def test_state_budget_counts_only_new_proofs(self, monkeypatch):
        cfg = build_phase2_instances(15, 10)[Tag.TERMINAL]
        protocol.clear_caches()
        verdict = check_all_paths_gather(cfg, max_states=1)
        assert _fields(verdict) == (False, None, "state budget 1 exceeded", None)
        assert check_all_paths_gather(cfg)
        expanded = []

        def successors(n, state):
            expanded.append(state)
            return _successors(n, state)

        monkeypatch.setattr(checker, "_successors", successors)
        assert check_all_paths_gather(cfg, max_states=1)
        assert expanded == []


class TestExplore:
    def test_depth_one_from_terminal(self):
        succ = _successors(TERMINAL_15.n, _xstate(TERMINAL_15))
        # exactly the two activations of the enabled pair
        assert [label[0] for label, _ in succ] == ["activate", "activate"]
        assert len({st for _, st in succ}) == 2
        assert all(st.occ == TERMINAL_15.occ for _, st in succ)


class TestLemma1:
    def test_sweep(self):
        assert check_lemma1_views(9).passed

    def test_three_distinct_views(self):
        from ring_gather import compute_view

        cfg = cfg_at(7, [0, 1, 3])
        views = {compute_view(cfg, v).dists for v in cfg.occupied}
        assert len(views) == 3

    def test_mirror_pair_shares_view(self):
        from ring_gather import compute_view

        cfg = cfg_at(7, [1, 6])
        assert compute_view(cfg, 1).dists == compute_view(cfg, 6).dists
