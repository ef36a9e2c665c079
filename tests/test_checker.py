"""Lemma checkers: enumeration, trace checks, transitions, replay."""

import copy
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ring_gather import (
    InvalidStartError,
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
from ring_gather.checker import (
    TRACE_CHECKS,
    _successors,
    check_local_global_consistency,
)
from ring_gather.ring import _move_one, parse_occupancy

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
        classes = list(enumerate_initial_configs(15, 10, relaxed=True))
        assert canonical_form(RingConfig.from_string("11.11.11.11.11.")) not in {
            c.to_string() for c in classes
        }
        assert len(classes) == len(orbit_classes(15, 10))
        # relaxed never lifts "k even"
        with pytest.raises(ValueError, match="k even"):
            list(enumerate_initial_configs(9, 3, relaxed=True))

    @pytest.mark.parametrize("n,k", [(15, 10), (17, 10)])
    def test_counts_match_orbit_oracle(self, n, k):
        classes = list(enumerate_initial_configs(n, k))
        assert len(classes) == len(orbit_classes(n, k))
        # all canonical, all distinct, all valid
        strings = [c.to_string() for c in classes]
        assert len(set(strings)) == len(strings)
        for c in classes:
            assert c.to_string() == canonical_form(c)

    @pytest.mark.parametrize(
        "n,k,relaxed",
        [(15, 10, False), (17, 10, False), (5, 2, True), (11, 8, True), (13, 10, True), (15, 8, True)],
    )
    def test_order_matches_placement_sweep(self, n, k, relaxed):
        # the verify report's first counterexample, the acceptance sample and
        # the protocol tests' first starts all read this order
        classes = [c.to_string() for c in enumerate_initial_configs(n, k, relaxed=relaxed)]
        assert classes == oracles.first_met_classes(n, k)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="k even"):
            list(enumerate_initial_configs(15, 9))
        with pytest.raises(ValueError, match="n odd"):
            list(enumerate_initial_configs(16, 10))
        with pytest.raises(ValueError, match="constraint violated: n odd$"):
            list(enumerate_initial_configs(8, 4, relaxed=True))


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


class TestLocalGlobalConsistency:
    def test_local_no_rule_is_a_failing_verdict(self):
        # odd k, outside the protocol, so no run starts here: the global
        # rule moves (BigBlock1_2) while no robot's view has a rule.  The
        # check reads only the start and the events of this stored trace.
        trace = Trace(n=7, k=3, scheduler="synchronous", seed=None, fairness_bound=12,
                      initial="..1..11", outcome="Stuck")
        assert trace.events == []
        verdict = check_local_global_consistency(trace)
        assert not verdict.passed
        assert verdict.violation.step == 0 and verdict.violation.occ == "..1..11"
        assert verdict.violation.description.startswith(
            "robot at 2: local 'no rule' vs global"
        )

    def test_occupancy_that_cannot_be_read_is_a_failing_verdict(self):
        trace = run(RingConfig.from_string("11111.11111...."), builtin_scheduler("random", 1))
        for fields, description in [
            ({"initial": "11111.1111!...."}, "bad occupancy character '!'"),
            ({"initial": "", "n": 0, "k": 0}, "occupancy has no robot"),
        ]:
            tampered = Trace(**{**trace.__dict__, **fields})
            assert check_local_global_consistency(tampered) == Verdict.fail(
                0, description, tampered.initial
            )
        tampered = with_event(trace, 4, occ="1!")
        assert check_local_global_consistency(tampered) == Verdict.fail(
            trace.events[4].step, "bad occupancy character '!'", "1!"
        )


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
        self.assert_replay_fails(tampered, 0, "robot is not on its from node")

    def test_activation_from_a_node_off_the_ring(self, trace):
        # robot 5 on node 9 decides Stay, so its fire names no node again
        ev = trace.events[3]
        assert (ev.kind, ev.robot, ev.from_node) == ("activate", 5, 9)
        fire = next(e for e in trace.events[4:] if e.robot == ev.robot)
        assert (fire.kind, fire.to_node) == ("fire", None)
        tampered = with_event(trace, 3, from_node=99)
        self.assert_replay_fails(tampered, 3, "robot is not on its from node")

    def test_fire_to_a_node_off_the_ring(self, trace):
        ev = trace.events[10]
        assert (ev.kind, ev.from_node, ev.to_node) == ("fire", 13, 12)
        tampered = with_event(trace, 10, to_node=99)
        self.assert_replay_fails(tampered, 10, "fired move differs from intent")

    def test_stay_cycle_moved_onto_another_robots_node(self, trace):
        # robot 6 on node 10 activates and fires a Stay; the same cycle
        # recorded on node 1, robot 0's node, changes no occupancy, tag or
        # round, so only the robot's own node tells it apart
        assert [(ev.step, ev.kind, ev.robot, ev.from_node, ev.to_node)
                for ev in (trace.events[0], trace.events[4])] == [
            (1, "activate", 6, 10, None), (5, "fire", 6, 10, None)]
        tampered = with_event(with_event(trace, 0, from_node=1), 4, from_node=1)
        self.assert_replay_fails(tampered, 0, "robot is not on its from node")

    def test_robot_that_does_not_exist(self):
        # robot 3 renamed 99 in every event: the events still replay alike,
        # but the trace's k = 10 robots have no robot 99
        trace = run(RingConfig.from_string("11111.11111...."), builtin_scheduler("random", 1))
        first = next(i for i, ev in enumerate(trace.events) if ev.robot == 3)
        events = [ev._replace(robot=99) if ev.robot == 3 else ev for ev in trace.events]
        tampered = Trace(**{**trace.__dict__, "events": events})
        self.assert_replay_fails(tampered, first, "no such robot")

    @pytest.mark.parametrize("field, value", [("n", 17), ("k", 12)])
    def test_header_that_differs_from_initial(self, field, value):
        trace = run(RingConfig.from_string("11111.11111...."), builtin_scheduler("random", 1))
        tampered = Trace(**{**trace.__dict__, field: value})
        description = "header n or k differs from initial"
        assert replay_trace(tampered) == Verdict.fail(0, description, trace.initial)
        assert check_outdated_bound(tampered) == Verdict.fail(
            0, f"replay failed: {description}", trace.initial
        )

    def test_initial_that_does_not_parse(self):
        # nor one that holds no robot
        trace = run(RingConfig.from_string("11111.11111...."), builtin_scheduler("random", 1))
        for fields, description in [
            ({"initial": "11111.1111!...."}, "bad occupancy character '!'"),
            ({"initial": "", "n": 0, "k": 0}, "occupancy has no robot"),
        ]:
            tampered = Trace(**{**trace.__dict__, **fields})
            verdicts = check_trace(tampered)
            assert verdicts["replay"] == Verdict.fail(0, description, tampered.initial)
            assert verdicts["outdated_bound"] == Verdict.fail(
                0, f"replay failed: {description}", tampered.initial
            )
            # the checks that read only recorded fields go on as before
            for name in ("no_tower_before_target", "never_periodic", "phase_monotonic"):
                assert verdicts[name] == check_trace(trace)[name]

    def test_occupancy_that_does_not_parse(self, trace):
        # the replay fails at the event; of the checks that read only
        # recorded fields, no tower fails there and never periodic skips it
        ev = trace.events[2]
        verdicts = check_trace(with_event(trace, 2, occ="1!"))
        assert verdicts["replay"] == Verdict.fail(
            ev.step, "occupancy diverged from recording", "1!"
        )
        assert verdicts["no_tower_before_target"] == Verdict.fail(
            ev.step, "tower before Phase 3", "1!"
        )
        assert verdicts["never_periodic"] == check_trace(trace)["never_periodic"]

    def test_fire_from_an_emptied_node(self):
        # robots 4 and 9 both claim the one robot on node 4 of Terminal, and
        # both fire its move to node 5; robot 9 is on node 10
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
        assert replay_trace(trace) == Verdict.fail(2, "robot is not on its from node", before)

    @pytest.mark.parametrize(
        "to_node, description",
        [(1, "fired move differs from intent"), (None, "intent to move fired as stay")],
    )
    def test_fired_intent_without_rule(self, to_node, description):
        # odd k, outside the protocol, so no run starts here: robot 0 on
        # node 2 has no rule, though the global rule (BigBlock1_2) moves it,
        # so its intent matches no fire, to a node or as a stay
        start = "..1..11"
        # "...1.11" is the canonical form of ".1...11"
        after, tag = ("...1.11", "Biblock") if to_node is not None else (start, "BigBlock1_2")
        trace = make_trace(
            [
                TraceEvent(1, "activate", 0, 2, None, start, "BigBlock1_2", 0),
                TraceEvent(2, "fire", 0, 2, to_node, after, tag, 0),
            ],
            initial=start,
            outcome="Stuck",
            n=7,
            k=3,
        )
        assert replay_trace(trace) == Verdict.fail(2, description, after)

    def test_pending_intent_on_an_emptied_node(self):
        # robot 6 snapshots on node 11; the tampered event puts it on node 12,
        # robot 7's node, whose robot later moves away while robot 6's
        # intent is pending: the replay fails at the claim itself
        trace = run(RingConfig.from_string("..1.11.1.111111"), builtin_scheduler("lazy", 0))
        assert trace.events[30][:4] == (31, "activate", 6, 11)
        tampered = with_event(trace, 30, from_node=12)
        self.assert_replay_fails(tampered, 30, "robot is not on its from node")


class TestPinnedVerdicts:
    def test_two_outdated_robots(self):
        trace = run(RingConfig.from_string("..11.11..11.11.11"), builtin_scheduler("lazy", 0))
        verdicts = check_trace(trace)
        assert verdicts.pop("outdated_bound") == Verdict.fail(
            6, "2 outdated robots with incorrect targets", "..1.11.11..11.111"
        )
        assert all(verdicts.values())

    @pytest.mark.parametrize("tag, bounded", [("BigBlock1_2", True), ("SplitS", True),
                                              ("Terminal", False)])
    def test_outdated_bound_only_in_phases_1_and_2(self, tag, bounded):
        # the same run with every event's tag recorded as one of Phase 1, 2
        # or 3: the bound reads the recorded phase, and holds in Phase 3
        trace = run(RingConfig.from_string("..11.11..11.11.11"), builtin_scheduler("lazy", 0))
        trace.events = [ev._replace(tag=tag) for ev in trace.events]
        expected = Verdict.ok()
        if bounded:
            expected = Verdict.fail(6, "2 outdated robots with incorrect targets",
                                    "..1.11.11..11.111")
        assert check_outdated_bound(trace) == expected

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


def test_battery_traces_and_verdicts_are_pinned(traces_15):
    """The benchmark's battery at (15, 10): the JSONL of its 770 runs, byte
    for byte, and the tally of their `check_trace` verdicts."""
    text = "".join(trace.to_jsonl() for trace in traces_15)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "76a6147fa59007100fa6d57561775460c91b269b3a75b6ffd8c3ab75a0fc9e67"
    )
    failed = Counter(
        name for trace in traces_15 for name, v in check_trace(trace).items() if not v.passed
    )
    assert failed == {"no_tower_before_target": 2, "outdated_bound": 2, "phase_monotonic": 2}


# the phase of each tag string a trace records
PHASE_OF = {tag.value: phase for tag, phase in protocol.PHASES.items()}


def _pending_before(trace):
    """For each event, the robots with a pending intent just before it."""
    pending, out = set(), []
    for ev in trace.events:
        out.append(frozenset(pending))
        (pending.add if ev.kind == "activate" else pending.discard)(ev.robot)
    return out


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
        for _ in range(600):
            trace = rng.choice(traces_15)
            index = rng.randrange(len(trace.events))
            field = rng.choice(["drop", *new_value])
            if field == "drop":
                events = trace.events[:index] + trace.events[index + 1 :]
                tampered = Trace(**{**trace.__dict__, "events": events})
            else:
                tampered = with_event(trace, index, **{field: new_value[field](trace)})
            want = reference_verdicts(tampered)
            assert check_trace(tampered) == want, (trace.initial, trace.scheduler, field, index)
            if not want["replay"].passed:
                replay_failures.add(want["replay"].violation.description)
        assert replay_failures == {
            "activate with intent pending",
            "activate with a target node",
            "fire without intent",
            "robot is not on its from node",
            "fired move differs from intent",
            "intent to move fired as stay",
            "unknown event kind 'look'",
            "occupancy diverged from recording",
        }

    def test_tag_changed_on_a_repeated_occupancy(self, traces_15):
        # the checks of the recorded fields skip an event whose (occ, tag)
        # repeats the previous event's; one that keeps the occupancy but
        # changes its tag is judged anew: first in any phase, then after
        # Phase 3, where a Phase-1 tag falls back
        falls_back = 0
        for trace in traces_15[::11]:  # 70 runs, each schedule 10 times
            events = trace.events
            repeated = [i for i in range(1, len(events)) if events[i].occ == events[i - 1].occ]
            p3 = next(
                (i for i, ev in enumerate(events) if PHASE_OF.get(ev.tag) is protocol.Phase.PHASE3),
                len(events),
            )
            after_p3 = [i for i in repeated if i > p3]
            for index in {repeated[0], *after_p3[:1]}:
                for tag in ("BigBlock2", "Bogus"):
                    tampered = with_event(trace, index, tag=tag)
                    want = reference_verdicts(tampered)
                    assert check_trace(tampered) == want, (trace.initial, trace.scheduler, index)
                    if tag == "BigBlock2" and index > p3:
                        assert want["phase_monotonic"] == Verdict.fail(
                            events[index].step, "fell back to BigBlock2", events[index].occ
                        )
                        falls_back += 1
        assert falls_back == 70  # every sampled run reaches Phase 3

    def test_stay_fire_dropped_or_turned_into_a_move(self, traces_15):
        # the outdated-robot count is not redone after a Stay fires, since a
        # Stay is never incorrect; a Stay fire in Phase 1 or 2 with two other
        # intents pending is dropped, or fired to a neighbour instead
        compared = Counter()
        for trace in traces_15[::11]:
            before = _pending_before(trace)
            stays = [
                i for i, ev in enumerate(trace.events)
                if ev.kind == "fire" and ev.to_node is None
                and len(before[i] - {ev.robot}) >= 2
                and PHASE_OF.get(ev.tag) in (protocol.Phase.PHASE1, protocol.Phase.PHASE2)
            ]
            for index in stays[:2]:
                ev = trace.events[index]
                dropped = trace.events[:index] + trace.events[index + 1 :]
                for tampered in (
                    Trace(**{**trace.__dict__, "events": dropped}),
                    with_event(trace, index, to_node=(ev.from_node + 1) % trace.n),
                ):
                    want = reference_verdicts(tampered)
                    assert check_trace(tampered) == want, (trace.initial, trace.scheduler, index)
                    compared[want["replay"].violation.description] += 1
        assert compared["fired move differs from intent"] > 50
        assert compared["activate with intent pending"] > 50


# the JSON values a mutant stores in a field or in place of a line, besides
# an occupancy string of its trace
MUTANT_VALUES = [None, True, False, -1, 10**30, 1.5, 2.0, "x", "15", [], {}]


def _in_range(trace):
    """Whether the header agrees with `initial` and every event names a
    robot below k: the reference judges only those."""
    try:
        occ = parse_occupancy(trace.initial)
    except ValueError:
        return False
    return (len(occ), sum(occ)) == (trace.n, trace.k) and all(
        0 <= ev.robot < trace.k for ev in trace.events
    )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_stored_mutant_is_refused_or_judged(traces_15, data):
    # one to three mutations of the JSONL of one of ten battery traces: a
    # field set or deleted, a line replaced, duplicated, or swapped with
    # another; the reader refuses the mutant or no public check raises on it
    trace = data.draw(st.sampled_from(traces_15[:30:3]))
    lines = [json.loads(ln) for ln in trace.to_jsonl().splitlines()]
    values = st.sampled_from(MUTANT_VALUES) | st.sampled_from([ln["occ"] for ln in lines[1:-1]])
    for _ in range(data.draw(st.integers(1, 3))):
        last = len(lines) - 1
        i = data.draw(st.sampled_from([0, last]) | st.integers(0, last))  # header, footer, any
        op = data.draw(st.sampled_from(["set", "delete", "replace", "duplicate", "swap"]))
        if op in ("set", "delete") and type(lines[i]) is dict and lines[i]:
            field = data.draw(st.sampled_from(sorted(lines[i])))
            if op == "set":
                lines[i][field] = copy.deepcopy(data.draw(values))
            else:
                del lines[i][field]
        elif op == "replace":
            lines[i] = copy.deepcopy(data.draw(values))
        elif op == "duplicate":
            lines.insert(data.draw(st.integers(0, last + 1)), copy.deepcopy(lines[i]))
        elif op == "swap":
            j = data.draw(st.integers(0, last))
            lines[i], lines[j] = lines[j], lines[i]
    try:
        trace = Trace.from_jsonl("\n".join(json.dumps(ln) for ln in lines))
    except ValueError:
        return
    verdicts = check_trace(trace)
    assert {name: check(trace) for name, check in TRACE_CHECKS.items()} == verdicts
    assert type(check_round_bound(trace)) is Verdict
    assert type(check_local_global_consistency(trace)) is Verdict
    if _in_range(trace):
        assert verdicts == reference_verdicts(trace)


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
    # a sampled run is one branch of the census's search from its start
    census_bad = {
        cfg.to_string()
        for cfg in enumerate_initial_configs(15, 10)
        if not check_all_paths_gather(cfg)
    }
    assert {f["initial"] for f in failures} <= census_bad


def test_process_pool_gives_the_serial_report():
    kwargs = dict(grids=((15, 10),), random_seeds=1, lazy_seeds=1, transition_ns=(15,),
                  lemma1_n_max=6)
    serial = run_verification(**kwargs)
    pooled = run_verification(jobs=2, **kwargs)
    for report in (serial, pooled):
        del report["stats"]["wall_seconds"]
    assert pooled == serial


def test_sampled_events_are_census_edges():
    # the converse of the report test above: replayed as explorer states
    # (occ, pending), with only the intents that have a target pending,
    # every event of a sampled run that changes the state (a move, or an
    # activation with a target) is an edge of the census, and a run that
    # reaches a census dead end starts from a class the census finds bad
    n = 15
    starts = list(enumerate_initial_configs(n, 10))
    census_bad = {cfg.to_string() for cfg in starts if not check_all_paths_gather(cfg)}
    edges = dead_ends = 0
    for cfg in starts:
        for name, seed in (("synchronous", None), ("random", 0), ("lazy", 0)):
            trace = run(cfg, builtin_scheduler(name, seed))
            occ, pending = cfg.occ, {}  # robot -> (node, targets)
            dead_end = False
            for ev in trace.events + [None]:
                state = (occ, tuple(sorted(pending.values())))
                succs = _successors(state)
                dead_end = dead_end or (not succs and occ.count(0) != n - 1)
                if ev is None:
                    break
                if ev.kind == "activate":
                    target = protocol._decisions(occ)[ev.from_node]
                    if not target:
                        continue
                    pending[ev.robot] = (ev.from_node, target)
                    label = ("activate", ev.from_node)
                else:
                    pending.pop(ev.robot, None)
                    if ev.to_node is None:
                        continue
                    occ = _move_one(occ, ev.from_node, ev.to_node)
                    label = ("fire", ev.from_node, ev.to_node)
                edge = (label, (occ, tuple(sorted(pending.values()))))
                assert edge in succs, (cfg.to_string(), name, ev.step)
                edges += 1
            if dead_end:
                assert cfg.to_string() in census_bad, (cfg.to_string(), name)
                dead_ends += 1
    assert (edges, dead_ends) == (32_471, 1)


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
        verdicts = [check_all_paths_gather(cfg) for cfg in enumerate_initial_configs(15, 10)]
        steps = [v.violation.step for v in verdicts if not v.passed]
        assert len(steps) == 12
        # each failing branch names the depth of its dead end
        assert (min(steps), max(steps)) == (31, 58)

    @pytest.mark.parametrize(
        "n,k,classes,bad",
        [
            (17, 10, 600, 54),
            (19, 10, 2494, 163),
            (19, 12, 1368, 196),
            (21, 10, 8524, 387),
            (21, 12, 7101, 723),
        ],
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
        # at n = k + 3, which only --relaxed admits, a scheduler can move
        # robots back and forth forever; the search reports the repeated
        # configuration and its depth
        verdict = check_all_paths_gather(RingConfig.from_string(".1.1.111111"))
        assert not verdict.passed
        assert "repeated" in verdict.violation.description
        assert (verdict.violation.step, verdict.violation.occ) == (10, ".1.1.111111")

    @pytest.mark.parametrize("occ,problem", [("..111", "k even"), ("1" * 10 + "." * 6, "n odd")])
    def test_start_outside_the_rules_domain_is_rejected(self, occ, problem):
        with pytest.raises(InvalidStartError, match=problem):
            check_all_paths_gather(RingConfig.from_string(occ))

    @pytest.mark.parametrize("n,k,judged", [(15, 10, 1105), (17, 10, 3322)])
    def test_table_matches_global_rule_on_every_expanded_state(self, n, k, judged, monkeypatch):
        # the census moves robots by their own decisions; wherever the
        # protocol has a state, those must be the global rule's moves
        expanded = set()

        def successors(state):
            expanded.add(state[0])
            return _successors(state)

        monkeypatch.setattr(checker, "_successors", successors)
        protocol.clear_caches()
        for cfg in enumerate_initial_configs(n, k):
            check_all_paths_gather(cfg)
        count = 0
        for occ in expanded:
            a = protocol._analyze(occ)
            if a.tag is Tag.UNKNOWN:
                continue
            count += 1
            table = protocol._decisions(occ)
            movers = {v: e for v, e in enumerate(table) if e and e is not protocol._EMPTY}
            assert movers == a.moves, RingConfig(n, occ).to_string()
        assert count == judged


def _fields(verdict):
    v = verdict.violation
    return (verdict.passed, v and v.step, v and v.description, v and v.occ)


# every class at (15, 10), then a cycle at (11, 8)
PROVEN_STARTS = [*enumerate_initial_configs(15, 10), RingConfig.from_string(".1.1.111111")]


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
        failing = [v for v in fresh_verdicts.values() if not v[0]]
        assert len(failing) == 12 + 1
        assert all(v[1] is not None for v in failing)  # so the steps are compared too

    def test_state_budget_counts_only_new_proofs(self, monkeypatch):
        cfg = build_phase2_instances(15, 10)[Tag.TERMINAL]
        protocol.clear_caches()
        monkeypatch.setattr(checker, "_MAX_STATES", 1)
        verdict = check_all_paths_gather(cfg)
        assert _fields(verdict) == (False, None, "state budget 1 exceeded", None)
        monkeypatch.undo()
        assert check_all_paths_gather(cfg)
        expanded = []

        def successors(state):
            expanded.append(state)
            return _successors(state)

        monkeypatch.setattr(checker, "_successors", successors)
        monkeypatch.setattr(checker, "_MAX_STATES", 1)
        assert check_all_paths_gather(cfg)
        assert expanded == []


class TestExplore:
    def test_depth_one_from_terminal(self):
        succ = _successors((TERMINAL_15.occ, ()))
        # exactly the two activations of the enabled pair
        assert [label[0] for label, _ in succ] == ["activate", "activate"]
        assert len({st for _, st in succ}) == 2
        assert all(occ == TERMINAL_15.occ for _, (occ, _pending) in succ)


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
