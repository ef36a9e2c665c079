"""CORDA execution semantics, schedulers, traces, determinism."""

import hashlib
import json

import pytest

from ring_gather import (
    InvalidStartError,
    NoRuleError,
    RingConfig,
    Tag,
    Trace,
    builtin_scheduler,
    check_trace,
    classify_protocol_state,
    classify_symmetry,
    run,
)
from ring_gather.protocol import decide_targets
from ring_gather.simulate import (
    PendingIntent,
    Scheduler,
    _Sim,
    intent_is_incorrect,
    read_trace,
    write_trace,
)


def cfg_at(n, positions):
    return RingConfig.from_positions(n, positions)


TERMINAL_15 = cfg_at(15, list(range(5)) + list(range(6, 11)))
BLOCK_15 = cfg_at(15, range(10))
EITHER_WAY_15 = RingConfig.from_string("..111.1.111.111")  # robot 3 may go either way
MISSING = object()  # a stored field deleted


def _state(sim):
    """Everything a rejected action must leave as it was."""
    return (
        sim.step,
        list(sim.pending),
        tuple(sim.occ),
        sim.canon,
        sim.tag,
        list(sim.positions),
        sim.round,
        sim.round_start,
        list(sim.last_cycle.items()),  # a list: the fairness order counts
    )


class TestStep:
    def test_activate_records_intent(self):
        sim = _Sim(BLOCK_15)
        sim.apply(0)
        intent = sim.pending[0]
        assert intent is not None
        assert intent.target == (14,)
        assert tuple(sim.occ) == BLOCK_15.occ

    def test_fire_stay_is_noop(self):
        sim = _Sim(BLOCK_15)
        sim.apply(5)
        assert sim.pending[5].target == ()
        sim.apply(5)
        assert tuple(sim.occ) == BLOCK_15.occ
        assert sim.pending[5] is None

    def test_activate_then_fire_moves_border(self):
        sim = _Sim(BLOCK_15)
        sim.apply(0)
        sim.apply(0)
        assert sim.positions[0] == 14
        assert sim.occ[0] == 0 and sim.occ[14] == 1

    def test_outdated_intent_fires_on_old_target(self):
        # both Terminal movers snapshot; the second fires after the first
        # created the tower's first robot, still onto the same node
        sim = _Sim(TERMINAL_15)
        a = sim.positions.index(4)
        b = sim.positions.index(6)
        sim.apply(a)
        sim.apply(b)
        sim.apply(a)
        assert sim.occ[5] == 1
        intent = sim.pending[b]
        occ = tuple(sim.occ)
        assert intent.snapshot_occ != occ  # outdated
        # the catch-up move agrees with a fresh decision
        assert not intent_is_incorrect(occ, sim.positions[b], intent.target)
        sim.apply(b)
        assert sim.occ[5] == 2  # tower on the axis node

    def test_pending_stay_is_never_incorrect(self):
        # under random seed 1, robot 2 on node 7 snapshots a Stay that a
        # later move makes stale: a fresh decision would move it to node 6,
        # but firing the Stay changes nothing and the robot then re-observes
        cfg = RingConfig.from_string(".....1111111111")
        trace = run(cfg, builtin_scheduler("random", 1))
        sim = _Sim(cfg)
        for ev in trace.events[:35]:
            sim.apply(ev.robot, ev.to_node)
        intent = sim.pending[2]
        occ = tuple(sim.occ)
        assert intent.target == () and sim.positions[2] == 7
        assert decide_targets(RingConfig(sim.n, sim.occ), 7) == (6,)
        assert intent.snapshot_occ != occ  # outdated
        assert not intent_is_incorrect(occ, 7, intent.target)

    @pytest.mark.parametrize(
        "setup, action, reason",
        [
            ([], (10,), "no such robot"),
            # robot 3, on node 6, may step to node 5 or node 7
            ([3], (3,), "direction needed"),
            ([3], (3, 8), "direction needed"),
        ],
        ids=["no-such-robot", "direction-missing", "direction-off-pair"],
    )
    def test_contract_violation_rejected(self, setup, action, reason):
        sim = _Sim(EITHER_WAY_15)
        for robot in setup:
            sim.apply(robot)
        before = _state(sim)
        with pytest.raises(ValueError, match=f"scheduler contract violation: {reason}"):
            sim.apply(*action)
        assert _state(sim) == before

    def test_activation_without_rule_leaves_the_state(self):
        # the lazy run that ends Stuck, replayed: the robot it activated last
        # has "no rule" in the table, raises before the step counter moves
        # and leaves every intent as it was
        cfg = RingConfig.from_string("..11.11111111")
        trace = run(cfg, builtin_scheduler("lazy", 1), relaxed=True)
        assert trace.outcome == "Stuck"
        sim = _Sim(cfg)
        for ev in trace.events:
            sim.apply(ev.robot, ev.to_node)
        idle = [r for r in range(sim.k) if sim.pending[r] is None]
        ruleless = [r for r in idle if sim.table[sim.positions[r]] == "no rule"]
        assert ruleless
        before = _state(sim)
        for robot in ruleless:
            with pytest.raises(NoRuleError):
                sim.apply(robot)
        assert _state(sim) == before

    def test_apply_returns_the_recorded_event(self):
        # each pinned run's actions, fed to a fresh simulator, give back
        # the run's events: `apply` records its own action
        for occ in TRACE_DIGESTS:
            for name, seed in DIGEST_SCHEDULES:
                cfg = RingConfig.from_string(occ)
                trace = run(cfg, builtin_scheduler(name, seed))
                sim = _Sim(cfg)
                events = [sim.apply(ev.robot, ev.to_node) for ev in trace.events]
                assert events == trace.events, (occ, name, seed)

    def test_round_counts_when_every_robot_cycled(self):
        sim = _Sim(BLOCK_15)
        for r in range(sim.k):
            sim.apply(r)
        for r in range(sim.k):
            sim.apply(r)
        assert sim.round == 1


class TestRun:
    def test_gathered_at_start(self):
        cfg = RingConfig(15, tuple([10] + [0] * 14))
        trace = run(cfg, builtin_scheduler("synchronous"))
        assert trace.outcome == "Gathered"
        assert trace.rounds == 0
        assert trace.events == []

    def test_terminal_gathers_synchronously(self):
        trace = run(TERMINAL_15, builtin_scheduler("synchronous"))
        assert trace.outcome == "Gathered"
        tags = [ev.tag for ev in trace.events]
        assert "Target" in tags

    def test_invalid_starts_rejected(self):
        with pytest.raises(InvalidStartError, match="periodic"):
            run(cfg_at(15, [0, 3, 6, 9, 12]), builtin_scheduler("synchronous"))
        with pytest.raises(InvalidStartError, match="k even"):
            run(cfg_at(15, [0, 1, 2, 3, 4, 6, 7, 8, 9]), builtin_scheduler("synchronous"))
        with pytest.raises(InvalidStartError, match="k>8"):
            run(cfg_at(15, [0, 1, 2, 5, 7, 8]), builtin_scheduler("synchronous"))
        with pytest.raises(InvalidStartError, match="n odd"):
            run(cfg_at(16, [0, 1, 2, 3, 4, 6, 7, 8, 9, 11]), builtin_scheduler("synchronous"))
        with pytest.raises(InvalidStartError, match="n>k\\+3"):
            run(cfg_at(13, list(range(10))), builtin_scheduler("synchronous"))
        # relaxed lifts only k>8 and n>k+3
        with pytest.raises(InvalidStartError, match="constraint violated: n odd$"):
            run(RingConfig.from_string("1111111111......"), builtin_scheduler("synchronous"),
                relaxed=True)
        # a Terminal start skips the tower and periodicity checks, not the sizes
        with pytest.raises(InvalidStartError, match="k>8, n>k\\+3"):
            run(RingConfig.from_string("1111.1111.."), builtin_scheduler("synchronous"))
        with pytest.raises(InvalidStartError, match="^initial configuration has a tower$"):
            run(RingConfig.from_string("2.11111111....."), builtin_scheduler("synchronous"))
        # k = 36 meets every constraint of the protocol, but its gathered
        # tower has no occupancy character; relaxed does not lift that
        for relaxed in (False, True):
            with pytest.raises(InvalidStartError, match="^constraint violated: k<=35 "):
                run(RingConfig.from_string("1" * 36 + "." * 5), builtin_scheduler("synchronous"),
                    relaxed=relaxed)

    def test_phase3_start_accepted(self):
        occ = [0] * 15
        for p in list(range(4)) + list(range(7, 11)):
            occ[p] = 1
        occ[5] = 2
        trace = run(RingConfig(15, tuple(occ)), builtin_scheduler("synchronous"))
        assert trace.outcome == "Gathered"
        trace = run(RingConfig.from_string("1111.1111.."), builtin_scheduler("synchronous"),
                    relaxed=True)
        assert trace.outcome == "Gathered"

    def test_lazy_on_a_robot_without_rule_is_stuck(self):
        # the lazy adversary activates a robot that has no rule, as the
        # other schedulers do, and the run ends Stuck instead of raising
        trace = run(RingConfig.from_string("..11.11111111"), builtin_scheduler("lazy", 1),
                    relaxed=True)
        assert trace.outcome == "Stuck"

    @pytest.mark.parametrize("start", ["...1.11.11111.111.1", "..1.1..11.11111.111"])
    def test_run_that_no_robot_can_change_is_stuck(self, start):
        # the last move lands on a tower state with no protocol state, where
        # every robot stays; the run ends there instead of at the step limit
        trace = run(RingConfig.from_string(start), builtin_scheduler("lazy", 0))
        assert trace.outcome == "Stuck"
        assert len(trace.events) == 46
        assert trace.events[-1].occ == "......1.11111111.21"

    def test_conservation(self):
        trace = run(BLOCK_15, builtin_scheduler("random", 5))
        assert trace.outcome == "Gathered"
        for ev in trace.events:
            weights = [".123456789abcdefghijklmnopqrstuvwxyz".index(ch) for ch in ev.occ]
            assert sum(weights) == 10

    def test_round_monotonicity(self):
        trace = run(BLOCK_15, builtin_scheduler("lazy", 2))
        rounds = [ev.round for ev in trace.events]
        assert all(a <= b for a, b in zip(rounds, rounds[1:]))

    def test_exhaustive_cannot_drive_run(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            run(BLOCK_15, builtin_scheduler("exhaustive"))

    def test_inter_distance_two_start_gathers(self):
        # a d=2 single-block start exercises the BlockDistance funnel
        cfg = cfg_at(21, range(0, 20, 2))
        assert classify_protocol_state(cfg).tag is Tag.BLOCK_DISTANCE
        for sched in (
            builtin_scheduler("synchronous"),
            builtin_scheduler("random", 11),
        ):
            trace = run(cfg, sched)
            assert trace.outcome == "Gathered"
            tags = {ev.tag for ev in trace.events}
            assert "Unknown" not in tags

    def test_two_block_distance_start_gathers(self):
        cfg = cfg_at(23, [0, 2, 4, 6, 8, 12, 14, 16, 18, 20])
        trace = run(cfg, builtin_scheduler("synchronous"))
        assert trace.outcome == "Gathered"


class TestSchedulers:
    def test_unknown_name(self):
        for name in ("haphazard", "random_fair"):
            with pytest.raises(ValueError, match="unknown scheduler"):
                builtin_scheduler(name)

    def test_synchronous_preserves_symmetry(self):
        # after every full wave the configuration is symmetric or gathered
        trace = run(TERMINAL_15, builtin_scheduler("synchronous"))
        k = trace.k
        for i in range(2 * k - 1, len(trace.events), 2 * k):
            cfg = RingConfig.from_string(trace.events[i].occ)
            if len(cfg.occupied) == 1:
                continue
            assert not classify_symmetry(cfg).rigid, trace.events[i]

    @pytest.mark.parametrize("axis", [0, 14, 7])
    def test_synchronous_either_way_on_the_axis_node_steps_up(self, axis):
        # a robot on the axis node, with both neighbours as targets, steps
        # to node + 1; on node 0 and node n - 1 its ascending target tuple
        # lists node + 1 first, elsewhere node - 1
        cfg = cfg_at(15, [(v + axis) % 15 for v in (0, 2, 13, 3, 12, 6, 9)])
        assert classify_symmetry(cfg).axis_node == axis
        sim = _Sim(cfg)
        targets = tuple(sorted(((axis - 1) % 15, (axis + 1) % 15)))
        robot = sim.positions.index(axis)
        sim.pending[robot] = PendingIntent(1, cfg.occ, targets)
        sched = builtin_scheduler("synchronous")
        assert sched.choose_direction(sim, robot) == (axis + 1) % 15

    def test_custom_scheduler_names_only_robots(self):
        # the scheduler names a robot and never an action: the robot's own
        # state makes it activate or fire, and fairness brings in the rest
        class LowestFirst(Scheduler):
            name = "lowest"

            def propose(self, sim):
                return 0

            def choose_direction(self, sim, robot):
                return max(sim.pending[robot].target)

        trace = run(TERMINAL_15, LowestFirst())
        assert trace.outcome == "Gathered"
        assert {ev.robot for ev in trace.events} != {0}
        assert all(check_trace(trace).values())

    def test_lazy_reaches_terminal_skew(self):
        trace = run(TERMINAL_15, builtin_scheduler("lazy", 0))
        assert trace.events[2].tag == "TerminalSkew" or any(
            ev.tag == "TerminalSkew" for ev in trace.events
        )

    def test_random_fair_same_seed_same_trace(self):
        t1 = run(BLOCK_15, builtin_scheduler("random", 9))
        t2 = run(BLOCK_15, builtin_scheduler("random", 9))
        assert t1.to_jsonl() == t2.to_jsonl()

    def test_random_fair_different_seeds_differ(self):
        t1 = run(BLOCK_15, builtin_scheduler("random", 1))
        t2 = run(BLOCK_15, builtin_scheduler("random", 2))
        assert t1.to_jsonl() != t2.to_jsonl()

    def test_fairness_bound_honoured(self):
        # the default 4k, and 2k, 3k and 3k + 5, under every scheduler; at
        # 3k to 4k - 1 a forced action interrupts a synchronous wave, which
        # must then fire no robot with nothing pending
        for start in (BLOCK_15, TERMINAL_15):
            k = start.k
            for name in ("synchronous", "random", "lazy"):
                for bound in (4 * k, 2 * k, 3 * k, 3 * k + 5):
                    trace = run(start, builtin_scheduler(name, 1), fairness_bound=bound)
                    last_fire = {}
                    for ev in trace.events:
                        if ev.kind == "fire":
                            gap = ev.step - last_fire.get(ev.robot, 0)
                            assert gap <= bound, (start.to_string(), name, bound, ev.robot, gap)
                            last_fire[ev.robot] = ev.step

    def test_fairness_bound_below_2k_rejected(self):
        # a cycle is two actions, so no run lets k robots each finish one
        # within fewer than 2k
        with pytest.raises(ValueError, match="fairness bound 19 < 2k = 20"):
            run(BLOCK_15, builtin_scheduler("random", 1), fairness_bound=19)
        trace = run(BLOCK_15, builtin_scheduler("random", 1), fairness_bound=20)
        assert trace.fairness_bound == 20 and trace.outcome == "Gathered"


class TestAnonymity:
    def test_ids_permuted_across_nodes_give_same_configs(self):
        # the same start with every robot's id moved to another node: run in
        # synchronous waves (all activate, then all fire, in id order), both
        # must pass through the same configurations
        s1, s2 = _Sim(EITHER_WAY_15), _Sim(EITHER_WAY_15)
        s2.positions = s2.positions[3:] + s2.positions[:3]
        assert all(a != b for a, b in zip(s1.positions, s2.positions))
        sched = builtin_scheduler("synchronous")
        waves = 0
        while not s1.gathered():
            for sim in (s1, s2):
                for r in range(sim.k):
                    sim.apply(r)
                for r in range(sim.k):
                    direction = None
                    if len(sim.pending[r].target) > 1:
                        direction = sched.choose_direction(sim, r)
                    sim.apply(r, direction)
            assert s1.occ == s2.occ
            waves += 1
        assert s2.gathered() and waves > 1


DIGEST_SCHEDULES = [("synchronous", None), ("random", 3), ("lazy", 0)]
# start -> sha256 of `run(...).to_jsonl()` under each of DIGEST_SCHEDULES
TRACE_DIGESTS = {
    ".1.1.11.1111.11": (
        "57449aee41f92128782ba25bc18b68e5f6f986bc917306a734192c1e7e030340",
        "117e941338b7245084c1c0ced71c018109d1c72ac33de095ca7bfd416531a65b",
        "0f2c9ccd290278155ccd6381117fe4d235204eb03267d6379df90a43c5c4a919",
    ),
    # a robot of this start may step either way: the schedulers pick
    "..111.1.111.111": (
        "20379bae7fb12cd40f265cf6c5f5c5a038d0ac24f261d545bdd0b7cfa836a02c",
        "227d5986dc208a65b1b7902129955fecc75e4ea00cc1905b81d173c59254569b",
        "dc1ef93dd67cae42d2b41f2e67d5601c4a0b2cfbc0ebdfe76013354a9eb91745",
    ),
    "..11.11..11.11.11": (
        "35ce3059f2689243540ae542ef40c2182ba742f78491f8eb0ef40efd7bf89d4e",
        "9a2e9934f67146f372e8789847103b9bc2a56109569bff0e41c3baa6fe3e4f5b",
        "cc048125d4972a1711fff8c0686b3da5235d69dc32abb05224d9b24c760a5d09",
    ),
    "11111..1...11.1..1.": (
        "f7d08066d32a9db4e3478db0f320d10f07ad549924a53a0bb4c573c84ac17a26",
        "48a963a37b451f721b3acc55dfa9b20a88d08c7180aeb7a0888efae562cb73f2",
        "2f976a22aea6e5c64db05a1b39cb85724bc7996dc330dd2eb49e0cbdadee412f",
    ),
    "1..1..11.1..11111..11": (
        "aad22e7902237448ab4d3e56a8dd8fa15f4da72084516ffe26ac6bd52bbf148d",
        "0e34b0ec6f7cfd26d81f60b168b38b24340a211de1ba943b2760d6f0a0b81acc",
        "a697cec5e06a5e96b9a501e54649426c86dd29b49f0ddbebc5106f44b6e431f1",
    ),
    "111...111..1.1111....1.": (
        "08e1416d04674265a71464d91000dfed81a73b744e37b1d0736579f6c0889086",
        "d783b0e6fd91cf45312a3be441c72021d16f7a706cf5a6872bee4bdadc2a228d",
        "a2d469e25e1d57b320512f6ec4319e4526670ee594ea3515e142943248fcae98",
    ),
    ".111...11.1.1...11.1.1111..": (
        "ecda2e05efb545c3bbeed83d8a5f39c4da0e67673dc0eecb1a8b7298425802a7",
        "4ad3e29f898a2b375488e0249e492357ff86e14b6e66aff85589bd45bd856edf",
        "a1fa00cec1cd47a4ca8ef9eb2f85043f5f96ac6036f814eb88e33c585000ce1c",
    ),
    # a large ring, as the benchmark's large_runs simulate
    "11.11.1.11.1.1.1...11..11..1...1.1111....": (
        "fd3fd879927e0c562fae79f7b1e2edff85092b5f58e2d0fee341cb5c5c6214a6",
        "87e460dd64b12980054ebd2022db9dfebeb6e19c70d7feaa581a30df68c76485",
        "70e88650cb94ff01cb20e15a492c12d89a233df882465381182a832e127b40ae",
    ),
    # symmetric snapshots with either-way intents: at step 12 the synchronous
    # scheduler walks toward the axis, to node 6 where `min` would pick 4
    "..11.1.11.11.1.11": (
        "34f11bf2939c5becb996911a9493044449ac374fb1c6e14f57c58563b0ca5f3b",
        "8720923f9ec9db3488da31b833c38e39ae4c1cddcb2bcab2e8ebd89bd45b7817",
        "36f05ffd4c4de8790310b665df104e03c1063c2bbd08b5710e7d3489df1df1db",
    ),
}


def test_traces_are_byte_identical():
    """Traces are byte-reproducible: each run's JSONL hashes to the digest
    recorded for it.  A change that alters traces on purpose must update
    these digests and say why in CHANGES.md."""
    changed = []
    for occ, digests in TRACE_DIGESTS.items():
        for (name, seed), digest in zip(DIGEST_SCHEDULES, digests):
            trace = run(RingConfig.from_string(occ), builtin_scheduler(name, seed))
            if hashlib.sha256(trace.to_jsonl().encode()).hexdigest() != digest:
                changed.append((occ, name, seed))
    assert changed == []


class TestTraceSerialization:
    def test_jsonl_roundtrip(self, tmp_path):
        trace = run(TERMINAL_15, builtin_scheduler("random", 3))
        text = trace.to_jsonl()
        back = Trace.from_jsonl(text)
        assert back.to_jsonl() == text
        assert back.outcome == trace.outcome
        assert back.events == trace.events
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        assert path.read_text() == text
        assert read_trace(path) == back

    def test_header_and_footer_fields(self):
        trace = run(TERMINAL_15, builtin_scheduler("lazy", 7))
        lines = trace.to_jsonl().splitlines()
        head = json.loads(lines[0])
        assert set(head) == {"n", "k", "scheduler", "seed", "fairness_bound", "initial"}
        ev = json.loads(lines[1])
        assert set(ev) == {"step", "kind", "robot", "from", "to", "occ", "tag", "round"}
        foot = json.loads(lines[-1])
        assert set(foot) == {"outcome", "rounds"}

    # One stored line of the random-seed-1 trace of 11111.11111.... made
    # ill-typed: a field set to `value` or deleted (MISSING), or the whole
    # line replaced (field None).  Line 5 activates robot 5 on node 6, line
    # 13 fires it to node 5, and line -1 is the footer.
    ILL_TYPED = [
        (1, None, [1], "[1] is not a JSON object"),
        (1, "n", None, "field 'n' is null, not an integer"),
        (1, "k", MISSING, "no field 'k'"),
        (1, "initial", None, "field 'initial' is null, not a string"),
        (4, None, [2], "[2] is not a JSON object"),
        (4, None, None, "null is not a JSON object"),
        (4, None, 7, "7 is not a JSON object"),
        (4, "occ", None, "field 'occ' is null, not a string"),
        (4, "occ", MISSING, "no field 'occ'"),
        (4, "tag", None, "field 'tag' is null, not a string"),
        (4, "tag", ["Terminal"], 'field \'tag\' is ["Terminal"], not a string'),
        (4, "tag", {"a": 1}, 'field \'tag\' is {"a": 1}, not a string'),
        (5, "from", None, "field 'from' is null, not an integer"),
        (5, "from", "9", 'field \'from\' is "9", not an integer'),
        (5, "robot", None, "field 'robot' is null, not an integer"),
        (5, "robot", "3", 'field \'robot\' is "3", not an integer'),
        (13, "to", "12", 'field \'to\' is "12", not an integer or null'),
        # a float node equals its integer, so the replay would index with it
        (13, "from", 6.0, "field 'from' is 6.0, not an integer"),
        # a bool is a Python int, so robot 1 would replay
        (13, "robot", True, "field 'robot' is true, not an integer"),
        (-1, None, [1], "[1] is not a JSON object"),
        (-1, "rounds", MISSING, "no field 'rounds'"),
    ]

    @pytest.mark.parametrize(
        "line, field, value, message", ILL_TYPED, ids=[f"{c[0]}: {c[3]}" for c in ILL_TYPED]
    )
    def test_ill_typed_line_is_refused(self, line, field, value, message):
        lines = run(
            RingConfig.from_string("11111.11111...."), builtin_scheduler("random", 1)
        ).to_jsonl().splitlines()
        number = line if line > 0 else len(lines) + 1 + line
        stored = json.loads(lines[number - 1])
        if field is None:
            stored = value
        elif value is MISSING:
            del stored[field]
        else:
            stored[field] = value
        lines[number - 1] = json.dumps(stored)
        with pytest.raises(ValueError) as exc:
            Trace.from_jsonl("\n".join(lines))
        assert str(exc.value) == f"line {number}: {message}"

    @pytest.mark.parametrize("text", ["", "\n", '{"n": 15}\n'])
    def test_text_without_header_and_footer(self, text):
        with pytest.raises(ValueError, match="header line and a footer line"):
            Trace.from_jsonl(text)
