"""CORDA execution semantics, schedulers, traces, determinism."""

import pytest

from ring_gather import (
    InvalidStartError,
    RingConfig,
    SchedulerAction,
    SimState,
    Tag,
    Trace,
    builtin_scheduler,
    classify_protocol_state,
    run,
    step,
)
from ring_gather.protocol import decide_targets
from ring_gather.simulate import _Sim


def cfg_at(n, positions):
    return RingConfig.from_positions(n, positions)


TERMINAL_15 = cfg_at(15, list(range(5)) + list(range(6, 11)))
BLOCK_15 = cfg_at(15, range(10))


class TestStep:
    def test_activate_records_intent(self):
        state = SimState.initial(BLOCK_15)
        state = step(state, SchedulerAction("activate", 0))
        intent = state.pending[0]
        assert intent is not None
        assert intent.target == 14
        assert state.occ == BLOCK_15.occ

    def test_fire_stay_is_noop(self):
        state = SimState.initial(BLOCK_15)
        state = step(state, SchedulerAction("activate", 5))
        assert state.pending[5].target is None
        state = step(state, SchedulerAction("fire", 5))
        assert state.occ == BLOCK_15.occ
        assert state.pending[5] is None

    def test_activate_then_fire_moves_border(self):
        state = SimState.initial(BLOCK_15)
        state = step(state, SchedulerAction("activate", 0))
        state = step(state, SchedulerAction("fire", 0))
        assert state.positions[0] == 14
        assert state.occ[0] == 0 and state.occ[14] == 1

    def test_outdated_intent_fires_on_old_target(self):
        # both Terminal movers snapshot; the second fires after the first
        # created the tower's first robot, still onto the same node
        state = SimState.initial(TERMINAL_15)
        a = next(r for r, p in enumerate(state.positions) if p == 4)
        b = next(r for r, p in enumerate(state.positions) if p == 6)
        state = step(state, SchedulerAction("activate", a))
        state = step(state, SchedulerAction("activate", b))
        state = step(state, SchedulerAction("fire", a))
        assert state.occ[5] == 1
        intent = state.pending[b]
        assert intent.is_outdated(state)
        assert not intent.is_incorrect(state)  # the catch-up move agrees
        state = step(state, SchedulerAction("fire", b))
        assert state.occ[5] == 2  # tower on the axis node

    def test_pending_stay_is_never_incorrect(self):
        # under random seed 1, robot 2 on node 7 snapshots a Stay that a
        # later move makes stale: a fresh decision would move it to node 6,
        # but firing the Stay changes nothing and the robot then re-observes
        cfg = RingConfig.from_string(".....1111111111")
        trace = run(cfg, builtin_scheduler("random", 1))
        state = SimState.initial(cfg)
        for ev in trace.events[:35]:
            state = step(state, SchedulerAction(ev.kind, ev.robot, ev.to_node))
        intent = state.pending[2]
        assert intent.target is None and state.positions[2] == 7
        assert decide_targets(state.config, 7) == 6
        assert intent.is_outdated(state)
        assert not intent.is_incorrect(state)

    def test_double_activate_rejected(self):
        state = SimState.initial(BLOCK_15)
        state = step(state, SchedulerAction("activate", 0))
        with pytest.raises(ValueError, match="scheduler contract violation"):
            step(state, SchedulerAction("activate", 0))

    def test_fire_without_intent_rejected(self):
        state = SimState.initial(BLOCK_15)
        with pytest.raises(ValueError, match="scheduler contract violation"):
            step(state, SchedulerAction("fire", 3))

    def test_round_counts_when_every_robot_cycled(self):
        state = SimState.initial(BLOCK_15)
        for r in range(state.k):
            state = step(state, SchedulerAction("activate", r))
        for r in range(state.k):
            state = step(state, SchedulerAction("fire", r))
        assert state.round == 1


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

    def test_phase3_start_accepted(self):
        occ = [0] * 15
        for p in list(range(4)) + list(range(7, 11)):
            occ[p] = 1
        occ[5] = 2
        trace = run(RingConfig(15, tuple(occ)), builtin_scheduler("synchronous"))
        assert trace.outcome == "Gathered"

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
        with pytest.raises(ValueError, match="unknown scheduler"):
            builtin_scheduler("haphazard")

    def test_synchronous_preserves_symmetry(self):
        # after every full wave the configuration is symmetric or gathered
        from ring_gather import classify_symmetry

        trace = run(TERMINAL_15, builtin_scheduler("synchronous"))
        k = trace.k
        for i in range(2 * k - 1, len(trace.events), 2 * k):
            cfg = RingConfig.from_string(trace.events[i].occ)
            if len(cfg.occupied) == 1:
                continue
            assert not classify_symmetry(cfg).rigid, trace.events[i]

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
        bound = 40
        trace = run(BLOCK_15, builtin_scheduler("lazy", 1), fairness_bound=bound)
        last_fire = {}
        for ev in trace.events:
            if ev.kind == "fire":
                gap = ev.step - last_fire.get(ev.robot, 0)
                assert gap <= bound, (ev.robot, gap)
                last_fire[ev.robot] = ev.step


class TestAnonymity:
    def test_colocated_id_swap_gives_same_configs(self):
        occ = [0] * 15
        for p in list(range(4)) + list(range(7, 11)):
            occ[p] = 1
        occ[5] = 2
        cfg = RingConfig(15, tuple(occ))
        base = SimState.initial(cfg)
        # swap the two tower robots' ids
        ids = list(range(base.k))
        i, j = [r for r, p in enumerate(base.positions) if p == 5]
        ids[i], ids[j] = ids[j], ids[i]
        swapped = SimState(
            n=base.n,
            occ=base.occ,
            positions=tuple(base.positions[ids[r]] for r in range(base.k)),
            pending=base.pending,
            step=base.step,
            round=base.round,
            moved_this_round=base.moved_this_round,
            move_count=base.move_count,
            last_cycle_step=base.last_cycle_step,
        )
        s1, s2 = _Sim(base), _Sim(swapped)
        for r in range(base.k):
            s1.apply(SchedulerAction("activate", r))
            s2.apply(SchedulerAction("activate", r))
        for r in range(base.k):
            s1.apply(SchedulerAction("fire", r))
            s2.apply(SchedulerAction("fire", r))
            assert s1.occ == s2.occ


class TestTraceSerialization:
    def test_jsonl_roundtrip(self):
        trace = run(TERMINAL_15, builtin_scheduler("random", 3))
        text = trace.to_jsonl()
        back = Trace.from_jsonl(text)
        assert back.to_jsonl() == text
        assert back.outcome == trace.outcome
        assert back.events == trace.events

    def test_header_and_footer_fields(self):
        import json

        trace = run(TERMINAL_15, builtin_scheduler("lazy", 7))
        lines = trace.to_jsonl().splitlines()
        head = json.loads(lines[0])
        assert set(head) == {"n", "k", "scheduler", "seed", "fairness_bound", "initial"}
        ev = json.loads(lines[1])
        assert set(ev) == {"step", "kind", "robot", "from", "to", "occ", "tag", "round"}
        foot = json.loads(lines[-1])
        assert set(foot) == {"outcome", "rounds"}
