"""Rule engine: classification, enabled moves, and the local decision path."""

import importlib
import itertools
import pkgutil

import pytest

import ring_gather

from ring_gather import (
    RingConfig,
    Tag,
    Phase,
    View,
    NoRuleError,
    classify_protocol_state,
    classify_symmetry,
    compute_view,
    enabled_moves,
    local_decide,
    phase_of,
)
from ring_gather import checker, protocol, simulate
from ring_gather.checker import check_all_paths_gather
from ring_gather.protocol import (
    Decision,
    LocalDecision,
    _even_pattern,
    _odd_pattern,
    clear_caches,
    decide_targets,
    reconstruct_from_view,
)
from ring_gather.checker import build_phase2_instances, enumerate_initial_configs
from ring_gather.simulate import builtin_scheduler, run

from oracles import brute_view


def cfg_at(n, positions):
    return RingConfig.from_positions(n, positions)


def moves_of(cfg):
    return {m.robot_node: tuple(sorted(m.targets)) for m in enabled_moves(cfg)}


TERMINAL_15 = cfg_at(15, list(range(5)) + list(range(6, 11)))
BLOCK_15 = cfg_at(15, range(10))


def target_15():
    occ = [0] * 15
    for p in list(range(4)) + list(range(7, 11)):
        occ[p] = 1
    occ[5] = 2
    return RingConfig(15, tuple(occ))


class TestClassification:
    def test_terminal(self):
        state = classify_protocol_state(TERMINAL_15)
        assert state.tag is Tag.TERMINAL
        assert state.roles["H"].size == 1

    def test_block(self):
        assert classify_protocol_state(BLOCK_15).tag is Tag.BLOCK

    def test_target(self):
        assert classify_protocol_state(target_15()).tag is Tag.TARGET

    def test_gathered(self):
        cfg = RingConfig(15, tuple([10] + [0] * 14))
        assert classify_protocol_state(cfg).tag is Tag.GATHERED

    def test_periodic_is_unknown(self):
        assert classify_protocol_state(cfg_at(9, [0, 3, 6])).tag is Tag.UNKNOWN

    def test_stray_tower_is_unknown(self):
        occ = [0] * 15
        occ[0] = 2
        for p in (3, 7, 11):
            occ[p] = 1
        assert classify_protocol_state(RingConfig(15, tuple(occ))).tag is Tag.UNKNOWN

    def test_all_phase2_instances_classify(self):
        for n in (15, 17, 21):
            for tag, cfg in build_phase2_instances(n, 10).items():
                assert classify_protocol_state(cfg).tag is tag, (n, tag)

    def test_terminal_skew(self):
        # one Terminal flanker has stepped onto the middle node
        cfg = cfg_at(15, list(range(4)) + list(range(5, 11)))
        state = classify_protocol_state(cfg)
        assert state.tag is Tag.TERMINAL_SKEW
        assert state.roles["r1"] == 5

    def test_block_distance_single_block(self):
        cfg = cfg_at(21, range(0, 20, 2))
        state = classify_protocol_state(cfg)
        assert state.tag is Tag.BLOCK_DISTANCE
        assert state.roles["H"].nodes(21) == (9,)

    def test_block_distance_two_blocks(self):
        cfg = cfg_at(23, [0, 2, 4, 6, 8, 12, 14, 16, 18, 20])
        state = classify_protocol_state(cfg)
        assert state.tag is Tag.BLOCK_DISTANCE
        assert state.roles["H"].size == 3

    def test_block_mirror2(self):
        cfg = cfg_at(17, [0, 1, 3, 4, 6, 7, 9, 10, 12, 13])
        state = classify_protocol_state(cfg)
        assert state.tag is Tag.BLOCK_MIRROR_2
        assert state.roles["H"].size == 3

    def test_block_mirror1(self):
        cfg = cfg_at(15, [0, 1, 3, 4, 7, 8, 12, 13])
        assert classify_symmetry(cfg).rigid
        assert classify_protocol_state(cfg).tag is Tag.BLOCK_MIRROR_1

    def test_big_block_1_1_two_blocks(self):
        cfg = cfg_at(15, [0, 1, 2, 3, 5, 7, 10, 11, 12, 13])
        assert classify_protocol_state(cfg).tag is Tag.BIG_BLOCK_1_1

    def test_big_block_1_1_single_block(self):
        cfg = cfg_at(15, list(range(8)) + [9, 11])
        assert classify_protocol_state(cfg).tag is Tag.BIG_BLOCK_1_1

    def test_big_block_variants(self):
        # isolated robot beside the biggest block
        cfg = cfg_at(15, [0, 1, 2, 3, 4, 6, 8, 9, 11, 12])
        assert classify_protocol_state(cfg).tag is Tag.BIG_BLOCK_1_2
        # no isolated robot at all
        cfg2 = cfg_at(15, [0, 1, 2, 3, 4, 6, 7, 9, 10, 11])
        assert classify_protocol_state(cfg2).tag is Tag.BIG_BLOCK_2


class TestEnabledMoves:
    def test_block_borders_move_outward(self):
        assert moves_of(BLOCK_15) == {0: (14,), 9: (10,)}

    def test_terminal_flankers_move_onto_leader_hole(self):
        assert moves_of(TERMINAL_15) == {4: (5,), 6: (5,)}

    def test_gathered_no_moves(self):
        cfg = RingConfig(15, tuple([10] + [0] * 14))
        assert enabled_moves(cfg) == frozenset()

    def test_unknown_raises(self):
        with pytest.raises(NoRuleError, match="no rule"):
            enabled_moves(cfg_at(9, [0, 3, 6]))

    def test_big_block_2_closest_border(self):
        # two d=2 blocks of sizes 4 and 3; the 3-block border nearest the
        # 4-block (robot 9, three edges from robot 6) moves toward it
        cfg = cfg_at(17, [0, 2, 4, 6, 9, 11, 13])
        assert classify_protocol_state(cfg).tag is Tag.BIG_BLOCK_2
        assert moves_of(cfg) == {9: (8,)}

    def test_big_block_1_1_farthest_isolated(self):
        cfg = cfg_at(15, [0, 1, 2, 3, 5, 7, 10, 11, 12, 13])
        # isolated 5 is two edges from its block, isolated 7 three edges
        assert moves_of(cfg) == {7: (8,)}

    def test_big_block_1_2_only_isolated_move(self):
        cfg = cfg_at(15, [0, 1, 2, 3, 4, 6, 8, 9, 11, 12])
        moves = moves_of(cfg)
        assert moves == {6: (5,)}

    def test_block_distance_single_block_movers(self):
        cfg = cfg_at(21, range(0, 20, 2))
        assert moves_of(cfg) == {8: (7,), 10: (11,)}

    def test_block_distance_two_block_movers(self):
        cfg = cfg_at(23, [0, 2, 4, 6, 8, 12, 14, 16, 18, 20])
        assert moves_of(cfg) == {8: (7,), 12: (13,)}

    def test_block_mirror2_movers_toward_guides(self):
        cfg = cfg_at(17, [0, 1, 3, 4, 6, 7, 9, 10, 12, 13])
        assert moves_of(cfg) == {3: (2,), 10: (11,)}

    def test_block_mirror1_unique_mover_by_view(self):
        cfg = cfg_at(15, [0, 1, 3, 4, 7, 8, 12, 13])
        moves = moves_of(cfg)
        assert len(moves) == 1
        # candidates: the borders across the two size-1 holes
        candidates = {0: 14, 1: 2, 3: 2, 13: 14}
        (mover, targets), = moves.items()
        assert mover in candidates and targets == (candidates[mover],)
        # the biggest-view filter, checked against the independent oracle
        best = max(candidates, key=lambda v: brute_view(cfg.occ, v))
        assert mover == best

    def test_even_t_and_odd_t_movers(self):
        instances = build_phase2_instances(15, 10)
        even_t = instances[Tag.EVEN_T]
        (mover, targets), = moves_of(even_t).items()
        # the k/2-block border sharing the even hole with the singleton
        assert classify_protocol_state(even_t).roles["movers"] == (mover,)
        odd_t = instances[Tag.ODD_T]
        state = classify_protocol_state(odd_t)
        (mover2, targets2), = moves_of(odd_t).items()
        assert state.roles["B3"] == (mover2,)

    def test_singular_rules_have_one_mover(self):
        instances = build_phase2_instances(17, 10)
        for tag in (Tag.EVEN_T, Tag.ODD_T, Tag.SPLIT_A, Tag.BIBLOCK, Tag.TRI_BLOCK_A):
            assert len(enabled_moves(instances[tag])) == 1, tag

    def test_pair_rules_have_two_movers(self):
        instances = build_phase2_instances(17, 10)
        for tag in (Tag.START, Tag.SPLIT_S, Tag.BLOCK, Tag.TRI_BLOCK_S, Tag.TERMINAL):
            assert len(enabled_moves(instances[tag])) == 2, tag

    def test_equidistant_biggest_blocks_yield_either(self):
        # isolated robot exactly between two biggest blocks: the scheduler
        # gets to pick the direction
        cfg = cfg_at(19, [0, 1, 2, 5, 8, 9, 10, 14])
        assert classify_protocol_state(cfg).tag is Tag.BIG_BLOCK_1_2
        assert moves_of(cfg) == {5: (4, 6)}
        view = compute_view(cfg, 5)
        assert local_decide(view).kind is LocalDecision.MOVE_EITHER
        assert decide_targets(cfg, 5) == (4, 6)

    def test_determinism(self):
        for cfg in (TERMINAL_15, BLOCK_15, target_15()):
            assert enabled_moves(cfg) == enabled_moves(cfg)

    def test_tower_robots_never_move(self):
        for cfg in (target_15(),):
            towers = set(cfg.towers)
            for m in enabled_moves(cfg):
                assert m.robot_node not in towers


class TestSymmetricPairProperty:
    def test_movers_closed_under_axis_reflection(self):
        for cfg in enumerate_initial_configs(15, 10):
            info = classify_symmetry(cfg)
            if not info.symmetric:
                continue
            tag = classify_protocol_state(cfg).tag
            if tag is Tag.UNKNOWN:
                continue
            moves = moves_of(cfg)
            c = (2 * info.axis_node) % cfg.n
            mirror = lambda v: (c - v) % cfg.n
            for v, targets in moves.items():
                assert mirror(v) in moves, (cfg.to_string(), v)
                assert tuple(sorted(mirror(t) for t in targets)) == moves[mirror(v)]

    def test_at_most_two_movers_on_initial_configs(self):
        for cfg in enumerate_initial_configs(15, 10):
            assert len(enabled_moves(cfg)) <= 2, cfg.to_string()

    def test_terminal_invariant(self):
        # Terminal tag implies a size-1 leader hole and two k/2 runs
        from ring_gather import occupied_runs

        for cfg in enumerate_initial_configs(15, 10):
            state = classify_protocol_state(cfg)
            if state.tag is not Tag.TERMINAL:
                continue
            assert state.roles["H"].size == 1
            runs = occupied_runs(cfg)
            assert sorted(size for _, size in runs) == [5, 5]


class TestLocalDecide:
    def test_block_border_moves(self):
        view = compute_view(BLOCK_15, 0)
        decision = local_decide(view)
        assert decision.kind is LocalDecision.MOVE
        assert decide_targets(BLOCK_15, 0) == 14

    def test_block_interior_stays(self):
        assert local_decide(compute_view(BLOCK_15, 5)).kind is LocalDecision.STAY
        assert decide_targets(BLOCK_15, 5) is None

    def test_tower_robot_stays(self):
        cfg = target_15()
        view = compute_view(cfg, 5)
        assert view.tower_here
        assert local_decide(view).kind is LocalDecision.STAY

    def test_unknown_reconstruction_raises(self):
        cfg = cfg_at(15, [0, 3, 6, 9, 12])  # periodic pattern
        with pytest.raises(NoRuleError):
            local_decide(compute_view(cfg, 0))

    def test_local_matches_global_on_samples(self):
        samples = [TERMINAL_15, BLOCK_15, target_15()]
        samples += list(build_phase2_instances(15, 10).values())
        samples += list(build_phase2_instances(21, 10).values())
        for cfg in samples:
            expected = moves_of(cfg)
            for node in cfg.occupied:
                got = decide_targets(cfg, node)
                got = (
                    None
                    if got is None
                    else tuple(sorted(got)) if isinstance(got, tuple) else (got,)
                )
                want = None if cfg.occ[node] >= 2 else expected.get(node)
                assert got == want, (cfg.to_string(), node)


def _engine_decision(view):
    """Reference: the decision read straight from the rule engine on the
    robot's own reconstruction, observer on node 0, forward = +1."""
    if view.tower_here or len(view.dists) == 1:
        return Decision.stay()
    pattern = reconstruct_from_view(view)
    n = pattern.n
    if len(view.dists) % 2 == 0:
        analysis = _even_pattern(pattern)
        moves = None if analysis.tag is Tag.UNKNOWN else analysis.moves
    else:
        shape, moves, _roles = _odd_pattern(pattern)
        moves = None if shape is None else moves
    if moves is None:
        return NoRuleError
    mine = set(moves.get(0, ()))
    if not mine:
        return Decision.stay()
    if mine == {1, n - 1}:
        return Decision.either()
    assert mine in ({1}, {n - 1}), mine
    return Decision.move(forward=mine == {1})


def _local_decision(view):
    try:
        return local_decide(view)
    except NoRuleError:
        return NoRuleError


@pytest.fixture(scope="module")
def protocol_views():
    """Every robot view of every class at (15,10) and (17,10), and of every
    configuration on a synchronous, a random and a lazy run at n = 21."""
    configs = list(enumerate_initial_configs(15, 10))
    configs += list(enumerate_initial_configs(17, 10))
    start = RingConfig.from_string("1..11.1.11.1..11..1..")
    occs = set()
    for name, seed in (("synchronous", None), ("random", 0), ("lazy", 0)):
        trace = run(start, builtin_scheduler(name, seed))
        assert trace.outcome == "Gathered"
        occs.update(ev.occ for ev in trace.events)
    configs += [RingConfig.from_string(occ) for occ in sorted(occs)]
    views = list(
        dict.fromkeys(compute_view(cfg, v) for cfg in configs for v in cfg.occupied)
    )
    # Phase 3: robots beside the tower see an odd number of occupied nodes
    assert any(len(view.dists) % 2 == 1 and not view.tower_here for view in views)
    return views


class TestDecisionTable:
    """`local_decide` runs the rules once per class of view and maps the
    result back to the asking robot."""

    def test_matches_rule_engine_on_own_reconstruction(self, protocol_views):
        clear_caches()
        for view in protocol_views:
            assert _local_decision(view) == _engine_decision(view), view

    def test_matches_rule_engine_on_every_small_ring_view(self):
        # every gap cycle of n <= 13, whatever its width; this includes the
        # mirror-symmetric patterns whose rules break the tie clockwise (a
        # lone robot at distance 2 from both ends of a block) and the even
        # rings, where two robots at distance 2 are told apart by index
        clear_caches()
        for n in range(2, 14):
            for cuts in itertools.product((False, True), repeat=n - 1):
                dists, gap = [], 1
                for cut in cuts:
                    if cut:
                        dists.append(gap)
                        gap = 0
                    gap += 1
                view = View(tuple(dists) + (gap,), False)
                assert _local_decision(view) == _engine_decision(view), view

    def test_same_decisions_with_cold_caches(self, protocol_views):
        for view in protocol_views:
            clear_caches()
            assert _local_decision(view) == _engine_decision(view), view

    def test_table_is_bounded_and_cleared(self):
        # every memo in the package, found by its lru_cache wrapper
        caches = {}
        for info in pkgutil.iter_modules(ring_gather.__path__):
            mod = importlib.import_module(f"ring_gather.{info.name}")
            for obj in vars(mod).values():
                if hasattr(obj, "cache_info"):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
        assert {
            "ring_gather.protocol._config",
            "ring_gather.protocol._analyze",
            "ring_gather.protocol._decide",
            "ring_gather.protocol._class_moves",
            "ring_gather.simulate._canon_of",
        } <= set(caches)
        for name, fn in caches.items():
            assert fn.cache_info().maxsize == protocol._CACHE_SIZE, name
        trace = run(RingConfig.from_string(".....1111111111"),
                    builtin_scheduler("random", 1))
        assert trace.outcome == "Gathered"
        for name, fn in caches.items():
            assert fn.cache_info().currsize > 0, name
        protocol.clear_caches()
        simulate.clear_caches()
        for name, fn in caches.items():
            assert fn.cache_info().currsize == 0, name

    def test_proven_table_is_bounded_and_cleared(self, monkeypatch):
        # the one memo that is not an lru_cache: the all-paths search's
        # proven states, which the rule engine's clear must empty too
        assert checker._CACHE_SIZE == protocol._CACHE_SIZE
        protocol.clear_caches()
        assert not checker._PROVEN
        assert check_all_paths_gather(build_phase2_instances(15, 10)[Tag.TERMINAL])
        assert checker._PROVEN
        protocol.clear_caches()
        assert not checker._PROVEN
        monkeypatch.setattr(checker, "_CACHE_SIZE", 16)
        for cfg in itertools.islice(enumerate_initial_configs(15, 10), 20):
            check_all_paths_gather(cfg)
            assert 0 < len(checker._PROVEN) <= 16


class TestPhaseOf:
    def test_examples(self):
        assert phase_of(Tag.BLOCK) is Phase.PHASE2
        assert phase_of(Tag.BIG_BLOCK_2) is Phase.PHASE1
        assert phase_of(Tag.GATHERED) is Phase.DONE
        assert phase_of(Tag.TERMINAL) is Phase.PHASE3
        assert phase_of(classify_protocol_state(target_15())) is Phase.PHASE3

    def test_unknown_has_no_phase(self):
        with pytest.raises(ValueError):
            phase_of(Tag.UNKNOWN)
