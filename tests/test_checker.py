"""Lemma checkers: enumeration, trace checks, transitions, replay."""

import pytest

from ring_gather import (
    RingConfig,
    Tag,
    Trace,
    TraceEvent,
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
    classify_protocol_state,
    enumerate_initial_configs,
    explore,
    replay_trace,
    run,
    successor_configs,
)

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
        from ring_gather import check_all_paths_gather

        for n in (15, 17):
            inst = build_phase2_instances(n, 10)
            assert check_all_paths_gather(inst[Tag.TERMINAL]).passed

    def test_phase2_instances_gather_under_every_interleaving(self):
        from ring_gather import check_all_paths_gather

        for n in (15, 17):
            for tag, cfg in build_phase2_instances(n, 10).items():
                verdict = check_all_paths_gather(cfg)
                assert verdict.passed, (n, tag, verdict.violation)

    def test_failure_branch_census_is_stable(self):
        # Some initial classes admit an interleaving whose stale phase-1
        # intent later collides with a legal move; the exhaustive census of
        # those classes is a deterministic property of the rule engine.
        from ring_gather import check_all_paths_gather

        bad15 = sum(
            0 if check_all_paths_gather(cfg, max_states=3_000_000).passed else 1
            for cfg in enumerate_initial_configs(15, 10)
        )
        assert bad15 == 12

    def test_defect_start_has_reachable_failing_branch(self):
        from ring_gather import check_all_paths_gather

        verdict = check_all_paths_gather(RingConfig.from_string(".1.1.11.1111.11"))
        assert not verdict.passed
        # the failing branch ends with a tower outside the rule set
        assert any(c not in ".1" for c in verdict.violation.occ)

    def test_cycle_is_a_failing_verdict(self):
        # outside the protocol's sizes a scheduler can move robots back and
        # forth forever; the search reports the repeated configuration
        from ring_gather import check_all_paths_gather

        verdict = check_all_paths_gather(RingConfig.from_string("..111"))
        assert not verdict.passed
        assert "repeated" in verdict.violation.description
        assert RingConfig.from_string(verdict.violation.occ).k == 3


class TestExplore:
    def test_depth_one_from_terminal(self):
        levels = explore(TERMINAL_15, 1)
        # exactly the two activations of the enabled pair
        assert len(levels[1]) == 2
        assert all(st.occ == TERMINAL_15.occ for st in levels[1])

    def test_successor_configs_funnel(self):
        configs = successor_configs(TERMINAL_15, 4)
        tags = {classify_protocol_state(c).tag for c in configs}
        assert tags == {Tag.TERMINAL, Tag.TERMINAL_SKEW, Tag.TARGET}


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
