"""Ring geometry: frozen examples plus oracle and property checks."""

import pytest
from hypothesis import given, settings, strategies as st

from ring_gather import (
    RingConfig,
    canonical_form,
    classify_symmetry,
    compute_view,
    decompose_blocks,
    holes,
    inter_distance,
    occupied_runs,
)
from ring_gather.ring import (
    format_occupancy,
    hole_at,
    parse_occupancy,
    reflections_fixing,
)

from oracles import (
    brute_axes,
    brute_blocks,
    brute_inter_distance,
    brute_symmetry_class,
    brute_view,
)


def cfg_at(n, positions):
    return RingConfig.from_positions(n, positions)


# random towerless configurations over small odd and even rings
@st.composite
def towerless_configs(draw, n_max=21):
    n = draw(st.integers(min_value=2, max_value=n_max))
    k = draw(st.integers(min_value=1, max_value=n))
    nodes = draw(st.permutations(range(n)))
    return RingConfig.from_positions(n, nodes[:k])


@st.composite
def any_configs(draw, n_max=21):
    n = draw(st.integers(min_value=1, max_value=n_max))
    k = draw(st.integers(min_value=1, max_value=n + 4))
    positions = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    return RingConfig.from_positions(n, positions)


class TestOccupancyString:
    def test_roundtrip(self):
        occ = (0, 1, 2, 0, 10)
        assert parse_occupancy(format_occupancy(occ)) == occ

    def test_empty_and_digits(self):
        assert format_occupancy((0, 1, 9)) == ".19"
        assert format_occupancy((10,)) == "a"

    def test_unsupported_count(self):
        with pytest.raises(ValueError):
            format_occupancy((36,))

    def test_bad_character(self):
        with pytest.raises(ValueError):
            parse_occupancy("1!2")


class TestView:
    def test_three_robots_spec_example(self):
        view = compute_view(cfg_at(7, [0, 1, 3]), 0)
        assert view.dists == (4, 2, 1)
        assert not view.tower_here

    def test_lone_robot(self):
        view = compute_view(cfg_at(5, [0]), 0)
        assert view.dists == (5,)
        assert not view.tower_here

    def test_tower_flag(self):
        cfg = RingConfig.from_positions(7, [0, 0, 3])
        assert compute_view(cfg, 0).tower_here
        assert not compute_view(cfg, 3).tower_here

    def test_empty_observer_rejected(self):
        with pytest.raises(ValueError, match="no robot"):
            compute_view(cfg_at(7, [0, 1, 3]), 2)

    @given(any_configs())
    @settings(max_examples=200, deadline=None)
    def test_view_sums_to_n_and_matches_oracle(self, cfg):
        for node in cfg.occupied:
            view = compute_view(cfg, node)
            assert sum(view.dists) == cfg.n
            assert len(view.dists) == len(cfg.occupied)
            pattern = tuple(1 if c else 0 for c in cfg.occ)
            assert view.dists == brute_view(pattern, node)


class TestSymmetry:
    def test_periodic_spec_example(self):
        assert classify_symmetry(cfg_at(9, [0, 3, 6])).periodic

    def test_symmetric_spec_example(self):
        info = classify_symmetry(cfg_at(7, [1, 6]))
        assert info.symmetric
        assert info.axis_node == 0
        assert info.axis_edge == (3, 4)

    def test_rigid_spec_example(self):
        assert classify_symmetry(cfg_at(7, [0, 1, 3])).rigid

    def test_leader_and_slave_holes(self):
        # terminal shape: two blocks of 5 around a single empty node
        cfg = cfg_at(15, list(range(5)) + list(range(6, 11)))
        info = classify_symmetry(cfg)
        assert info.symmetric
        assert info.leader_hole.size == 1
        assert info.leader_hole.start == 5
        assert info.slave_hole.size == 4

    @given(any_configs())
    @settings(max_examples=400, deadline=None)
    def test_class_matches_brute_force(self, cfg):
        assert classify_symmetry(cfg).cfg_class == brute_symmetry_class(cfg.occ)

    @given(any_configs(n_max=13))
    @settings(max_examples=400, deadline=None)
    def test_reflections_match_brute_force(self, cfg):
        assert reflections_fixing(cfg.occ) == brute_axes(cfg.occ)

    @given(towerless_configs())
    @settings(max_examples=300, deadline=None)
    def test_symmetric_odd_even_k_axis_structure(self, cfg):
        info = classify_symmetry(cfg)
        if info.symmetric and cfg.n % 2 == 1:
            assert info.axis_node is not None
            assert info.axis_edge is not None
            if cfg.k % 2 == 0:
                # even robot count keeps the axis node empty: leader hole
                # exists, has odd size, and contains the axis node
                assert cfg.occ[info.axis_node] == 0
                assert info.leader_hole is not None
                assert info.leader_hole.size % 2 == 1
                assert info.leader_hole.contains(info.axis_node, cfg.n)
                if info.slave_hole is not None:
                    assert info.slave_hole.size % 2 == 0


class TestInterDistance:
    def test_adjacent(self):
        assert inter_distance(cfg_at(7, [0, 1, 2, 4])) == 1

    def test_spacing_three(self):
        assert inter_distance(cfg_at(15, [0, 3, 6, 9])) == 3

    def test_two_robots(self):
        assert inter_distance(cfg_at(5, [0, 2])) == 2

    def test_undefined_for_single(self):
        with pytest.raises(ValueError, match="undefined"):
            inter_distance(cfg_at(9, [4]))

    @given(towerless_configs())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, cfg):
        if len(cfg.occupied) < 2:
            return
        assert inter_distance(cfg) == brute_inter_distance(cfg.occ)


class TestDecomposition:
    def test_spec_example_mixed(self):
        cfg = cfg_at(7, [0, 1, 2, 4])
        dec = decompose_blocks(cfg)
        assert dec.d == 1
        assert [(b.start, b.size) for b in dec.blocks] == [(0, 3)]
        assert dec.isolated == (4,)
        assert sorted((h.start, h.size) for h in holes(cfg)) == [(3, 1), (5, 2)]

    def test_single_run(self):
        cfg = cfg_at(15, range(10))
        dec = decompose_blocks(cfg)
        assert dec.d == 1
        assert [(b.start, b.size) for b in dec.blocks] == [(0, 10)]
        assert dec.isolated == ()
        assert [(h.start, h.size) for h in holes(cfg)] == [(10, 5)]

    def test_spacing_two_blocks(self):
        dec = decompose_blocks(cfg_at(15, [0, 2, 4, 8, 10]))
        assert dec.d == 2
        assert sorted((b.start, b.size) for b in dec.blocks) == [(0, 3), (8, 2)]
        assert dec.isolated == ()

    def test_tower_rejected(self):
        with pytest.raises(ValueError, match="tower"):
            decompose_blocks(RingConfig.from_positions(9, [0, 0, 3]))

    @given(towerless_configs())
    @settings(max_examples=300, deadline=None)
    def test_partition_and_oracle(self, cfg):
        if len(cfg.occupied) < 2:
            return
        dec = decompose_blocks(cfg)
        members = []
        for b in dec.blocks:
            assert b.size >= 2
            members.extend(b.nodes(cfg.n))
        members.extend(dec.isolated)
        # every robot in exactly one block or isolated
        assert sorted(members) == list(cfg.occupied)
        d, blocks, isolated = brute_blocks(cfg.occ)
        if len(set(b.step for b in dec.blocks)) <= 1 and not _evenly_spaced(cfg):
            assert dec.d == d
            assert sorted(tuple(b.nodes(cfg.n)) for b in dec.blocks) == sorted(blocks)
            assert list(dec.isolated) == sorted(isolated)


def _evenly_spaced(cfg):
    nodes = cfg.occupied
    n = cfg.n
    gaps = {(nodes[(i + 1) % len(nodes)] - nodes[i]) % n for i in range(len(nodes))}
    return len(gaps) == 1


class TestHoles:
    def test_holes_cover_empty_nodes(self):
        cfg = cfg_at(11, [0, 4, 5])
        hs = holes(cfg)
        covered = sorted(v for h in hs for v in h.nodes(cfg.n))
        assert covered == [i for i in range(11) if cfg.occ[i] == 0]

    def test_hole_at(self):
        cfg = cfg_at(11, [0, 4, 5])
        h = hole_at(cfg, 2)
        assert (h.start, h.size) == (1, 3)

    def test_occupied_runs_wrap(self):
        cfg = cfg_at(9, [8, 0, 1, 4])
        assert occupied_runs(cfg) == [(4, 1), (8, 3)]


class TestCanonicalForm:
    def test_rotation_reflection_invariance(self):
        a = canonical_form(cfg_at(5, [1, 2]))
        b = canonical_form(cfg_at(5, [0, 4]))
        assert a == b

    def test_distinct_gap_multisets_differ(self):
        assert canonical_form(cfg_at(5, [0, 1])) != canonical_form(cfg_at(5, [0, 2]))

    def test_periodic_fixed_point(self):
        cfg = cfg_at(9, [0, 3, 6])
        rotated = RingConfig.from_positions(9, [3, 6, 0])
        assert canonical_form(cfg) == canonical_form(rotated)

    @given(any_configs(n_max=13), st.integers(0, 12), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_automorphism_invariance(self, cfg, r, flip):
        occ = cfg.occ
        n = cfg.n
        image = tuple(occ[(i - r) % n] for i in range(n))
        if flip:
            image = image[::-1]
        assert canonical_form(cfg) == canonical_form(RingConfig(n, image))
