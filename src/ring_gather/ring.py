"""Geometry of robot configurations on an anonymous ring.

A configuration is an occupancy vector over the n nodes of an unoriented
ring: ``occ[i]`` robots stand on node ``i``, indices mod n.  Nodes carry no
labels as far as the robots are concerned; everything a robot may base a
decision on is derived from distances between occupied nodes.

This module is purely geometric and protocol-agnostic.  It provides:

* occupancy-string encoding ('.' = empty, digits/letters = robot count),
* holes and maximal runs of occupied nodes,
* robot views (direction-maximal distance sequences plus a local tower flag),
* rigid / symmetric / periodic classification with axis and leader/slave
  hole reporting,
* inter-distance and d.block decomposition,
* a canonical form under the 2n ring automorphisms, used as a dedup key.

All functions are pure.  The derived records are named tuples, and no
function changes a `RingConfig` after its construction.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

# Occupancy-string alphabet, indexed by robot count.  The protocol grid uses
# k = 10, whose gathered state needs a count above 9, so counts 10..35 render
# as lowercase letters.  Counts above `_MAX_COUNT` have no encoding and are
# rejected.
_COUNT_CHARS = ".123456789abcdefghijklmnopqrstuvwxyz"
_CHAR_TO_COUNT = {ch: i for i, ch in enumerate(_COUNT_CHARS)}
_MAX_COUNT = len(_COUNT_CHARS) - 1


def format_occupancy(occ) -> str:
    """Render an occupancy sequence as one character per node."""
    try:
        return "".join(_COUNT_CHARS[c] for c in occ)
    except IndexError:
        raise ValueError(f"unsupported occupancy count (max {_MAX_COUNT})") from None


def parse_occupancy(text: str) -> tuple[int, ...]:
    """Inverse of :func:`format_occupancy`."""
    try:
        return tuple(_CHAR_TO_COUNT[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"bad occupancy character {exc.args[0]!r}") from None


def _move_one(occ: tuple[int, ...], src: int, dst: int) -> tuple[int, ...]:
    """The occupancy after one robot moves from node `src` to node `dst`."""
    nxt = list(occ)
    nxt[src] -= 1
    nxt[dst] += 1
    return tuple(nxt)


class RingConfig:
    """Occupancy of an n-node ring: ``occ[i]`` robots on node i.

    ``k`` (the robot count) and ``occupied`` (the occupied node indices,
    ascending) are computed once on construction; equality and hashing
    read only ``n`` and ``occ``."""

    __slots__ = ("n", "occ", "k", "occupied")

    def __init__(self, n: int, occ: tuple[int, ...]):
        if n < 1:
            raise ValueError("ring needs at least one node")
        if len(occ) != n:
            raise ValueError("occupancy length differs from node count")
        if min(occ) < 0:
            raise ValueError("negative robot count")
        self.n = n
        self.occ = occ = occ if isinstance(occ, tuple) else tuple(occ)
        self.k = sum(occ)
        self.occupied = tuple(compress(range(n), occ))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.occ == other.occ

    def __hash__(self) -> int:
        return hash((self.n, self.occ))

    def __repr__(self) -> str:
        return f"RingConfig(n={self.n!r}, occ={self.occ!r})"

    @classmethod
    def from_positions(cls, n: int, positions) -> "RingConfig":
        occ = [0] * n
        for p in positions:
            occ[p % n] += 1
        return cls(n, tuple(occ))

    @classmethod
    def from_string(cls, text: str) -> "RingConfig":
        occ = parse_occupancy(text)
        return cls(len(occ), occ)

    @property
    def towerless(self) -> bool:
        return self.k == len(self.occupied)

    @property
    def towers(self) -> tuple[int, ...]:
        """Nodes hosting two or more robots."""
        return tuple(i for i, c in enumerate(self.occ) if c >= 2)

    def to_string(self) -> str:
        return format_occupancy(self.occ)

    def __str__(self) -> str:
        return self.to_string()


class Hole(NamedTuple):
    """Maximal run of consecutive empty nodes."""

    start: int
    size: int

    def nodes(self, n: int) -> tuple[int, ...]:
        return tuple((self.start + i) % n for i in range(self.size))

    def contains(self, node: int, n: int) -> bool:
        return (node - self.start) % n < self.size


class View(NamedTuple):
    """What a robot perceives: the direction-maximal sequence of segment
    distances read from its own node, and whether its own node is a tower.

    ``dists`` sums to n and has one entry per occupied node.  Reading the
    ring the other way gives ``reversed(dists)``; the view keeps the
    lexicographically larger of the two readings.
    """

    dists: tuple[int, ...]
    tower_here: bool


class SymmetryInfo(NamedTuple):
    """Automorphism classification of a configuration.

    ``cfg_class`` is ``"periodic"`` when a nontrivial rotation fixes the
    occupancy, ``"symmetric"`` when it is non-periodic and a reflection
    fixes it (then exactly one does), and ``"rigid"`` otherwise.

    For symmetric configurations on an odd ring the single axis passes
    through one node (``axis_node``) and one edge (``axis_edge``).  When the
    axis node is empty, ``leader_hole`` is the hole containing it; when both
    axis-edge endpoints are empty, ``slave_hole`` is the hole containing
    them.  Either hole may be absent (the axis may cross a d.block).
    """

    cfg_class: str
    axis_node: int | None = None
    axis_edge: tuple[int, int] | None = None
    leader_hole: Hole | None = None
    slave_hole: Hole | None = None

    @property
    def rigid(self) -> bool:
        return self.cfg_class == "rigid"

    @property
    def symmetric(self) -> bool:
        return self.cfg_class == "symmetric"

    @property
    def periodic(self) -> bool:
        return self.cfg_class == "periodic"


class DBlock(NamedTuple):
    """Maximal run of robots spaced exactly ``step`` edges apart."""

    start: int
    size: int
    step: int

    def nodes(self, n: int) -> tuple[int, ...]:
        return tuple((self.start + i * self.step) % n for i in range(self.size))

    def borders(self, n: int) -> tuple[int, int]:
        return (self.start, (self.start + (self.size - 1) * self.step) % n)


class BlockDecomposition(NamedTuple):
    """d.block structure of a towerless configuration."""

    d: int
    blocks: tuple[DBlock, ...]
    isolated: tuple[int, ...]


def _runs_of(indices: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Group sorted node indices into maximal circular runs of consecutive
    nodes; returns (start, length) pairs in ascending start order."""
    if not indices:
        return []
    if len(indices) == n:
        return [(0, n)]
    runs = []
    start = prev = indices[0]
    for v in indices[1:]:
        if v == prev + 1:
            prev = v
        else:
            runs.append((start, prev - start + 1))
            start = prev = v
    runs.append((start, prev - start + 1))
    # merge across the wrap
    if len(runs) > 1 and indices[0] == 0 and indices[-1] == n - 1:
        first = runs.pop(0)
        s, size = runs.pop()
        runs.append((s, size + first[1]))
        runs.sort()
    return runs


def occupied_runs(cfg: RingConfig) -> list[tuple[int, int]]:
    """Maximal runs of consecutive occupied nodes as (start, size) pairs.

    These are the 1.blocks of the configuration, with single robots counted
    as runs of size 1.
    """
    return _runs_of(cfg.occupied, cfg.n)


def holes(cfg: RingConfig) -> tuple[Hole, ...]:
    """All maximal runs of empty nodes."""
    empty = tuple(i for i, c in enumerate(cfg.occ) if c == 0)
    return tuple(Hole(s, sz) for s, sz in _runs_of(empty, cfg.n))


def hole_at(cfg: RingConfig, node: int) -> Hole:
    """The hole containing an empty node."""
    if cfg.occ[node % cfg.n]:
        raise ValueError(f"node {node} is occupied")
    n = cfg.n
    start = node % n
    while cfg.occ[(start - 1) % n] == 0:
        start = (start - 1) % n
        if start == node % n:  # fully empty ring
            return Hole(0, n)
    size = 1
    while cfg.occ[(start + size) % n] == 0:
        size += 1
    return Hole(start, size)


def compute_view(cfg: RingConfig, node: int) -> View:
    """The view of a robot standing on ``node``.

    The clockwise reading lists the distances to successive occupied nodes
    starting from the observer; the counter-clockwise reading is its
    reverse.  The view keeps the lexicographic maximum of the two.
    """
    node %= cfg.n
    if cfg.occ[node] == 0:
        raise ValueError(f"no robot at node {node}")
    occ_nodes = cfg.occupied
    n = cfg.n
    if len(occ_nodes) == 1:
        return View((n,), cfg.occ[node] >= 2)
    i = occ_nodes.index(node)
    ordered = occ_nodes[i:] + occ_nodes[:i]
    cw = tuple(
        (ordered[(j + 1) % len(ordered)] - ordered[j]) % n for j in range(len(ordered))
    )
    return View(max(cw, cw[::-1]), cfg.occ[node] >= 2)


def rotations_fixing(occ: tuple[int, ...]) -> list[int]:
    """Nontrivial rotation amounts r with occ[(i+r) % n] == occ[i] for all i."""
    n = len(occ)
    doubled = occ + occ
    return [r for r in range(1, n) if doubled[r : r + n] == occ]


def reflections_fixing(occ: tuple[int, ...]) -> list[int]:
    """Reflection parameters c (i -> c - i mod n) fixing the occupancy.

    The image of ``occ`` under c reads the reversal from index n - 1 - c
    on, so each candidate is one slice of the doubled reversal."""
    n = len(occ)
    doubled = occ[::-1] * 2
    return [c for c in range(n) if doubled[n - 1 - c : 2 * n - 1 - c] == occ]


def classify_symmetry(cfg: RingConfig) -> SymmetryInfo:
    """Classify a nonempty configuration as periodic, symmetric or rigid.

    On an odd ring, a symmetric non-periodic configuration has exactly one
    axis, passing through one node and one edge; the axis node, axis edge
    and (when they sit in holes) the leader and slave holes are reported.
    """
    if cfg.k == 0:
        raise ValueError("symmetry undefined for empty configuration")
    occ = cfg.occ
    n = cfg.n
    if rotations_fixing(occ):
        return SymmetryInfo("periodic")
    refl = reflections_fixing(occ)
    if not refl:
        return SymmetryInfo("rigid")
    # non-periodic with >1 reflection would imply a fixing rotation
    c = refl[0]
    if n % 2 == 0:
        return SymmetryInfo("symmetric")
    inv2 = (n + 1) // 2
    axis_node = (c * inv2) % n
    x = ((c - 1) * inv2) % n
    axis_edge = (x, (x + 1) % n)
    leader = hole_at(cfg, axis_node) if occ[axis_node] == 0 else None
    slave = None
    if occ[x] == 0 and occ[(x + 1) % n] == 0:
        slave = hole_at(cfg, x)
    return SymmetryInfo("symmetric", axis_node, axis_edge, leader, slave)


def inter_distance(cfg: RingConfig) -> int:
    """Minimum distance between distinct robots (edges along the ring)."""
    occ_nodes = cfg.occupied
    if len(occ_nodes) < 2:
        if cfg.k >= 2:
            return 0  # two robots on one node
        raise ValueError("inter-distance undefined")
    n = cfg.n
    return min(
        (occ_nodes[(i + 1) % len(occ_nodes)] - occ_nodes[i]) % n
        for i in range(len(occ_nodes))
    )


def decompose_blocks(cfg: RingConfig) -> BlockDecomposition:
    """Split a towerless configuration into maximal d.blocks and isolated
    robots, where d is the inter-distance.

    A d.block is a maximal run of robots spaced exactly d apart and has at
    least two robots; robots in no d.block are isolated.
    """
    if not cfg.towerless:
        raise ValueError("decomposition on tower configuration")
    occ_nodes = cfg.occupied
    if len(occ_nodes) < 2:
        raise ValueError("decomposition needs at least 2 robots")
    n = cfg.n
    w = len(occ_nodes)
    gaps = [(occ_nodes[(i + 1) % w] - occ_nodes[i]) % n for i in range(w)]
    d = min(gaps)
    if all(g == d for g in gaps):
        # robots evenly spaced around the whole ring (periodic); report one
        # block so the decomposition stays a partition
        blocks = (DBlock(occ_nodes[0], w, d),)
        return BlockDecomposition(d, blocks, ())
    # rotate so the list starts just after a gap > d
    cut = next(i for i in range(w) if gaps[i] != d)
    order = [(cut + 1 + i) % w for i in range(w)]
    blocks = []
    isolated = []
    run = [occ_nodes[order[0]]]
    for idx in order:
        g = gaps[idx]
        nxt = occ_nodes[(idx + 1) % w]
        if g == d:
            run.append(nxt)
        else:
            if len(run) >= 2:
                blocks.append(DBlock(run[0], len(run), d))
            else:
                isolated.append(run[0])
            run = [nxt]
    blocks.sort(key=lambda b: b.start)
    return BlockDecomposition(d, tuple(blocks), tuple(sorted(isolated)))


def ring_distance(a: int, b: int, n: int) -> int:
    """Shortest distance between two nodes along the ring."""
    diff = (a - b) % n
    return min(diff, n - diff)


def canonical_form(cfg: RingConfig) -> str:
    """Lexicographically minimal occupancy string over all 2n rotations and
    reflections.  Equal canonical forms identify configurations that agree
    up to a ring automorphism."""
    return _canonical(cfg.occ)


def _aperiodic_bracelets(n: int, k: int) -> list[str]:
    """The `canonical_form` of every class of the towerless, non-periodic
    k-robot configurations on an n-ring, 1 <= k <= n.

    A string ``.^g1 1 .^g2 1 … .^gk 1`` is its own least rotation, and
    equals no other (a Lyndon word), when its run lengths g are strictly
    greater than every other rotation of g: a longer leading run of '.'
    makes a smaller string.  FKM's prenecklace recursion makes these g
    under the reversed order, with sum n − k.  A string is kept when no
    rotation of reversed g is greater, so no mirror image is smaller.

    The strings come sorted by their least gap sequence, read from any
    robot in either direction: the order in which placements with a
    robot on node 0, in `itertools.combinations` order, first meet each
    class.  Gaps are runs plus one, so runs give the same order."""
    total = n - k
    runs = [total] + [0] * k  # runs[0] bounds the first run
    found = []

    def extend(t: int, p: int, s: int) -> None:
        if t > k:
            if p == k and s == total:
                found.append(tuple(runs[1:]))
            return
        top = runs[t - p]
        for j in range(min(top, total - s), -1, -1):
            runs[t] = j
            if s + j + (k - t) * runs[1] < total:  # no later run tops the first
                break
            extend(t + 1, p if j == top else t, s + j)

    extend(1, 1, 0)
    keyed = []
    for g in found:
        mirrored = g[::-1] * 2
        if all(g >= mirrored[i : i + k] for i in range(k)):
            doubled = g * 2
            key = min(seq[i : i + k] for seq in (doubled, mirrored) for i in range(k))
            keyed.append((key, "".join("." * run + "1" for run in g)))
    return [text for _, text in sorted(keyed)]


def _canonical(occ: tuple[int, ...]) -> str:
    """`canonical_form` of an occupancy tuple."""
    n = len(occ)
    rev = occ[::-1]
    best = None
    for seq in (occ, rev):
        doubled = seq + seq
        for r in range(n):
            cand = doubled[r : r + n]
            if best is None or cand < best:
                best = cand
    return format_occupancy(best)
