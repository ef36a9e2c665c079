"""Rule engine for gathering an even number of robots on an odd ring.

The protocol runs in three phases over towerless configurations with k even,
k > 8, n odd, n > k + 3:

* Phase 1 condenses the robots into one d.block of size k or two of size
  k/2, then shrinks the inter-distance d, via the BlockDistance,
  BlockMirror and BigBlock rules.
* Phase 2 walks the nine special 1.block configurations (Start, EvenT,
  SplitS, SplitA, OddT, Block, Biblock, TriBlockS, TriBlockA) until two
  1.blocks of size k/2 face each other across a single empty node
  (Terminal).
* Phase 3 moves the two robots flanking that empty node onto it, creating a
  tower on the symmetry axis (Target), then alternately absorbs block
  borders toward the tower and the tower's neighbours onto it until all
  robots share one node.

Robots have only local weak multiplicity detection: away from its own node
a robot sees occupied versus empty, never counts.  Every rule is therefore
a function of the *visible pattern* (the 0/1 projection of the occupancy)
plus the robot's own tower flag.  Once the Phase-3 tower exists, non-tower
robots see an odd number of occupied nodes, while every towerless
configuration of the protocol shows an even number; the rule engine
dispatches on that parity, which is exactly what makes the rules locally
computable.

`classify_protocol_state` names the configuration, `enabled_moves` lists
who may move where, and `local_decide` makes the same decision from a
single robot's view.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .ring import (
    Hole,
    RingConfig,
    View,
    classify_symmetry,
    compute_view,
    decompose_blocks,
    occupied_runs,
    ring_distance,
    view_direction,
)


class NoRuleError(RuntimeError):
    """Raised when no movement rule is defined for a configuration."""


class Tag(str, Enum):
    """Protocol state names.  Phase 1 tags describe d.block geometry, the
    nine special-configuration tags and Terminal drive Phase 2, the remaining tags cover the
    tower states of Phase 3."""

    BLOCK_DISTANCE = "BlockDistance"
    BLOCK_MIRROR_1 = "BlockMirror1"
    BLOCK_MIRROR_2 = "BlockMirror2"
    BIG_BLOCK_1_1 = "BigBlock1_1"
    BIG_BLOCK_1_2 = "BigBlock1_2"
    BIG_BLOCK_2 = "BigBlock2"
    START = "Start"
    EVEN_T = "EvenT"
    SPLIT_S = "SplitS"
    SPLIT_A = "SplitA"
    ODD_T = "OddT"
    BLOCK = "Block"
    BIBLOCK = "Biblock"
    TRI_BLOCK_S = "TriBlockS"
    TRI_BLOCK_A = "TriBlockA"
    TERMINAL = "Terminal"
    TERMINAL_SKEW = "TerminalSkew"
    TARGET = "Target"
    P3_ABSORB = "P3Absorb"
    P3_SINGLE_BLOCK = "P3SingleBlock"
    P3_SKEW = "P3Skew"
    GATHERED = "Gathered"
    UNKNOWN = "Unknown"


PHASE1_TAGS = frozenset(
    {
        Tag.BLOCK_DISTANCE,
        Tag.BLOCK_MIRROR_1,
        Tag.BLOCK_MIRROR_2,
        Tag.BIG_BLOCK_1_1,
        Tag.BIG_BLOCK_1_2,
        Tag.BIG_BLOCK_2,
    }
)
PHASE2_TAGS = frozenset(
    {
        Tag.START,
        Tag.EVEN_T,
        Tag.SPLIT_S,
        Tag.SPLIT_A,
        Tag.ODD_T,
        Tag.BLOCK,
        Tag.BIBLOCK,
        Tag.TRI_BLOCK_S,
        Tag.TRI_BLOCK_A,
    }
)
PHASE3_TAGS = frozenset(
    {
        Tag.TERMINAL,
        Tag.TERMINAL_SKEW,
        Tag.TARGET,
        Tag.P3_ABSORB,
        Tag.P3_SINGLE_BLOCK,
        Tag.P3_SKEW,
    }
)


class Phase(str, Enum):
    PHASE1 = "Phase1"
    PHASE2 = "Phase2"
    PHASE3 = "Phase3"
    DONE = "Done"


@dataclass(frozen=True)
class ProtocolState:
    """Classification result: the tag plus the named roles the rules refer
    to.  Role keys used, when applicable: "H" (leader hole), "slave"
    (slave hole), "guides" (guide block node tuples), "biggest" (biggest
    d.block node tuples), "B1"/"B2"/"B3" (run node tuples), "S1"/"S2"/
    "L1"/"L2" (SplitA runs), "leader_blocks"/"slave_blocks" (SplitS),
    "r1" (the advanced robot of TerminalSkew), "tower" (tower node),
    "movers" (enabled robot nodes)."""

    tag: Tag
    roles: dict

    def __post_init__(self):
        object.__setattr__(self, "roles", dict(self.roles))


@dataclass(frozen=True)
class MoveIntent:
    """One enabled robot and its admissible destination nodes.  Two targets
    mean the adversary picks the direction."""

    robot_node: int
    targets: tuple[int, ...]


class LocalDecision(Enum):
    STAY = "stay"
    MOVE = "move"
    MOVE_EITHER = "move-either"


@dataclass(frozen=True)
class Decision:
    """Outcome of a robot's compute phase, in view coordinates: FORWARD is
    the direction the view's distance sequence was read in."""

    kind: LocalDecision
    forward: bool | None = None  # for MOVE: True = along dists[0]

    @classmethod
    def stay(cls):
        return cls(LocalDecision.STAY)

    @classmethod
    def move(cls, forward: bool):
        return cls(LocalDecision.MOVE, forward)

    @classmethod
    def either(cls):
        return cls(LocalDecision.MOVE_EITHER)


# ---------------------------------------------------------------------------
# run/hole helpers on visible patterns
# ---------------------------------------------------------------------------


def _run_nodes(run, n):
    start, size = run
    return tuple((start + i) % n for i in range(size))


def _run_end(run, n):
    start, size = run
    return (start + size - 1) % n


def _holes_after(runs, n):
    """holes[i] = size of the empty stretch after runs[i], cyclically."""
    m = len(runs)
    out = []
    for i in range(m):
        end = _run_end(runs[i], n)
        nxt = runs[(i + 1) % m][0]
        out.append((nxt - end - 1) % n)
    return out


# Every rule result is a pure function of an occupancy tuple (or of a view's
# gap cycle), so each memo in the package is an LRU cache of this size keyed
# by plain tuples and ints: hashing a RingConfig runs in Python and costs
# more than the lookup it keys.
_CACHE_SIZE = 65536
# the `clear` of each memo kept outside this module whose entries derive
# from the rules (the checker's proven states); `clear_caches` empties them too
_CLEAR_HOOKS: list = []


def clear_caches() -> None:
    """Empty the rule engine's memos and every memo derived from them."""
    _config.cache_clear()
    _analyze.cache_clear()
    _decide.cache_clear()
    _class_moves.cache_clear()
    for clear in _CLEAR_HOOKS:
        clear()


@dataclass(frozen=True)
class Analysis:
    tag: Tag
    moves: dict  # node -> tuple of target nodes
    roles: dict


@lru_cache(maxsize=_CACHE_SIZE)
def _config(occ: tuple[int, ...]) -> RingConfig:
    """One RingConfig per occupancy for the memos below, so that the
    decisions of every robot of a configuration share its cached
    `occupied` tuple instead of each building a new configuration."""
    return RingConfig(len(occ), occ)


@lru_cache(maxsize=_CACHE_SIZE)
def _analyze(occ: tuple[int, ...]) -> Analysis:
    return _classify(_config(occ))


# ---------------------------------------------------------------------------
# even-width rules: Phase 1, Phase 2, Terminal, TerminalSkew
# ---------------------------------------------------------------------------


def _even_pattern(cfg: RingConfig) -> Analysis:
    """Rules for a towerless-looking pattern with an even number of occupied
    nodes, treated as a full configuration of k = width robots."""
    n = cfg.n
    runs = occupied_runs(cfg)
    sizes = [size for _, size in runs]
    w = sum(sizes)
    m = len(runs)
    gaps = _holes_after(runs, n)
    sym = classify_symmetry(cfg)
    if sym.periodic:
        return Analysis(Tag.UNKNOWN, {}, {})

    # Terminal: two 1.blocks of size w/2 facing across a single empty node.
    if m == 2 and sizes[0] == sizes[1] and sym.symmetric and sym.leader_hole:
        lead = sym.leader_hole
        if lead.size == 1:
            hole_node = lead.start
            a = (hole_node - 1) % n
            b = (hole_node + 1) % n
            moves = {a: (hole_node,), b: (hole_node,)}
            roles = {"H": lead, "slave": sym.slave_hole, "movers": (a, b)}
            return Analysis(Tag.TERMINAL, moves, roles)

    # TerminalSkew: two 1.blocks at distance 2 whose sizes differ by two.
    # The trailing border of the larger block steps onto its own leading
    # border, creating (or growing) the tower on the axis node.
    if m == 2 and abs(sizes[0] - sizes[1]) == 2:
        if (gaps[0] == 1) != (gaps[1] == 1):
            gi = 0 if gaps[0] == 1 else 1
            hole_node = (_run_end(runs[gi], n) + 1) % n
            big_i = 0 if sizes[0] > sizes[1] else 1
            big = runs[big_i]
            if gi == big_i:  # size-1 hole follows the big run
                r1 = _run_end(big, n)
                mover = (r1 - 1) % n
            else:  # size-1 hole precedes the big run
                r1 = big[0]
                mover = (r1 + 1) % n
            moves = {mover: (r1,)}
            roles = {
                "B1": _run_nodes(big, n),
                "B2": _run_nodes(runs[1 - big_i], n),
                "r1": r1,
                "movers": (mover,),
            }
            return Analysis(Tag.TERMINAL_SKEW, moves, roles)

    # A lone adjacent pair is the degenerate tail of the tower merge (the
    # TerminalSkew shape with an empty small block): each end targets the
    # other; the end standing on the tower is filtered out by its own flag.
    if m == 1 and sizes[0] == 2:
        start, size = runs[0]
        end = (start + 1) % n
        moves = {start: (end,), end: (start,)}
        return Analysis(Tag.TERMINAL_SKEW, moves, {"movers": (start, end)})

    # Block: a single 1.block of size k; both borders step outward.
    if m == 1:
        start, size = runs[0]
        end = _run_end(runs[0], n)
        moves = {start: ((start - 1) % n,), end: ((end + 1) % n,)}
        return Analysis(Tag.BLOCK, moves, {"movers": (start, end)})

    # Biblock: 1.blocks of sizes k-1 and 1 at distance 2; the far border of
    # the big block steps outward.
    if m == 2 and {sizes[0], sizes[1]} == {w - 1, 1} and min(gaps) == 1 < max(gaps):
        big_i = 0 if sizes[0] == w - 1 else 1
        big = runs[big_i]
        # the border adjacent to the size-1 hole stays; the other one moves
        if gaps[big_i] == 1:
            mover = big[0]
            target = (mover - 1) % n
        else:
            mover = _run_end(big, n)
            target = (mover + 1) % n
        roles = {
            "B1": _run_nodes(big, n),
            "B2": _run_nodes(runs[1 - big_i], n),
            "movers": (mover,),
        }
        return Analysis(Tag.BIBLOCK, {mover: (target,)}, roles)

    # Start: two 1.blocks of size k/2 not at distance 2; the borders next to
    # the leader hole step into it.
    if m == 2 and sizes[0] == sizes[1] and sym.symmetric and sym.leader_hole:
        lead = sym.leader_hole
        a = (lead.start - 1) % n
        b = (lead.start + lead.size) % n
        moves = {a: (lead.start,), b: ((lead.start + lead.size - 1) % n,)}
        roles = {"H": lead, "slave": sym.slave_hole, "movers": (a, b)}
        return Analysis(Tag.START, moves, roles)

    # EvenT / OddT: 1.blocks of sizes k/2, k/2-1 and 1 with the singleton at
    # distance 2 from the (k/2-1)-block; the parity of the hole between the
    # singleton and the k/2-block separates the two cases.
    if m == 3 and w >= 6 and sorted(sizes) == [1, w // 2 - 1, w // 2]:
        one_i = sizes.index(1)
        half_i = sizes.index(w // 2)
        mid_i = 3 - one_i - half_i
        gap_one_mid = _gap_between(runs, gaps, one_i, mid_i, n)
        if gap_one_mid == 1:
            gap_one_half = _gap_between(runs, gaps, one_i, half_i, n)
            iso = runs[one_i][0]
            roles = {
                "B1": _run_nodes(runs[half_i], n),
                "B2": _run_nodes(runs[mid_i], n),
                "B3": (iso,),
            }
            if gap_one_half % 2 == 0:
                # EvenT: the k/2 border sharing the even hole with the
                # singleton steps out of its block toward the singleton.
                mover, target = _border_toward(runs[half_i], one_i, half_i, gaps, n)
                roles["movers"] = (mover,)
                return Analysis(Tag.EVEN_T, {mover: (target,)}, roles)
            # OddT: the singleton joins the (k/2-1)-block.
            target = _step_toward(runs, gaps, one_i, mid_i, n)
            roles["movers"] = (iso,)
            return Analysis(Tag.ODD_T, {iso: (target,)}, roles)

    # TriBlockS: middle 1.block crossed by the axis edge, one empty node on
    # each side; its borders step outward, joining the side blocks.
    if m == 3 and sym.symmetric and sym.axis_edge is not None:
        ex = sym.axis_edge[0]
        if cfg.occ[ex] and cfg.occ[(ex + 1) % n]:
            mid_i = next(
                i for i, r in enumerate(runs) if (ex - r[0]) % n < r[1]
            )
            before = (mid_i - 1) % m
            if gaps[mid_i] == 1 and gaps[before] == 1:
                start, size = runs[mid_i]
                end = _run_end(runs[mid_i], n)
                moves = {start: ((start - 1) % n,), end: ((end + 1) % n,)}
                roles = {
                    "B1": _run_nodes(runs[mid_i], n),
                    "H": sym.leader_hole,
                    "movers": (start, end),
                }
                return Analysis(Tag.TRI_BLOCK_S, moves, roles)

    # TriBlockA: one 1.block at distance 2 from both others, whose sizes
    # differ by one; the border of the middle block facing the smaller side
    # block steps over to it.
    if m == 3 and not sym.symmetric:
        flanked = [
            i for i in range(3) if gaps[i] == 1 and gaps[(i - 1) % 3] == 1
        ]
        if len(flanked) == 1:
            b1 = flanked[0]
            others = [i for i in range(3) if i != b1]
            sa, sb = sizes[others[0]], sizes[others[1]]
            if abs(sa - sb) == 1:
                small_i = others[0] if sa < sb else others[1]
                big_i = others[1] if sa < sb else others[0]
                mover, target = _border_toward(runs[b1], small_i, b1, gaps, n)
                roles = {
                    "B1": _run_nodes(runs[b1], n),
                    "B2": _run_nodes(runs[big_i], n),
                    "B3": _run_nodes(runs[small_i], n),
                    "movers": (mover,),
                }
                return Analysis(Tag.TRI_BLOCK_A, {mover: (target,)}, roles)

    # SplitS: four 1.blocks, mirror pairs at distance 2 on each side of the
    # axis; the slave-block borders step across toward the leader blocks.
    if m == 4 and sym.symmetric and sym.leader_hole and sym.slave_hole:
        lead, slave = sym.leader_hole, sym.slave_hole
        hole_list = [
            Hole((_run_end(runs[i], n) + 1) % n, gaps[i]) for i in range(4)
        ]
        others = [h for h in hole_list if h not in (lead, slave)]
        if len(others) == 2 and all(h.size == 1 for h in others):
            moves = {}
            movers = []
            leader_blocks = []
            slave_blocks = []
            for i in range(4):
                h = hole_list[i]
                nxt = (i + 1) % 4
                if h == lead:
                    leader_blocks += [runs[i], runs[nxt]]
                elif h == slave:
                    slave_blocks += [runs[i], runs[nxt]]
            for i in range(4):
                h = hole_list[i]
                if h.size == 1 and h != lead and h != slave:
                    left, right = runs[i], runs[(i + 1) % 4]
                    if left in slave_blocks:
                        mover = _run_end(left, n)
                        target = (mover + 1) % n
                    else:
                        mover = right[0]
                        target = (mover - 1) % n
                    moves[mover] = (target,)
                    movers.append(mover)
            roles = {
                "H": lead,
                "slave": slave,
                "leader_blocks": tuple(_run_nodes(r, n) for r in leader_blocks),
                "slave_blocks": tuple(_run_nodes(r, n) for r in slave_blocks),
                "movers": tuple(sorted(movers)),
            }
            return Analysis(Tag.SPLIT_S, moves, roles)

    # SplitA: the asymmetric sibling of SplitS, one slave move ahead of the
    # other; the border of the larger even-hole block steps toward its
    # leader block.
    if m == 4 and not sym.symmetric:
        even_holes = [i for i in range(4) if gaps[i] % 2 == 0]
        if len(even_holes) == 1:
            ei = even_holes[0]
            s_left, s_right = ei, (ei + 1) % 4  # runs flanking the even hole
            if abs(sizes[s_left] - sizes[s_right]) == 1:
                s1 = s_left if sizes[s_left] > sizes[s_right] else s_right
                s2 = s_right if s1 == s_left else s_left
                l1 = (s1 - 1) % 4 if s1 == s_left else (s1 + 1) % 4
                l2 = (s2 + 1) % 4 if s1 == s_left else (s2 - 1) % 4
                ok = (
                    _gap_between(runs, gaps, s1, l1, n) == 1
                    and _gap_between(runs, gaps, s2, l2, n) == 1
                    and sizes[l2] == sizes[l1] + 1
                )
                if ok:
                    mover, target = _border_toward(runs[s1], l1, s1, gaps, n)
                    roles = {
                        "S1": _run_nodes(runs[s1], n),
                        "S2": _run_nodes(runs[s2], n),
                        "L1": _run_nodes(runs[l1], n),
                        "L2": _run_nodes(runs[l2], n),
                        "movers": (mover,),
                    }
                    return Analysis(Tag.SPLIT_A, {mover: (target,)}, roles)

    return _phase1_pattern(cfg, sym)


def _gap_between(runs, gaps, i, j, n):
    """Size of the hole between runs i and j when cyclically adjacent, else -1."""
    m = len(runs)
    if (i + 1) % m == j:
        return gaps[i]
    if (j + 1) % m == i:
        return gaps[j]
    return -1


def _border_toward(run, target_i, run_i, gaps, n):
    """The border of `run` on the side of adjacent run `target_i`, and the
    empty node next to it in that direction."""
    m = len(gaps)
    if (run_i + 1) % m == target_i:
        mover = _run_end(run, n)
        return mover, (mover + 1) % n
    mover = run[0]
    return mover, (mover - 1) % n


def _step_toward(runs, gaps, from_i, to_i, n):
    """Target node for the single robot of run `from_i` stepping toward the
    cyclically adjacent run `to_i`."""
    m = len(runs)
    node = runs[from_i][0]
    if (from_i + 1) % m == to_i:
        return (node + 1) % n
    return (node - 1) % n


# ---------------------------------------------------------------------------
# Phase 1: d.block rules
# ---------------------------------------------------------------------------


def _phase1_pattern(cfg: RingConfig, sym) -> Analysis:
    n = cfg.n
    dec = decompose_blocks(cfg)
    d = dec.d
    blocks = dec.blocks
    isolated = dec.isolated
    sizes = [b.size for b in blocks]

    if not isolated and len(set(sizes)) == 1:
        if len(blocks) <= 2 and d > 1:
            # BlockDistance: one d.block of size k or two of size k/2 with
            # d > 1; the robots flanking the leader hole step away from it,
            # starting a (d-1)-spaced block.
            if sym.symmetric and sym.leader_hole is not None:
                lead = sym.leader_hole
                a = (lead.start - 1) % n
                b = (lead.start + lead.size) % n
                moves = {a: ((a - 1) % n,), b: ((b + 1) % n,)}
                roles = {
                    "H": lead,
                    "blocks": tuple(b_.nodes(n) for b_ in blocks),
                    "movers": (a, b),
                }
                return Analysis(Tag.BLOCK_DISTANCE, moves, roles)
            return Analysis(Tag.UNKNOWN, {}, {})
        if len(blocks) > 2:
            if sym.symmetric:
                return _block_mirror2(cfg, sym, dec)
            return _block_mirror1(cfg, dec)
        return Analysis(Tag.UNKNOWN, {}, {})

    return _big_block(cfg, sym, dec)


def _block_mirror1(cfg: RingConfig, dec) -> Analysis:
    # Asymmetric, all d.blocks the same size: among the robots closest to a
    # neighbouring d.block, the one with the biggest view steps toward it.
    n = cfg.n
    cand = _closest_candidates(cfg, dec, set(dec.blocks))
    movers = _biggest_view(cfg, [v for v, _, _ in cand])
    moves = {}
    for v, dist, dirs in cand:
        if v in movers:
            moves[v] = tuple(sorted((v + s) % n for s in dirs))
    roles = {"blocks": tuple(b.nodes(n) for b in dec.blocks), "movers": tuple(sorted(moves))}
    return Analysis(Tag.BLOCK_MIRROR_1, moves, roles)


def _block_mirror2(cfg: RingConfig, sym, dec) -> Analysis:
    # Symmetric, all d.blocks the same size: the blocks beside (or around)
    # the leader hole guide the others; the borders of the blocks one hole
    # away step toward their guide block.
    n = cfg.n
    lead = sym.leader_hole
    if lead is None:
        return Analysis(Tag.UNKNOWN, {}, {})
    flank_left = (lead.start - 1) % n
    flank_right = (lead.start + lead.size) % n
    owners = {}
    for b in dec.blocks:
        for v in b.nodes(n):
            owners[v] = b
    guides = []
    for v in (flank_left, flank_right):
        g = owners.get(v)
        if g is None:
            return Analysis(Tag.UNKNOWN, {}, {})
        if g not in guides:
            guides.append(g)
    moves = {}
    for g in guides:
        for border, step in zip(g.borders(n), (-1, 1)):
            nxt = _next_occupied(cfg.occ, border, step, n)
            other = owners.get(nxt)
            if other is None or other is g:
                continue
            if _hole_between_is_leader(border, step, lead, n):
                continue  # the shared hole must differ from H
            moves[nxt] = ((nxt - step) % n,)
    roles = {
        "H": lead,
        "guides": tuple(g.nodes(n) for g in guides),
        "movers": tuple(sorted(moves)),
    }
    return Analysis(Tag.BLOCK_MIRROR_2, moves, roles)


def _hole_between_is_leader(border, step, lead, n):
    first_empty = (border + step) % n
    return lead.contains(first_empty, n)


def _next_occupied(occ, node, step, n):
    v = (node + step) % n
    while not occ[v]:
        v = (v + step) % n
    return v


def _big_block(cfg: RingConfig, sym, dec) -> Analysis:
    n = cfg.n
    biggest_size = max(b.size for b in dec.blocks)
    biggest = [b for b in dec.blocks if b.size == biggest_size]
    biggest_nodes = {}
    for b in biggest:
        for v in b.nodes(n):
            biggest_nodes[v] = b

    iso_adjacent = False
    for v in dec.isolated:
        for step in (1, -1):
            u = _next_occupied(cfg.occ, v, step, n)
            if u in biggest_nodes:
                iso_adjacent = True
                break
        if iso_adjacent:
            break

    if iso_adjacent:
        bb11 = _try_big_block_1_1(cfg, sym, dec)
        if bb11 is not None:
            return bb11
        tag = Tag.BIG_BLOCK_1_2
        # only isolated robots move while one of them neighbours a biggest
        # block; block borders wait their turn
        cand = _isolated_candidates(cfg, dec, biggest_nodes)
    else:
        tag = Tag.BIG_BLOCK_2
        cand = _closest_candidates(cfg, dec, set(biggest), exclude_members=True)
    movers = _biggest_view(cfg, [v for v, _, _ in cand])
    moves = {}
    for v, dist, dirs in cand:
        if v in movers:
            moves[v] = tuple(sorted((v + s) % n for s in dirs))
    roles = {
        "biggest": tuple(b.nodes(n) for b in biggest),
        "movers": tuple(sorted(moves)),
    }
    return Analysis(tag, moves, roles)


def _isolated_candidates(cfg: RingConfig, dec, biggest_nodes):
    """Isolated robots sharing a hole with a biggest d.block, keeping only
    those at minimal distance, with their minimal directions."""
    n = cfg.n
    per = []
    for v in dec.isolated:
        dirs = []
        best = None
        for step in (1, -1):
            u = _next_occupied(cfg.occ, v, step, n)
            if u not in biggest_nodes:
                continue
            gap = ((u - v) * step) % n
            if best is None or gap < best:
                best = gap
                dirs = [step]
            elif gap == best:
                dirs.append(step)
        if best is not None:
            per.append((v, best, tuple(dirs)))
    if not per:
        return []
    top = min(d for _, d, _ in per)
    return [(v, d, dirs) for v, d, dirs in per if d == top]


def _try_big_block_1_1(cfg: RingConfig, sym, dec):
    # Two isolated robots sharing a hole beside 1.blocks of sizes (k-2)/2
    # and (k-2)/2, or one of size k-2; the isolated robot farther from its
    # neighbouring block steps toward it.  Asymmetric configurations only.
    if dec.d != 1 or len(dec.isolated) != 2 or sym.symmetric:
        return None
    w = len(cfg.occupied)
    sizes = sorted(b.size for b in dec.blocks)
    if sizes not in ([w - 2], [(w - 2) // 2, (w - 2) // 2]):
        return None
    n = cfg.n
    i1, i2 = dec.isolated
    # the two isolated robots must flank a common hole
    shared = None
    for step in (1, -1):
        if _next_occupied(cfg.occ, i1, step, n) == i2:
            shared = step
            break
    if shared is None:
        return None
    dists = {}
    for iso, step in ((i1, -shared), (i2, shared)):
        u = _next_occupied(cfg.occ, iso, step, n)
        dists[iso] = (((u - iso) * step) % n, step)
    (da, sa), (db, sb) = dists[i1], dists[i2]
    if da == db:
        return None
    mover = i1 if da > db else i2
    step = dists[mover][1]
    moves = {mover: ((mover + step) % n,)}
    roles = {
        "isolated": (i1, i2),
        "blocks": tuple(b.nodes(n) for b in dec.blocks),
        "movers": (mover,),
    }
    return Analysis(Tag.BIG_BLOCK_1_1, moves, roles)


def _closest_candidates(cfg: RingConfig, dec, target_blocks, exclude_members=False):
    """Robots minimizing the ring distance to a target block other than
    their own, with the directions that realize the minimum across a single
    hole.  With `exclude_members`, robots inside target blocks do not move
    (they are joined, never left).  Returns (node, distance, directions)."""
    n = cfg.n
    occ_nodes = cfg.occupied
    owner = {}
    for b in dec.blocks:
        for v in b.nodes(n):
            owner[v] = b
    target_nodes = [(v, owner[v]) for b in target_blocks for v in b.nodes(n)]
    best = None
    per_robot = {}
    for v in occ_nodes:
        mine = owner.get(v)
        if exclude_members and mine in target_blocks:
            continue
        dist = min(
            (ring_distance(v, u, n) for u, b in target_nodes if b is not mine),
            default=None,
        )
        if dist is None:
            continue
        per_robot[v] = dist
        if best is None or dist < best:
            best = dist
    out = []
    for v in occ_nodes:
        if per_robot.get(v) != best:
            continue
        mine = owner.get(v)
        dirs = []
        for step in (1, -1):
            u = _next_occupied(cfg.occ, v, step, n)
            gap = ((u - v) * step) % n
            if gap == best and owner.get(u) in target_blocks and owner.get(u) is not mine:
                dirs.append(step)
        if dirs:
            out.append((v, best, tuple(dirs)))
    return out


def _biggest_view(cfg: RingConfig, nodes):
    """The subset of nodes whose views are lexicographically maximal."""
    if len(nodes) <= 1:
        return set(nodes)
    views = {v: compute_view(cfg, v).dists for v in nodes}
    top = max(views.values())
    return {v for v, dv in views.items() if dv == top}


# ---------------------------------------------------------------------------
# odd-width rules: post-Target gathering on the visible pattern
# ---------------------------------------------------------------------------


def _odd_pattern(cfg: RingConfig):
    """Movement rules for patterns with an odd number of occupied nodes.
    These arise only after the Phase-3 tower hides one robot.  Returns
    (shape, moves, roles) with shape in {"single", "absorb", "skew3",
    "skew21", "gathered", None}."""
    n = cfg.n
    runs = occupied_runs(cfg)
    m = len(runs)
    w = sum(size for _, size in runs)
    if w == 1:
        return "gathered", {}, {}
    gaps = _holes_after(runs, n)

    if m == 1:
        # One odd 1.block: the neighbours of its central node step onto it.
        start, size = runs[0]
        center = (start + (size - 1) // 2) % n
        a, b = (center - 1) % n, (center + 1) % n
        return (
            "single",
            {a: (center,), b: (center,)},
            {"center": center, "movers": (a, b)},
        )

    if m == 2:
        # One lagging singleton at distance 2 from the merged block.
        one_i = next((i for i in range(2) if runs[i][1] == 1), None)
        if one_i is not None and runs[1 - one_i][1] == w - 1:
            if gaps[one_i] == 1 or gaps[1 - one_i] == 1:
                iso = runs[one_i][0]
                if gaps[one_i] == 1:
                    target = (iso + 1) % n
                else:
                    target = (iso - 1) % n
                return "skew21", {iso: (target,)}, {"movers": (iso,)}
        return None, {}, {}

    if m == 3:
        flanked = [
            i for i in range(3) if gaps[i] == 1 and gaps[(i - 1) % 3] == 1
        ]
        if len(flanked) != 1:
            return None, {}, {}
        mid = flanked[0]
        sides = [(mid + 1) % 3, (mid - 1) % 3]
        s_a, s_b = runs[sides[0]][1], runs[sides[1]][1]
        mid_size = runs[mid][1]
        if mid_size % 2 == 1 and s_a == s_b:
            # symmetric absorb step: both side borders move toward the middle
            moves = {}
            movers = []
            for si in sides:
                mover, target = _border_toward(runs[si], mid, si, gaps, n)
                moves[mover] = (target,)
                movers.append(mover)
            center = (runs[mid][0] + (mid_size - 1) // 2) % n
            return (
                "absorb",
                moves,
                {"center": center, "movers": tuple(sorted(movers))},
            )
        if mid_size % 2 == 0 and abs(s_a - s_b) == 1:
            # one side is a move ahead; the bigger side's border catches up
            big_side = sides[0] if s_a > s_b else sides[1]
            mover, target = _border_toward(runs[big_side], mid, big_side, gaps, n)
            return "skew3", {mover: (target,)}, {"movers": (mover,)}
        return None, {}, {}

    return None, {}, {}


# ---------------------------------------------------------------------------
# classification and move computation
# ---------------------------------------------------------------------------


def _visible_pattern(cfg: RingConfig) -> RingConfig:
    if cfg.towerless:
        return cfg
    return RingConfig(cfg.n, tuple(1 if c else 0 for c in cfg.occ))


def _classify(cfg: RingConfig) -> Analysis:
    if cfg.k == 0:
        raise ValueError("cannot classify an empty configuration")
    occupied = cfg.occupied
    if len(occupied) == 1:
        roles = {"tower": occupied[0]} if cfg.occ[occupied[0]] >= 2 else {}
        return Analysis(Tag.GATHERED, {}, roles)

    if cfg.towerless:
        return _even_pattern(cfg)

    towers = cfg.towers
    if len(towers) != 1 or cfg.n % 2 == 0:
        return Analysis(Tag.UNKNOWN, {}, {})
    tower = towers[0]
    pattern = _visible_pattern(cfg)
    w = len(occupied)

    if w % 2 == 1:
        shape, moves, roles = _odd_pattern(pattern)
        if shape == "single" and roles.get("center") == tower:
            roles = dict(roles, tower=tower)
            return Analysis(Tag.P3_SINGLE_BLOCK, moves, roles)
        if shape == "absorb" and roles.get("center") == tower:
            roles = dict(roles, tower=tower)
            runs = occupied_runs(pattern)
            mid_size = next(size for start, size in runs if (tower - start) % cfg.n < size)
            tag = Tag.TARGET if mid_size == 1 else Tag.P3_ABSORB
            return Analysis(tag, moves, roles)
        if shape in ("skew3", "skew21"):
            return _confirm_skew(cfg, moves, roles, tower)
        return Analysis(Tag.UNKNOWN, {}, {})

    # even visible width with a tower: a robot has merged onto the tower,
    # leaving the TerminalSkew shape with the tower as the advanced robot
    pat_analysis = _even_pattern(pattern)
    if pat_analysis.tag is Tag.TERMINAL_SKEW:
        r1 = pat_analysis.roles.get("r1")
        if r1 is None or r1 == tower:
            moves = {
                v: t for v, t in pat_analysis.moves.items() if cfg.occ[v] == 1
            }
            return _confirm_skew(cfg, moves, pat_analysis.roles, tower)
    return Analysis(Tag.UNKNOWN, {}, {})


def _confirm_skew(cfg: RingConfig, moves, roles, tower):
    """A skew state is one lagging move away from a symmetric Phase-3
    state; applying the unique pending move must restore one."""
    if len(moves) != 1:
        return Analysis(Tag.UNKNOWN, {}, {})
    (mover, targets), = moves.items()
    if len(targets) != 1 or cfg.occ[mover] != 1:
        return Analysis(Tag.UNKNOWN, {}, {})
    target = targets[0]
    occ = list(cfg.occ)
    occ[mover] -= 1
    occ[target] += 1
    after = _classify(RingConfig(cfg.n, tuple(occ)))
    if after.tag in (Tag.TARGET, Tag.P3_ABSORB, Tag.P3_SINGLE_BLOCK, Tag.GATHERED):
        return Analysis(Tag.P3_SKEW, dict(moves), dict(roles, tower=tower))
    return Analysis(Tag.UNKNOWN, {}, {})


def classify_protocol_state(cfg: RingConfig) -> ProtocolState:
    """Name the protocol state of a configuration.

    Precedence: Gathered, then tower (Phase 3) states, then Terminal and
    TerminalSkew, then the nine special Phase-2 configurations, then the
    Phase-1 d.block configurations.  Anything outside the protocol's
    reachable set is Unknown.
    """
    a = _analyze(cfg.occ)
    return ProtocolState(a.tag, a.roles)


def enabled_moves(cfg: RingConfig) -> frozenset[MoveIntent]:
    """The robots allowed to move and their admissible destinations."""
    a = _analyze(cfg.occ)
    if a.tag is Tag.GATHERED:
        return frozenset()
    if a.tag is Tag.UNKNOWN:
        raise NoRuleError("no rule")
    intents = []
    for node, targets in a.moves.items():
        if cfg.occ[node] >= 2:
            continue  # tower robots never move
        intents.append(MoveIntent(node, tuple(sorted(targets))))
    return frozenset(intents)


def phase_of(state: ProtocolState | Tag) -> Phase:
    """Which phase a protocol state belongs to."""
    tag = state.tag if isinstance(state, ProtocolState) else state
    if tag in PHASE1_TAGS:
        return Phase.PHASE1
    if tag in PHASE2_TAGS:
        return Phase.PHASE2
    if tag in PHASE3_TAGS:
        return Phase.PHASE3
    if tag is Tag.GATHERED:
        return Phase.DONE
    raise ValueError("no phase for Unknown state")


def reconstruct_from_view(view: View) -> RingConfig:
    """Rebuild the visible pattern from a view, observer on node 0, the
    reading direction mapped to +1.  The result equals the true pattern up
    to a ring automorphism."""
    n = sum(view.dists)
    occ = [0] * n
    pos = 0
    occ[0] = 1
    for gap in view.dists[:-1]:
        pos = (pos + gap) % n
        occ[pos] = 1
    return RingConfig(n, tuple(occ))


def _view_class(dists: tuple[int, ...]) -> tuple[tuple[int, ...], int, bool]:
    """Place a gap cycle in its class under rotation and reversal.

    The key is the lexicographically largest of the 2w readings of
    ``dists`` (every rotation, forwards and reversed).  Also returns the
    node the observer occupies in the representative
    ``reconstruct_from_view(View(key, False))``, and whether the matching
    reading was reversed, so that the representative's forward direction is
    the observer's backward one.

    Ties keep the first reading found, a forward one whenever the pattern is
    mirror-symmetric, so such a pattern maps to its representative by a
    rotation: the rules break some mirror ties by clockwise order (a lone
    robot at distance 2 from both ends of a block steps clockwise), which a
    reflection would turn around."""
    n = sum(dists)
    w = len(dists)
    best = None
    for reverse, seq in ((False, dists), (True, dists[::-1])):
        doubled = seq + seq
        pos = 0
        for j in range(w):
            cand = doubled[j : j + w]
            if best is None or cand > best:
                best, at, flipped = cand, pos, reverse
            pos += seq[j]
    return best, -at % n, flipped


@lru_cache(maxsize=_CACHE_SIZE)
def _class_moves(key: tuple[int, ...]):
    """The moves of a class representative (node -> targets), or None when
    no rule applies.

    The representative always has a robot on node 0, while a canonical
    occupancy string starts with '.', so it is never the placement that
    `check_local_global_consistency` runs the global rules on: that
    cross-check still compares two computations on different placements."""
    pattern = reconstruct_from_view(View(key, False))
    if len(key) % 2 == 0:
        a = _even_pattern(pattern)
        return None if a.tag is Tag.UNKNOWN else a.moves
    shape, moves, _roles = _odd_pattern(pattern)
    return None if shape is None else moves


def local_decide(view: View) -> Decision:
    """A robot's compute phase: reproduce the global rule from its view.

    Tower robots and robots in gathered patterns stay.  Otherwise the
    movement rules are applied to the visible pattern the view reconstructs;
    the result is reported relative to the view's reading direction.  On an
    odd ring the rules move the same robots on every placement of a pattern
    (mirror ties aside, see `_view_class`), so they run once per class of
    view, on its representative, and the observer's move is mapped back
    through the rotation or reflection between the two.  Even rings lie outside the protocol, and there the
    rules can tell two mirror-image robots apart by node index (Biblock
    with two robots at distance 2), so each view is its own class there.
    """
    if view.tower_here:
        return Decision.stay()
    if len(view.dists) == 1:
        return Decision.stay()
    n = sum(view.dists)
    if n % 2:
        key, node, flipped = _view_class(view.dists)
    else:
        key, node, flipped = view.dists, 0, False
    moves = _class_moves(key)
    if moves is None:
        raise NoRuleError("no rule")
    mine = moves.get(node)
    if not mine:
        return Decision.stay()
    steps = {(t - node) % n for t in mine}
    if steps == {1, n - 1}:
        return Decision.either()
    if steps == {1}:
        return Decision.move(forward=not flipped)
    if steps == {n - 1}:
        return Decision.move(forward=flipped)
    raise AssertionError(f"non-adjacent move target {mine}")


def decide_targets(cfg: RingConfig, node: int):
    """Concrete destination nodes for the robot on ``node``, derived through
    its view exactly as the robot itself would: None to stay, a node, or a
    pair of nodes when the scheduler picks the direction."""
    return _decide(cfg.occ, node)


@lru_cache(maxsize=_CACHE_SIZE)
def _decide(occ: tuple[int, ...], node: int):
    cfg = _config(occ)
    view = compute_view(cfg, node)
    decision = local_decide(view)
    n = cfg.n
    if decision.kind is LocalDecision.STAY:
        return None
    if decision.kind is LocalDecision.MOVE_EITHER:
        return ((node - 1) % n, (node + 1) % n)
    direction = view_direction(cfg, node)
    step = direction if decision.forward else -direction
    return (node + step) % n
