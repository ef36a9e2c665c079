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

Every rule answers with one record, `ProtocolState`: the configuration's
tag, its moves (who may move where) and the roles the rule names.
`classify_protocol_state` returns that record, `enabled_moves` its moves
alone, and `local_decide` makes the same decision from a single robot's
view.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

from .ring import (
    Hole,
    RingConfig,
    View,
    _canonical,
    _move_one,
    classify_symmetry,
    compute_view,
    decompose_blocks,
    occupied_runs,
    ring_distance,
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


class Phase(str, Enum):
    PHASE1 = "Phase1"
    PHASE2 = "Phase2"
    PHASE3 = "Phase3"
    DONE = "Done"


# the phase of every tag but Unknown
PHASES: dict[Tag, Phase] = {
    **dict.fromkeys(
        (Tag.BLOCK_DISTANCE, Tag.BLOCK_MIRROR_1, Tag.BLOCK_MIRROR_2,
         Tag.BIG_BLOCK_1_1, Tag.BIG_BLOCK_1_2, Tag.BIG_BLOCK_2),
        Phase.PHASE1,
    ),
    **dict.fromkeys(
        (Tag.START, Tag.EVEN_T, Tag.SPLIT_S, Tag.SPLIT_A, Tag.ODD_T, Tag.BLOCK,
         Tag.BIBLOCK, Tag.TRI_BLOCK_S, Tag.TRI_BLOCK_A),
        Phase.PHASE2,
    ),
    **dict.fromkeys(
        (Tag.TERMINAL, Tag.TERMINAL_SKEW, Tag.TARGET, Tag.P3_ABSORB,
         Tag.P3_SINGLE_BLOCK, Tag.P3_SKEW),
        Phase.PHASE3,
    ),
    Tag.GATHERED: Phase.DONE,
}


class ProtocolState(NamedTuple):
    """A rule's answer for one configuration: its tag, its moves and the
    named roles the rule refers to.

    `moves` maps each robot that may move to its target nodes, ascending;
    two targets mean the scheduler picks the direction.  It is the only
    statement of who may move: it never names a tower robot's node, and it
    is empty for Gathered and Unknown.

    Role keys used, when applicable: "H" (leader hole), "slave" (slave
    hole), "guides" (guide block node tuples), "biggest" (biggest d.block
    node tuples), "B1"/"B2"/"B3" (run node tuples), "S1"/"S2"/"L1"/"L2"
    (SplitA runs), "leader_blocks"/"slave_blocks" (SplitS), "r1" (the
    advanced robot of TerminalSkew), "center" (the node the Phase-3 rules
    gather on), "tower" (tower node).  In what `classify_protocol_state`
    returns, every tag but Gathered and Unknown also has "movers": the
    nodes of `moves`, ascending."""

    tag: Tag
    moves: dict
    roles: dict


# the answer wherever no rule applies
_UNKNOWN = ProtocolState(Tag.UNKNOWN, {}, {})


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
# the `clear` of each memo kept outside this module (the checker's proven
# states); `clear_caches` runs them
_CLEAR_HOOKS: list = []


def clear_caches() -> None:
    """Empty every memo in the package: the rule engine's, and each one
    registered in `_CLEAR_HOOKS`."""
    _analyze.cache_clear()
    _decisions.cache_clear()
    _class_state.cache_clear()
    _trace_fields.cache_clear()
    for clear in _CLEAR_HOOKS:
        clear()


@lru_cache(maxsize=_CACHE_SIZE)
def _analyze(occ: tuple[int, ...]) -> ProtocolState:
    return _classify(RingConfig(len(occ), occ))


# ---------------------------------------------------------------------------
# even-width rules: Phase 1, Phase 2, Terminal, TerminalSkew
# ---------------------------------------------------------------------------


def _even_pattern(cfg: RingConfig) -> ProtocolState:
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
        return _UNKNOWN

    # Terminal and Start: two 1.blocks of size w/2 facing across the leader
    # hole; the borders next to it step into it.  Terminal is the Start
    # whose leader hole is a single empty node, which both borders target.
    # Of the rules below, only Biblock (at w = 2) could match too, and only
    # with that one-node hole.
    if m == 2 and sizes[0] == sizes[1] and sym.symmetric and sym.leader_hole:
        lead = sym.leader_hole
        a = (lead.start - 1) % n
        b = (lead.start + lead.size) % n
        moves = {a: (lead.start,), b: ((lead.start + lead.size - 1) % n,)}
        tag = Tag.TERMINAL if lead.size == 1 else Tag.START
        return ProtocolState(tag, moves, {"H": lead, "slave": sym.slave_hole})

    # TerminalSkew: two 1.blocks at distance 2 whose sizes differ by two.
    # The trailing border of the larger block steps onto its own leading
    # border, creating (or growing) the tower on the axis node.
    if m == 2 and abs(sizes[0] - sizes[1]) == 2:
        if (gaps[0] == 1) != (gaps[1] == 1):
            gi = 0 if gaps[0] == 1 else 1
            big_i = 0 if sizes[0] > sizes[1] else 1
            big = runs[big_i]
            if gi == big_i:  # size-1 hole follows the big run
                r1 = _run_end(big, n)
                mover = (r1 - 1) % n
            else:  # size-1 hole precedes the big run
                r1 = big[0]
                mover = (r1 + 1) % n
            roles = {
                "B1": _run_nodes(big, n),
                "B2": _run_nodes(runs[1 - big_i], n),
                "r1": r1,
            }
            return ProtocolState(Tag.TERMINAL_SKEW, {mover: (r1,)}, roles)

    # A lone adjacent pair is the degenerate tail of the tower merge (the
    # TerminalSkew shape with an empty small block): each end targets the
    # other; `_classify` drops the end standing on the tower.
    if m == 1 and sizes[0] == 2:
        start, size = runs[0]
        end = (start + 1) % n
        return ProtocolState(Tag.TERMINAL_SKEW, {start: (end,), end: (start,)}, {})

    # Block: a single 1.block of size k; both borders step outward.
    if m == 1:
        start, size = runs[0]
        end = _run_end(runs[0], n)
        return ProtocolState(Tag.BLOCK, {start: ((start - 1) % n,), end: ((end + 1) % n,)}, {})

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
        roles = {"B1": _run_nodes(big, n), "B2": _run_nodes(runs[1 - big_i], n)}
        return ProtocolState(Tag.BIBLOCK, {mover: (target,)}, roles)

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
                return ProtocolState(Tag.EVEN_T, {mover: (target,)}, roles)
            # OddT: the singleton joins the (k/2-1)-block.
            mover, target = _border_toward(runs[one_i], mid_i, one_i, gaps, n)
            return ProtocolState(Tag.ODD_T, {mover: (target,)}, roles)

    # TriBlockS: middle 1.block crossed by the axis edge, one empty node on
    # each side; its borders step outward, joining the side blocks.
    if m == 3 and sym.symmetric and sym.axis_edge is not None:
        ex = sym.axis_edge[0]
        if cfg.occ[ex] and cfg.occ[(ex + 1) % n]:
            mid_i = next(
                i for i, r in enumerate(runs) if (ex - r[0]) % n < r[1]
            )
            if gaps[mid_i] == gaps[mid_i - 1] == 1:
                start, size = runs[mid_i]
                end = _run_end(runs[mid_i], n)
                moves = {start: ((start - 1) % n,), end: ((end + 1) % n,)}
                roles = {"B1": _run_nodes(runs[mid_i], n), "H": sym.leader_hole}
                return ProtocolState(Tag.TRI_BLOCK_S, moves, roles)

    # TriBlockA: one 1.block at distance 2 from both others, whose sizes
    # differ by one; the border of the middle block facing the smaller side
    # block steps over to it.
    if m == 3 and not sym.symmetric:
        flanked = _flanked(gaps)
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
                }
                return ProtocolState(Tag.TRI_BLOCK_A, {mover: (target,)}, roles)

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
            leader_blocks = []
            slave_blocks = []
            for i, h in enumerate(hole_list):
                left, right = runs[i], runs[(i + 1) % 4]
                if h == lead:
                    leader_blocks += [left, right]
                elif h == slave:
                    slave_blocks += [left, right]
                elif hole_list[i - 1] == slave:  # the left run is a slave block
                    mover = _run_end(left, n)
                    moves[mover] = ((mover + 1) % n,)
                else:
                    mover = right[0]
                    moves[mover] = ((mover - 1) % n,)
            roles = {
                "H": lead,
                "slave": slave,
                "leader_blocks": tuple(_run_nodes(r, n) for r in leader_blocks),
                "slave_blocks": tuple(_run_nodes(r, n) for r in slave_blocks),
            }
            return ProtocolState(Tag.SPLIT_S, moves, roles)

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
                    }
                    return ProtocolState(Tag.SPLIT_A, {mover: (target,)}, roles)

    return _phase1_pattern(cfg, sym)


def _flanked(gaps):
    """Indices of the runs with a one-node hole on each side."""
    return [i for i, gap in enumerate(gaps) if gap == gaps[i - 1] == 1]


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


# ---------------------------------------------------------------------------
# Phase 1: d.block rules
# ---------------------------------------------------------------------------


def _phase1_pattern(cfg: RingConfig, sym) -> ProtocolState:
    n = cfg.n
    dec = decompose_blocks(cfg)
    blocks = dec.blocks
    uniform = not dec.isolated and len({b.size for b in blocks}) == 1

    if uniform and len(blocks) <= 2:
        # BlockDistance: one d.block of size k or two of size k/2 with
        # d > 1; the robots flanking the leader hole step away from it,
        # starting a (d-1)-spaced block.
        if dec.d > 1 and sym.symmetric and sym.leader_hole is not None:
            lead = sym.leader_hole
            a = (lead.start - 1) % n
            b = (lead.start + lead.size) % n
            moves = {a: ((a - 1) % n,), b: ((b + 1) % n,)}
            roles = {"H": lead, "blocks": tuple(b_.nodes(n) for b_ in blocks)}
            return ProtocolState(Tag.BLOCK_DISTANCE, moves, roles)
        return _UNKNOWN

    # the d.block of every robot in one
    owner = {v: b for b in blocks for v in b.nodes(n)}
    if not uniform:
        return _big_block(cfg, sym, dec, owner)
    if sym.symmetric:
        return _block_mirror2(cfg, sym, dec, owner)
    # BlockMirror1: asymmetric, all d.blocks the same size: among the robots
    # closest to a neighbouring d.block, the one with the biggest view steps
    # toward it.
    moves = _biggest_view_moves(cfg, _closest_candidates(cfg, owner, set(blocks)))
    roles = {"blocks": tuple(b.nodes(n) for b in blocks)}
    return ProtocolState(Tag.BLOCK_MIRROR_1, moves, roles)


def _block_mirror2(cfg: RingConfig, sym, dec, owner) -> ProtocolState:
    # Symmetric, all d.blocks the same size: the blocks beside (or around)
    # the leader hole guide the others; the borders of the blocks one hole
    # away step toward their guide block.
    n = cfg.n
    lead = sym.leader_hole
    if lead is None:
        return _UNKNOWN
    flank_left = (lead.start - 1) % n
    flank_right = (lead.start + lead.size) % n
    guides = []
    for v in (flank_left, flank_right):
        g = owner.get(v)
        if g is None:
            return _UNKNOWN
        if g not in guides:
            guides.append(g)
    moves = {}
    for g in guides:
        for border, step in zip(g.borders(n), (-1, 1)):
            nxt = _next_occupied(cfg.occ, border, step, n)
            other = owner.get(nxt)
            if other is None or other is g:
                continue
            if lead.contains((border + step) % n, n):
                continue  # the shared hole must differ from H
            moves[nxt] = ((nxt - step) % n,)
    roles = {"H": lead, "guides": tuple(g.nodes(n) for g in guides)}
    return ProtocolState(Tag.BLOCK_MIRROR_2, moves, roles)


def _next_occupied(occ, node, step, n):
    v = (node + step) % n
    while not occ[v]:
        v = (v + step) % n
    return v


def _big_block(cfg: RingConfig, sym, dec, owner) -> ProtocolState:
    n = cfg.n
    biggest_size = max(b.size for b in dec.blocks)
    biggest = [b for b in dec.blocks if b.size == biggest_size]
    targets = set(biggest)

    if any(owner.get(_next_occupied(cfg.occ, v, step, n)) in targets
           for v in dec.isolated for step in (1, -1)):
        bb11 = _try_big_block_1_1(cfg, sym, dec)
        if bb11 is not None:
            return bb11
        tag = Tag.BIG_BLOCK_1_2
        # only isolated robots move while one of them neighbours a biggest
        # block; block borders wait their turn
        cand = _isolated_candidates(cfg, dec, owner, targets)
    else:
        tag = Tag.BIG_BLOCK_2
        cand = _closest_candidates(cfg, owner, targets, exclude_members=True)
    moves = _biggest_view_moves(cfg, cand)
    return ProtocolState(tag, moves, {"biggest": tuple(b.nodes(n) for b in biggest)})


def _isolated_candidates(cfg: RingConfig, dec, owner, targets):
    """Isolated robots sharing a hole with a block of `targets`, keeping
    only those at minimal distance, with their minimal directions."""
    n = cfg.n
    per = []
    for v in dec.isolated:
        dirs = []
        best = None
        for step in (1, -1):
            u = _next_occupied(cfg.occ, v, step, n)
            if owner.get(u) not in targets:
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
    return [(v, dirs) for v, d, dirs in per if d == top]


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
    roles = {"isolated": (i1, i2), "blocks": tuple(b.nodes(n) for b in dec.blocks)}
    return ProtocolState(Tag.BIG_BLOCK_1_1, moves, roles)


def _closest_candidates(cfg: RingConfig, owner, target_blocks, exclude_members=False):
    """Robots minimizing the ring distance to a target block other than
    their own, with the directions that realize the minimum across a single
    hole.  With `exclude_members`, robots inside target blocks do not move
    (they are joined, never left).  Returns (node, directions) pairs."""
    n = cfg.n
    occ_nodes = cfg.occupied
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
            out.append((v, tuple(dirs)))
    return out


def _biggest_view_moves(cfg: RingConfig, cand):
    """The moves of the candidates, (node, directions) pairs, whose views
    are lexicographically maximal; a lone candidate needs no view."""
    n = cfg.n
    if len(cand) > 1:
        views = [compute_view(cfg, v).dists for v, _ in cand]
        top = max(views)
        cand = [c for c, view in zip(cand, views) if view == top]
    return {v: tuple(sorted((v + s) % n for s in dirs)) for v, dirs in cand}


# ---------------------------------------------------------------------------
# odd-width rules: post-Target gathering on the visible pattern
# ---------------------------------------------------------------------------


def _odd_pattern(cfg: RingConfig) -> ProtocolState:
    """Movement rules for patterns with an odd number of occupied nodes.
    These arise only after the Phase-3 tower hides one robot.  The tags
    with a "center" role (P3SingleBlock, Target, P3Absorb) hold only when
    the tower stands on the center, and P3Skew only when its one move
    restores one of them; `_classify` checks both."""
    n = cfg.n
    runs = occupied_runs(cfg)
    m = len(runs)
    w = sum(size for _, size in runs)
    gaps = _holes_after(runs, n)

    if m == 1:
        # One odd 1.block: the neighbours of its central node step onto it.
        start, size = runs[0]
        center = (start + (size - 1) // 2) % n
        a, b = (center - 1) % n, (center + 1) % n
        return ProtocolState(
            Tag.P3_SINGLE_BLOCK, {a: (center,), b: (center,)}, {"center": center}
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
                return ProtocolState(Tag.P3_SKEW, {iso: (target,)}, {})
        return _UNKNOWN

    if m == 3:
        flanked = _flanked(gaps)
        if len(flanked) != 1:
            return _UNKNOWN
        mid = flanked[0]
        sides = [(mid + 1) % 3, (mid - 1) % 3]
        s_a, s_b = runs[sides[0]][1], runs[sides[1]][1]
        mid_size = runs[mid][1]
        if mid_size % 2 == 1 and s_a == s_b:
            # symmetric absorb step: both side borders move toward the
            # middle; a middle of one node is the tower Phase 3 starts from
            moves = {}
            for si in sides:
                mover, target = _border_toward(runs[si], mid, si, gaps, n)
                moves[mover] = (target,)
            center = (runs[mid][0] + (mid_size - 1) // 2) % n
            tag = Tag.TARGET if mid_size == 1 else Tag.P3_ABSORB
            return ProtocolState(tag, moves, {"center": center})
        if mid_size % 2 == 0 and abs(s_a - s_b) == 1:
            # one side is a move ahead; the bigger side's border catches up
            big_side = sides[0] if s_a > s_b else sides[1]
            mover, target = _border_toward(runs[big_side], mid, big_side, gaps, n)
            return ProtocolState(Tag.P3_SKEW, {mover: (target,)}, {})

    return _UNKNOWN


# ---------------------------------------------------------------------------
# classification and move computation
# ---------------------------------------------------------------------------


def _classify(cfg: RingConfig) -> ProtocolState:
    if cfg.k == 0:
        raise ValueError("cannot classify an empty configuration")
    occupied = cfg.occupied
    if len(occupied) == 1:
        roles = {"tower": occupied[0]} if cfg.occ[occupied[0]] >= 2 else {}
        return ProtocolState(Tag.GATHERED, {}, roles)
    if cfg.n % 2 == 0:
        return _UNKNOWN

    if cfg.towerless:
        return _even_pattern(cfg)

    towers = cfg.towers
    if len(towers) != 1:
        return _UNKNOWN
    tower = towers[0]
    # the rules read the visible pattern: odd width once the tower hides a
    # robot, even once a robot has merged onto it (the TerminalSkew shape)
    pattern = RingConfig(cfg.n, tuple(1 if c else 0 for c in cfg.occ))
    state = (_odd_pattern if len(occupied) % 2 else _even_pattern)(pattern)
    if state.roles.get("center") == tower:
        return ProtocolState(state.tag, state.moves, dict(state.roles, tower=tower))
    if state.tag is Tag.P3_SKEW or (
        state.tag is Tag.TERMINAL_SKEW and state.roles.get("r1", tower) == tower
    ):
        # the tower robot never moves
        moves = {v: t for v, t in state.moves.items() if cfg.occ[v] == 1}
        return _confirm_skew(cfg, moves, state.roles, tower)
    return _UNKNOWN


def _confirm_skew(cfg: RingConfig, moves, roles, tower) -> ProtocolState:
    """A skew state is one lagging move away from a symmetric Phase-3
    state; applying the unique pending move must restore one."""
    if len(moves) != 1:
        return _UNKNOWN
    (mover, (target,)), = moves.items()
    after = _classify(RingConfig(cfg.n, _move_one(cfg.occ, mover, target)))
    if after.tag in (Tag.TARGET, Tag.P3_ABSORB, Tag.P3_SINGLE_BLOCK, Tag.GATHERED):
        return ProtocolState(Tag.P3_SKEW, moves, dict(roles, tower=tower))
    return _UNKNOWN


def classify_protocol_state(cfg: RingConfig) -> ProtocolState:
    """Name the protocol state of a configuration: a fresh record, whose
    roles also list the "movers" unless it is Gathered or Unknown.

    Precedence: Gathered, then tower (Phase 3) states, then Terminal and
    TerminalSkew, then the nine special Phase-2 configurations, then the
    Phase-1 d.block configurations.  Anything outside the protocol's
    reachable set is Unknown, as is every even ring but a gathered one.
    """
    state = _analyze(cfg.occ)
    roles = dict(state.roles)
    if state.tag is not Tag.GATHERED and state.tag is not Tag.UNKNOWN:
        roles["movers"] = tuple(sorted(state.moves))
    return ProtocolState(state.tag, dict(state.moves), roles)


def enabled_moves(cfg: RingConfig) -> dict[int, tuple[int, ...]]:
    """The robots allowed to move: a fresh dict from each one's node to its
    admissible destination nodes, ascending.  Two destinations mean the
    scheduler picks the direction."""
    state = _analyze(cfg.occ)
    if state.tag is Tag.UNKNOWN:
        raise NoRuleError("no rule")
    return dict(state.moves)


def phase_of(state: ProtocolState | Tag) -> Phase:
    """Which phase a protocol state belongs to (see `PHASES`)."""
    tag = state.tag if isinstance(state, ProtocolState) else state
    if tag not in PHASES:
        raise ValueError("no phase for Unknown state")
    return PHASES[tag]


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


@lru_cache(maxsize=_CACHE_SIZE)
def _class_state(key: tuple[int, ...]) -> ProtocolState:
    """The rule answer on a class representative.

    The representative always has a robot on node 0, while a canonical
    occupancy string starts with '.', so it is never the placement that
    `check_local_global_consistency` runs the global rules on: that
    cross-check still compares two computations on different placements."""
    pattern = reconstruct_from_view(View(key, False))
    return (_odd_pattern if len(key) % 2 else _even_pattern)(pattern)


def local_decide(view: View):
    """A robot's compute phase: reproduce the global rule from its view.

    The view's pattern is rebuilt with the robot on node 0 (a tower there
    if the view shows one) and its reading direction along +1, and the
    robot's entry of that pattern's decision table (see `_decisions`) is
    returned, relative to that direction: ``()`` to stay, ``(1,)`` for one
    step along the reading direction, ``(n - 1,)`` for one step against it,
    or ``(1, n - 1)`` when the scheduler picks the direction.
    """
    occ = reconstruct_from_view(view).occ
    return _decide((2,) + occ[1:] if view.tower_here else occ, 0)


def decide_targets(cfg: RingConfig, node: int):
    """Concrete destination nodes for the robot on ``node``, derived through
    its view exactly as the robot itself would, ascending: ``()`` to stay,
    one node, or two when the scheduler picks the direction."""
    return _decide(cfg.occ, node % cfg.n)


# entries of a decision table besides a robot's targets
_EMPTY = "empty"  # no robot on the node
_NO_RULE = "no rule"  # no rule covers the robot's pattern


def _decide(occ: tuple[int, ...], node: int):
    """`decide_targets` on an occupancy tuple: one lookup in its table."""
    target = _decisions(occ)[node]
    if target is _NO_RULE:
        raise NoRuleError("no rule")
    if target is _EMPTY:
        raise ValueError(f"no robot at node {node}")
    return target


@lru_cache(maxsize=_CACHE_SIZE)
def _decisions(occ: tuple[int, ...]) -> tuple:
    """Every robot's decision on ``occ``, by node: its target nodes,
    ascending, as in `ProtocolState.moves` (``()`` to stay, ``(t,)``, or
    ``(node - 1, node + 1)`` sorted when the scheduler picks), `_NO_RULE`,
    or `_EMPTY` on an empty node.

    A robot decides from its view alone: the gap cycle read from its node
    in the direction that reads lexicographically larger (clockwise on a
    tie). Tower robots and a gathered pattern stay; on an even ring, which
    the protocol does not cover, every other robot has no rule.  The rules
    move the same robots on every placement of a pattern (mirror ties
    aside, below), so they run once per class of gap cycle under rotation
    and reversal, on its representative: the pattern rebuilt from the key,
    the largest of the 2w readings (w occupied nodes), with a robot on node
    0.  Each robot's move is mapped back through the rotation or reflection
    that takes the first reading equal to the key, in the robot's own
    order (its view's rotations, then its reversal's), onto the key.  That
    order makes a mirror-symmetric pattern map by a rotation: the rules
    break some mirror ties by clockwise order (a lone robot at distance 2
    from both ends of a block steps clockwise), which a reflection would
    turn around.
    """
    n = len(occ)
    nodes = tuple(compress(range(n), occ))
    w = len(nodes)
    table = [_EMPTY] * n
    if w == 1:
        table[nodes[0]] = ()
        return tuple(table)
    if n % 2 == 0:
        return tuple(_NO_RULE if c else _EMPTY for c in occ)
    gaps, key, starts = _readings(occ, nodes)
    state = _class_state(key)
    if state.tag is Tag.UNKNOWN:
        return tuple(_EMPTY if not c else () if c >= 2 else _NO_RULE for c in occ)
    moves = state.moves
    if len(starts[1]) + len(starts[-1]) == 1:
        # a rigid pattern: one rotation or reflection maps every robot, so
        # only the representative's movers are mapped
        e = 1 if starts[1] else -1
        origin = nodes[starts[e][0]]
        for node in nodes:
            table[node] = ()
        for here, targets in moves.items():
            node = (origin + e * here) % n
            if occ[node] == 1:
                table[node] = _map_targets(targets, here, origin, e, n)
        return tuple(table)
    back = gaps[::-1]
    for i, node in enumerate(nodes):
        if occ[node] >= 2:
            table[node] = ()
            continue
        # the representative's node 0 is robot s, read in direction e
        view_dir = 1 if gaps[i:] + gaps[:i] >= back[w - i :] + back[: w - i] else -1
        e = view_dir if starts[view_dir] else -view_dir
        s = min(starts[e], key=lambda s: (s - i) * e % w)
        here = (node - nodes[s]) * e % n
        targets = moves.get(here)
        # most robots stay: skip the mapping for them
        table[node] = _map_targets(targets, here, nodes[s], e, n) if targets else ()
    return tuple(table)


def _readings(occ: tuple[int, ...], nodes: tuple[int, ...]):
    """The gap cycle of ``occ``, from the robot on ``nodes[0]`` clockwise;
    the class key, the largest of the 2w readings of the cycle, from each
    robot clockwise and counter-clockwise; and, by direction (1 or -1),
    the robots whose reading equals the key, ascending."""
    n, w = len(occ), len(nodes)
    gaps = tuple((nodes[(i + 1) % w] - nodes[i]) % n for i in range(w))
    back = gaps[::-1]
    top = max(gaps)
    # a reading begins with a gap next to its robot: only those that begin
    # with the largest gap can equal the key
    cw = {s: gaps[s:] + gaps[:s] for s in range(w) if gaps[s] == top}
    ccw = {s: back[w - s :] + back[: w - s] for s in range(w) if gaps[s - 1] == top}
    key = max(*cw.values(), *ccw.values())
    starts = {e: [s for s, reading in readings.items() if reading == key]
              for e, readings in ((1, cw), (-1, ccw))}
    return gaps, key, starts


def _map_targets(targets, here, origin, e, n):
    """A representative robot's targets, from node ``here``, on the ring
    that node i of the representative maps to as origin + e·i."""
    if any((t - here) % n not in (1, n - 1) for t in targets):
        raise AssertionError(f"non-adjacent move target {targets}")
    return tuple(sorted((origin + e * t) % n for t in targets))


@lru_cache(maxsize=_CACHE_SIZE)
def _trace_fields(occ: tuple[int, ...]) -> tuple[str, str]:
    """The canonical occupancy string and the tag a trace records for
    ``occ``.  A towerless pattern of even width on an odd ring reads both
    off its class key: the least string is that of the largest gap
    reading, ``.`` × (g − 1) then ``1`` for each gap g, and the tag is the
    representative's (`_class_state`).  Any other occupancy is scanned by
    `ring._canonical` and classified by `_analyze`."""
    nodes = tuple(compress(range(len(occ)), occ))
    w = len(nodes)
    if len(occ) % 2 and w and w % 2 == 0 and w == sum(occ):
        key = _readings(occ, nodes)[1]
        return "".join("." * (g - 1) + "1" for g in key), _class_state(key).tag.value
    return _canonical(occ), _analyze(occ).tag.value
