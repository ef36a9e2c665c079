"""Independent brute-force oracles the tests check the package against.

Everything here is written directly from first principles (explicit
permutation images, full scans); none of it calls into ring_gather's
geometry so that agreement between the two is meaningful.

Two sections are exceptions. The per-robot decision path, the reference
for `protocol._decisions`, runs the rule engine's class moves from each
robot's own view. The trace checks as five separate walkers with their own
replay, the reference for `checker.check_trace`, call the rule engine for
decisions and phases, but none of the single-pass code.
"""

from itertools import combinations

from ring_gather import RingConfig, classify_symmetry
from ring_gather.checker import Verdict
from ring_gather.protocol import (
    NoRuleError,
    Phase,
    Tag,
    _class_state,
    decide_targets,
    phase_of,
)
from ring_gather.ring import _canonical, parse_occupancy
from ring_gather.simulate import Trace


def rotate(occ, r):
    n = len(occ)
    return tuple(occ[(i - r) % n] for i in range(n))


def reflect(occ, c):
    n = len(occ)
    return tuple(occ[(c - i) % n] for i in range(n))


def all_images(occ):
    n = len(occ)
    out = []
    for r in range(n):
        out.append(rotate(occ, r))
    for c in range(n):
        out.append(reflect(occ, c))
    return out


def brute_symmetry_class(occ):
    """'periodic' | 'symmetric' | 'rigid' by explicit stabilizer search."""
    n = len(occ)
    if any(rotate(occ, r) == occ for r in range(1, n)):
        return "periodic"
    if any(reflect(occ, c) == occ for c in range(n)):
        return "symmetric"
    return "rigid"


def brute_axes(occ):
    """All reflection parameters fixing the occupancy."""
    n = len(occ)
    return [c for c in range(n) if reflect(occ, c) == occ]


def brute_view(occ, node):
    """Both direction readings from an occupied node by explicit walking."""
    n = len(occ)
    assert occ[node]
    readings = []
    for step in (1, -1):
        dists = []
        pos = node
        total = 0
        while True:
            d = 0
            while True:
                pos = (pos + step) % n
                d += 1
                if occ[pos]:
                    break
            dists.append(d)
            total += d
            if pos == node:
                break
        assert total == n
        readings.append(tuple(dists))
    return max(readings)


def brute_inter_distance(occ):
    n = len(occ)
    nodes = [i for i, c in enumerate(occ) if c]
    best = None
    for a, b in combinations(nodes, 2):
        d = min((a - b) % n, (b - a) % n)
        if best is None or d < best:
            best = d
    # robots sharing a node are at distance 0
    if any(c >= 2 for c in occ):
        best = 0
    return best


def brute_blocks(occ):
    """(d, blocks as node tuples, isolated) by direct scanning."""
    n = len(occ)
    d = brute_inter_distance(occ)
    nodes = [i for i, c in enumerate(occ) if c]
    in_block = {}
    blocks = []
    for start in nodes:
        # walk forward while the spacing is exactly d
        prev = (start - d) % n
        if occ[prev] and all(occ[(start - j) % n] == 0 for j in range(1, d)):
            continue  # not the first robot of a run
        run = [start]
        cur = start
        while True:
            nxt = (cur + d) % n
            if nxt == start:
                break
            if occ[nxt] and all(occ[(cur + j) % n] == 0 for j in range(1, d)):
                run.append(nxt)
                cur = nxt
            else:
                break
        if len(run) >= 2:
            blocks.append(tuple(run))
            for v in run:
                in_block[v] = True
    isolated = [v for v in nodes if v not in in_block]
    return d, blocks, isolated


def orbit_classes(n, k, include_periodic=False):
    """Enumerate towerless k-subset classes of the n-ring up to the
    dihedral group by explicit orbit sweeping; returns a list of frozensets
    (one arbitrary member per orbit)."""
    seen = set()
    classes = []
    for nodes in combinations(range(n), k):
        occ = tuple(1 if i in set(nodes) else 0 for i in range(n))
        if occ in seen:
            continue
        orbit = set(all_images(occ))
        seen.update(orbit)
        if not include_periodic and brute_symmetry_class(occ) == "periodic":
            continue
        classes.append(occ)
    return classes


def first_met_classes(n, k):
    """The least occupancy string of every non-periodic class of towerless
    k-robot placements, in the order in which a sweep over the placements
    with a robot on node 0, in `combinations` order, first meets each
    class."""
    seen = set()
    classes = []
    for rest in combinations(range(1, n), k - 1):
        occ = tuple(1 if i == 0 or i in rest else 0 for i in range(n))
        if occ in seen:
            continue
        orbit = all_images(occ)
        seen.update(orbit)
        if brute_symmetry_class(occ) != "periodic":
            classes.append("".join(".1"[c] for c in min(orbit)))
    return classes


# ---------------------------------------------------------------------------
# decisions, one robot at a time
# ---------------------------------------------------------------------------


def _view_class(dists):
    """Place a gap cycle in its class under rotation and reversal: the key
    is the largest of the 2w readings, the first one found on a tie.  Also
    returns the node the observer occupies in the representative
    (the pattern rebuilt from the key, a robot on node 0) and whether the
    matching reading was reversed."""
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


def per_robot_decision(occ, node):
    """The decision of the robot on ``node``, computed from its own view
    alone: its gap readings walked both ways, the class of its view, the
    class representative's moves, and the move mapped back to the ring.
    Returns or raises what `protocol._decide` does."""
    n = len(occ)
    if not occ[node]:
        raise ValueError(f"no robot at node {node}")
    if occ[node] >= 2 or sum(1 for c in occ if c) == 1:
        return ()
    cw, ccw = _reading(occ, node, 1), _reading(occ, node, -1)
    dists = max(cw, ccw)
    direction = 1 if cw >= ccw else -1  # the view's reading direction
    if n % 2:
        key, rep, flipped = _view_class(dists)
    else:
        key, rep, flipped = dists, 0, False
    state = _class_state(key)
    if state.tag is Tag.UNKNOWN:
        raise NoRuleError("no rule")
    mine = state.moves.get(rep)
    if not mine:
        return ()
    steps = {(t - rep) % n for t in mine}
    if steps == {1, n - 1}:
        return tuple(sorted(((node - 1) % n, (node + 1) % n)))
    assert steps in ({1}, {n - 1}), mine
    forward = (steps == {1}) != flipped
    return ((node + (direction if forward else -direction)) % n,)


def _reading(occ, node, step):
    """The gaps met walking from ``node`` in direction ``step`` once round."""
    n = len(occ)
    out, gap = [], 0
    for i in range(1, n + 1):
        gap += 1
        if occ[(node + step * i) % n]:
            out.append(gap)
            gap = 0
    return tuple(out)


# ---------------------------------------------------------------------------
# trace checks, one walker each
# ---------------------------------------------------------------------------


class _Replay:
    """Walk a trace, maintaining the configuration, each robot's node and
    the pending intents, and verify that each recorded canonical occupancy
    matches.  Robot i starts on the i-th robot's node, counting the robots
    node by node from node 0."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.n = trace.n
        self.occ = list(parse_occupancy(trace.initial))
        self.positions = []
        for node, count in enumerate(self.occ):
            self.positions += [node] * count
        self.pending: dict[int, tuple] = {}  # robot -> target

    def play(self):
        """Yield (event, mismatch) pairs; mismatch is None or a string."""
        for ev in self.trace.events:
            mismatch = None
            if ev.kind not in ("activate", "fire"):
                mismatch = f"unknown event kind {ev.kind!r}"
            elif ev.kind == "activate" and ev.robot in self.pending:
                mismatch = "activate with intent pending"
            elif ev.kind == "fire" and ev.robot not in self.pending:
                mismatch = "fire without intent"
            elif self.positions[ev.robot] != ev.from_node:
                mismatch = "robot is not on its from node"
            elif ev.kind == "activate":
                target = self._decide(ev.from_node)
                if ev.to_node is not None:
                    mismatch = "activate with a target node"
                elif target == "no-rule":
                    # a run ends Stuck here and records no event
                    mismatch = "activate with no rule"
                else:
                    self.pending[ev.robot] = target
            else:
                target = self.pending.pop(ev.robot)
                if ev.to_node is None:
                    if target != ():
                        mismatch = "intent to move fired as stay"
                elif ev.to_node not in target:
                    mismatch = "fired move differs from intent"
                else:
                    self.occ[ev.from_node] -= 1
                    self.occ[ev.to_node] += 1
                    self.positions[ev.robot] = ev.to_node
            if _canonical(tuple(self.occ)) != ev.occ:
                mismatch = mismatch or "occupancy diverged from recording"
            yield ev, mismatch

    def _decide(self, node):
        try:
            return decide_targets(RingConfig(self.n, tuple(self.occ)), node)
        except NoRuleError:
            return "no-rule"

    def incorrect_pending(self):
        """Robots whose pending intent has a target and differs from a fresh
        decision on their node; a fresh decision without a rule counts as
        different."""
        bad = []
        for robot, target in self.pending.items():
            if target == ():
                continue
            if self._decide(self.positions[robot]) != target:
                bad.append(robot)
        return bad


def replay_trace(trace: Trace) -> Verdict:
    """Re-execute a trace and confirm every recorded occupancy string."""
    replay = _Replay(trace)
    for ev, mismatch in replay.play():
        if mismatch:
            return Verdict.fail(ev.step, mismatch, ev.occ)
    return Verdict.ok()


_P3_ENTRY = {Tag.TERMINAL_SKEW.value, Tag.TARGET.value}


def check_no_tower_before_target(trace: Trace) -> Verdict:
    """No tower may appear strictly before the first TerminalSkew or Target
    state: Phases 1 and 2 only ever move robots onto empty nodes."""
    for ev in trace.events:
        if ev.tag in _P3_ENTRY:
            return Verdict.ok()
        if any(ch not in ".1" for ch in ev.occ):
            return Verdict.fail(ev.step, "tower before Phase 3", ev.occ)
    return Verdict.ok()


def check_never_periodic(trace: Trace) -> Verdict:
    """No towerless configuration along the trace is periodic."""
    checked = set()
    for ev in trace.events:
        if ev.occ in checked:
            continue
        checked.add(ev.occ)
        cfg = RingConfig.from_string(ev.occ)
        if cfg.towerless and cfg.k and classify_symmetry(cfg).periodic:
            return Verdict.fail(ev.step, "periodic configuration reached", ev.occ)
    return Verdict.ok()


def check_outdated_bound(trace: Trace) -> Verdict:
    """During Phases 1 and 2 at most one pending intent may disagree with a
    fresh decision (at most one outdated robot with an incorrect target)."""
    replay = _Replay(trace)
    for ev, mismatch in replay.play():
        if mismatch:
            return Verdict.fail(ev.step, f"replay failed: {mismatch}", ev.occ)
        try:
            phase = phase_of(Tag(ev.tag))
        except ValueError:
            return Verdict.fail(ev.step, "unknown state reached", ev.occ)
        if phase in (Phase.PHASE1, Phase.PHASE2):
            bad = replay.incorrect_pending()
            if len(bad) > 1:
                return Verdict.fail(
                    ev.step,
                    f"{len(bad)} outdated robots with incorrect targets",
                    ev.occ,
                )
    return Verdict.ok()


def check_phase_monotonic(trace: Trace) -> Verdict:
    """Once a trace reaches Phase 3 it never returns to Phase 1 or 2."""
    reached_p3 = False
    for ev in trace.events:
        try:
            phase = phase_of(Tag(ev.tag))
        except ValueError:
            return Verdict.fail(ev.step, "unknown state reached", ev.occ)
        if phase in (Phase.PHASE3, Phase.DONE):
            reached_p3 = True
        elif reached_p3:
            return Verdict.fail(ev.step, f"fell back to {ev.tag}", ev.occ)
    return Verdict.ok()


# keyed and ordered like checker.TRACE_CHECKS
TRACE_CHECKS = {
    "no_tower_before_target": check_no_tower_before_target,
    "never_periodic": check_never_periodic,
    "outdated_bound": check_outdated_bound,
    "phase_monotonic": check_phase_monotonic,
    "replay": replay_trace,
}
