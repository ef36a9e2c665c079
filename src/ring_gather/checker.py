"""Executable counterparts of the protocol's correctness lemmas.

Each check consumes a trace (or a constructed configuration set) and
returns a `Verdict`: pass, or the first violating step with a description
and the offending occupancy string.  The checks only ever look at traces
and replays of traces, never at simulator internals.

Asymptotic statements get concrete desk-scale constants: 20·n² rounds for
the whole gathering (the overridable `c`), small fixed action budgets for
the O(1) phase-2 lemmas, 3·k actions for the per-round-progress ones.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import NamedTuple

from .ring import (
    RingConfig,
    _aperiodic_bracelets,
    _move_one,
    classify_symmetry,
    compute_view,
    format_occupancy,
    parse_occupancy,
)
from .protocol import (
    _CACHE_SIZE,
    _CLEAR_HOOKS,
    _EMPTY,
    _NO_RULE,
    PHASES,
    Phase,
    Tag,
    _analyze,
    _decisions,
    _trace_fields,
    classify_protocol_state,
)
from .simulate import (
    DEFAULT_MAX_STEPS,
    Trace,
    _start_positions,
    builtin_scheduler,
    run,
    validate_params,
)


class Violation(NamedTuple):
    step: int | None
    description: str
    occ: str | None


class Verdict(NamedTuple):
    passed: bool
    violation: Violation | None = None

    @classmethod
    def ok(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def fail(cls, step, description, occ) -> "Verdict":
        return cls(False, Violation(step, description, occ))

    def __bool__(self) -> bool:
        return self.passed


# ---------------------------------------------------------------------------
# initial configuration enumeration
# ---------------------------------------------------------------------------


def enumerate_initial_configs(n: int, k: int, relaxed: bool = False):
    """Yield one representative per ring-automorphism class of the
    towerless, non-periodic k-robot configurations on an n-ring, as
    canonical `RingConfig`s: in the order in which placements with a robot
    on node 0, in `itertools.combinations` order, first meet each class."""
    validate_params(n, k, relaxed)
    for text in _aperiodic_bracelets(n, k):
        yield RingConfig.from_string(text)


# ---------------------------------------------------------------------------
# trace checks: one pass over the events
# ---------------------------------------------------------------------------

_P3_ENTRY = {Tag.TERMINAL_SKEW.value, Tag.TARGET.value}
# the phase of every tag string a trace may record; Unknown has none
_PHASES = {tag.value: phase for tag, phase in PHASES.items()}
# the phases whose outdated intents are bounded, built once: reading an
# Enum member is a class attribute lookup, too dear to repeat per event
_BOUNDED_PHASES = frozenset((Phase.PHASE1, Phase.PHASE2))
_PASS = Verdict.ok()
_TOWERLESS = frozenset(".1")


def check_trace(trace: Trace) -> dict[str, Verdict]:
    """The verdicts of the five `TRACE_CHECKS`, by name, from one pass.

    It judges a `Trace` from `run` or from `Trace.from_jsonl`, whose fields
    have their JSON types; their range and meaning are judged here.
    One replay re-executes the events from the initial occupancy with every
    robot's node, robot i starting on the i-th robot's node as in `run`,
    and its pending intent. It fails at step 0 when the initial occupancy
    is unreadable (`_parse_recorded`) or the header's n or k differs from
    it, else at the first event that disagrees with it, such as one naming
    a robot outside 0…k−1 or a `from` node its robot is not on, and stops
    there; the checks that read only recorded fields go on.  The replay
    confirms each event's `occ`, then its `tag`, but not its `step` or
    `round`, nor the footer's `rounds`.
    An activation whose robot has no rule fails the replay, as `run` ends
    `Stuck` there and records no event, so every pending intent is a target
    tuple.  A pending robot is outdated once another robot has moved since
    its activation, and its intent is incorrect when it has a target that
    differs from the robot's entry in the current decision table; a fresh
    "no rule" differs from every tuple.  At most one intent may be incorrect
    in Phases 1 and 2.  A fresh intent equals the fresh decision and a Stay
    is never incorrect, so the count is redone only after a move.

    Per move, the replay looks up its occupancy's decision table once.  The
    checks of the recorded fields run only on an event whose `(occ, tag)`
    differs from the previous event's: on the same pair their verdicts
    cannot change.  The replay compares its pair with the recorded one only
    then or after a move: else both equal the previous event's.
    """
    n, k = trace.n, trace.k
    pending: dict[int, tuple[int, ...]] = {}  # robot -> its targets
    incorrect, recount = 0, False
    tower = periodic = outdated = monotonic = replay = None
    occ, mismatch = _parse_recorded(trace.initial)
    if mismatch is None and (len(occ), sum(occ)) != (n, k):
        mismatch = "header n or k differs from initial"
    if mismatch is None:
        (canon, canon_tag), table = _trace_fields(occ), _decisions(occ)
        positions = _start_positions(occ)
    else:
        replay = Verdict.fail(0, mismatch, trace.initial)
        outdated = Verdict.fail(0, f"replay failed: {mismatch}", trace.initial)
    reached_p3 = False
    seen: set[str] = set()
    last_occ = last_tag = object()  # equal to no recorded field
    for step, kind, robot, src, dst, occ_s, tag, _round in trace.events:
        changed = occ_s != last_occ or tag != last_tag
        if changed:
            last_occ, last_tag = occ_s, tag
            phase = _PHASES.get(tag)
            towerless = _TOWERLESS.issuperset(occ_s)
            if tower is None:
                if tag in _P3_ENTRY:
                    tower = _PASS
                elif not towerless:
                    tower = Verdict.fail(step, "tower before Phase 3", occ_s)
            if periodic is None and occ_s not in seen:
                seen.add(occ_s)
                # a robot string equal to one of its own rotations
                if towerless and "1" in occ_s and occ_s in (occ_s + occ_s)[1:-1]:
                    periodic = Verdict.fail(step, "periodic configuration reached", occ_s)
            if monotonic is None:
                if phase is None:
                    monotonic = Verdict.fail(step, "unknown state reached", occ_s)
                elif phase is Phase.PHASE3 or phase is Phase.DONE:
                    reached_p3 = True
                elif reached_p3:
                    monotonic = Verdict.fail(step, f"fell back to {tag}", occ_s)
        if replay is not None:
            continue
        mismatch = None
        if not 0 <= robot < k:
            mismatch = "no such robot"
        elif kind == "activate":
            if robot in pending:
                mismatch = "activate with intent pending"
            elif src != positions[robot]:
                mismatch = "robot is not on its from node"
            elif dst is not None:
                mismatch = "activate with a target node"
            elif table[src] is _NO_RULE:
                mismatch = "activate with no rule"
            else:
                pending[robot] = table[src]
        elif kind == "fire":
            if robot not in pending:
                mismatch = "fire without intent"
            elif src != positions[robot]:
                mismatch = "robot is not on its from node"
            else:
                target = pending.pop(robot)
                if dst is None:
                    if target:
                        mismatch = "intent to move fired as stay"
                elif dst not in target:
                    mismatch = "fired move differs from intent"
                else:
                    occ = _move_one(occ, src, dst)
                    (canon, canon_tag), table = _trace_fields(occ), _decisions(occ)
                    positions[robot] = dst
                    recount = changed = True
        else:
            mismatch = f"unknown event kind {kind!r}"
        if mismatch is None and changed:
            if canon != occ_s:
                mismatch = "occupancy diverged from recording"
            elif canon_tag != tag:
                mismatch = "tag diverged from recording"
        if mismatch is not None:
            replay = Verdict.fail(step, mismatch, occ_s)
            if outdated is None:
                outdated = Verdict.fail(step, f"replay failed: {mismatch}", occ_s)
        elif outdated is None:
            if phase is None:
                outdated = Verdict.fail(step, "unknown state reached", occ_s)
            elif phase in _BOUNDED_PHASES and len(pending) > 1:
                if recount:
                    incorrect = sum(
                        1 for robot, target in pending.items()
                        if target and table[positions[robot]] != target
                    )
                    recount = False
                if incorrect > 1:
                    outdated = Verdict.fail(
                        step, f"{incorrect} outdated robots with incorrect targets", occ_s
                    )
    verdicts = dict(no_tower_before_target=tower, never_periodic=periodic,
                    outdated_bound=outdated, phase_monotonic=monotonic, replay=replay)
    return {name: _PASS if v is None else v for name, v in verdicts.items()}


def _parse_recorded(text: str) -> tuple[tuple[int, ...] | None, str | None]:
    """A recorded occupancy string's tuple and None, or None and why it
    cannot be read: it does not parse, or has no robot."""
    try:
        occ = parse_occupancy(text)
    except ValueError as exc:
        return None, str(exc)
    return (occ, None) if any(occ) else (None, "occupancy has no robot")


def replay_trace(trace: Trace) -> Verdict:
    """Re-execute a trace and confirm every recorded occupancy string and tag."""
    return check_trace(trace)["replay"]


def check_no_tower_before_target(trace: Trace) -> Verdict:
    """No tower before the first TerminalSkew or Target state."""
    return check_trace(trace)["no_tower_before_target"]


def check_never_periodic(trace: Trace) -> Verdict:
    """No towerless configuration along the trace is periodic."""
    return check_trace(trace)["never_periodic"]


def check_outdated_bound(trace: Trace) -> Verdict:
    """At most one outdated robot with an incorrect target in Phases 1 and 2."""
    return check_trace(trace)["outdated_bound"]


def check_phase_monotonic(trace: Trace) -> Verdict:
    """Once a trace reaches Phase 3 it never returns to Phase 1 or 2."""
    return check_trace(trace)["phase_monotonic"]


def check_round_bound(trace: Trace, c: int = 20) -> Verdict:
    """The run must gather within c·n² asynchronous rounds."""
    if trace.outcome != "Gathered":
        return Verdict.fail(None, f"outcome {trace.outcome}, not Gathered", None)
    bound = c * trace.n * trace.n
    if trace.rounds > bound:
        return Verdict.fail(None, f"{trace.rounds} rounds > {bound}", None)
    return Verdict.ok()


def check_local_global_consistency(trace: Trace) -> Verdict:
    """On every configuration of the trace, each robot's decision from its
    view (`decide_targets`) must match the global rule (`enabled_moves`):
    the same targets, or stay.  A robot with no rule while the global rule
    applies fails, as does an occupancy that cannot be read."""
    occ, problem = _parse_recorded(trace.initial)
    if problem is not None:
        return Verdict.fail(0, problem, trace.initial)
    seen = set()
    for step, occ_s in [(0, _trace_fields(occ)[0])] + [(ev.step, ev.occ) for ev in trace.events]:
        if occ_s in seen:
            continue
        occ, problem = _parse_recorded(occ_s)
        if problem is not None:
            return Verdict.fail(step, problem, occ_s)
        seen.add(occ_s)
        a = _analyze(occ)
        if a.tag is Tag.UNKNOWN:
            return Verdict.fail(step, "unknown state reached", occ_s)
        for node, local in enumerate(_decisions(occ)):
            if local is _EMPTY:
                continue
            want = a.moves.get(node, ())
            if local != want:
                return Verdict.fail(
                    step, f"robot at {node}: local {local!r} vs global {want!r}", occ_s
                )
    return Verdict.ok()


# ---------------------------------------------------------------------------
# exhaustive exploration of scheduler choices
# ---------------------------------------------------------------------------


# An explorer state is a pair (occ, pending): the occupancy tuple and the
# pending intents as (node, ascending target nodes) pairs, sorted by node.

# States from which every branch ends gathered, with no cycle and no dead
# end; every state reachable from one has the same property, so any
# unbudgeted search may skip them, whatever start it began from. Bounded
# like the rule engine's memos and emptied with them: its entries follow
# from the rules.
_PROVEN: set[tuple] = set()
_CLEAR_HOOKS.append(_PROVEN.clear)
_MAX_STATES = 200_000  # the most states one search may prove


def _successors(state: tuple):
    """All (action-label, next-state) pairs, activating robots on their own
    decisions (`_decisions`), as a simulator run does.  Activating a robot
    whose decision is Stay never changes any configuration, so those
    actions are omitted.  An idle robot with no rule leaves no successor:
    activating it ends a run `Stuck`."""
    occ, pending = state
    out = []
    busy = {node for node, _ in pending}
    for node, entry in enumerate(_decisions(occ)):
        if not entry or entry is _EMPTY or node in busy:
            continue
        if entry is _NO_RULE:
            return []
        out.append((("activate", node), (occ, tuple(sorted(pending + ((node, entry),))))))
    for i, (node, targets) in enumerate(pending):
        rest = pending[:i] + pending[i + 1:]
        for t in targets:
            out.append((("fire", node, t), (_move_one(occ, node, t), rest)))
    return out


def _all_paths(start: tuple, leaf, dead_end, budget: float = math.inf) -> Verdict:
    """Depth-first search over every scheduler choice from `start`.

    `leaf(state, depth)` judges a state reached after `depth` actions before
    it is expanded: a verdict ends the branch there (a failing one ends the
    search), None expands the state.  A state with no successor fails with
    `dead_end(state, depth)` (see `_successors`).
    A state met again on the current branch fails too, since a scheduler
    could repeat that cycle forever; without this check the stack would
    grow without end.

    The memo maps each expanded state to the largest remaining action
    budget it was proven for.  An unbounded `budget` runs every branch to
    its end, as `check_all_paths_gather` does: such a search also skips the
    states in `_PROVEN` and, when it ends, passing or not, adds the ones it
    proved.  A search fails rather than expand a state once it has proven
    `_MAX_STATES` states itself.
    """
    memo: dict[tuple, float] = {}
    shared = _PROVEN if budget == math.inf else frozenset()
    on_path: set[tuple] = set()
    stack: list = []  # (state, its successor iterator) for each state on the path

    def enter(state: tuple) -> Verdict | None:
        depth = len(stack)
        verdict = leaf(state, depth)
        if verdict is not None:
            return verdict
        if state in shared or memo.get(state, -1) >= budget - depth:
            return _PASS
        if state in on_path:
            return Verdict.fail(
                depth,
                "configuration repeated on one branch: a scheduler can cycle forever",
                format_occupancy(state[0]),
            )
        if len(memo) >= _MAX_STATES:
            return Verdict.fail(None, f"state budget {_MAX_STATES} exceeded", None)
        succs = _successors(state)
        if not succs:
            return dead_end(state, depth)
        on_path.add(state)
        stack.append((state, iter(succs)))
        return None

    def search() -> Verdict:
        verdict = enter(start)
        if verdict is not None:
            return verdict
        while stack:
            state, succs = stack[-1]
            succ = next(succs, None)
            if succ is None:
                stack.pop()
                on_path.discard(state)
                memo[state] = budget - len(stack)
                continue
            _label, nxt = succ
            verdict = enter(nxt)
            if verdict is not None and not verdict.passed:
                return verdict
        return _PASS

    verdict = search()
    if shared is _PROVEN:
        if len(_PROVEN) + len(memo) > _CACHE_SIZE:
            _PROVEN.clear()  # loses work only: every entry is a proof
        # past the bound keep the last proven: nearest the start, they cover most
        _PROVEN.update(
            memo if len(memo) <= _CACHE_SIZE else itertools.islice(reversed(memo), _CACHE_SIZE)
        )
    return verdict


def check_all_paths_gather(cfg: RingConfig) -> Verdict:
    """Explore EVERY scheduler choice from `cfg`, robots deciding from their
    own views as in a simulator run, and demand that each branch ends
    gathered.  A branch fails, at its depth, on a state where no robot can
    move or an idle robot has no rule, or on a repeated configuration (a
    scheduler could cycle forever).  Stale Stay cycles never change
    configurations and are omitted.  `cfg` needs n odd and k even.

    The states a search proves (every branch from them gathers) are kept
    across calls, so searching every start of a grid proves each state
    once; `protocol.clear_caches()` forgets them.  A call fails when it
    would expand a state after proving `_MAX_STATES`; states proven by an
    earlier call do not count."""
    n = cfg.n
    validate_params(n, cfg.k, relaxed=True)

    def gathered(state: tuple, _depth: int) -> Verdict | None:
        return _PASS if state[0].count(0) == n - 1 else None

    def dead_end(state: tuple, depth: int) -> Verdict:
        return Verdict.fail(depth, "branch ends without gathering", format_occupancy(state[0]))

    return _all_paths((cfg.occ, ()), gathered, dead_end)


# ---------------------------------------------------------------------------
# phase-2 transition conformance
# ---------------------------------------------------------------------------


class TransitionSpec(NamedTuple):
    targets: frozenset[Tag]
    allowed: frozenset[Tag]
    depth: int


def _transition_table(k: int) -> dict[Tag, TransitionSpec]:
    short = 8  # covers two full waves of a two-robot rule: the O(1) lemmas
    long = 3 * k  # per-round-progress lemmas: O(k) rounds
    t = lambda targets, allowed, depth: TransitionSpec(
        frozenset(targets), frozenset(allowed), depth
    )
    return {
        Tag.START: t({Tag.SPLIT_S}, {Tag.START, Tag.EVEN_T}, short),
        Tag.EVEN_T: t({Tag.SPLIT_S}, {Tag.EVEN_T}, short),
        Tag.SPLIT_S: t(
            {Tag.START, Tag.TERMINAL},
            {Tag.SPLIT_S, Tag.SPLIT_A, Tag.ODD_T},
            long,
        ),
        Tag.SPLIT_A: t({Tag.SPLIT_S}, {Tag.SPLIT_A}, short),
        Tag.ODD_T: t({Tag.START, Tag.TERMINAL}, {Tag.ODD_T}, short),
        Tag.BLOCK: t({Tag.TRI_BLOCK_S}, {Tag.BLOCK, Tag.BIBLOCK}, short),
        Tag.BIBLOCK: t({Tag.TRI_BLOCK_S}, {Tag.BIBLOCK}, short),
        # a TriBlockS middle of size 2 firing one border leaves the
        # (k/2, 1, k/2-1) shape, which the definitions class as OddT; its
        # rule performs the same catching-up move as TriBlockA's
        Tag.TRI_BLOCK_S: t(
            {Tag.START}, {Tag.TRI_BLOCK_S, Tag.TRI_BLOCK_A, Tag.ODD_T}, long
        ),
        Tag.TRI_BLOCK_A: t({Tag.START, Tag.TRI_BLOCK_S}, {Tag.TRI_BLOCK_A}, short),
        Tag.TERMINAL: t({Tag.TARGET}, {Tag.TERMINAL, Tag.TERMINAL_SKEW}, short),
    }


def check_phase2_transitions(type_instances) -> Verdict:
    """For each constructed instance, explore every depth-bounded scheduler
    choice and demand that all paths reach the lemma's successor set while
    visiting only its allowed intermediate states.

    On arrival from Start the leader hole must have shrunk by two; on
    arrival from SplitS the slave hole must have grown by two.
    """
    instances = dict(type_instances)
    for tag, cfg in instances.items():
        tag = Tag(tag)
        actual = classify_protocol_state(cfg).tag
        if actual is not tag:
            return Verdict.fail(
                None, f"instance mislabeled: {tag.value} classifies {actual.value}",
                cfg.to_string(),
            )
        spec = _transition_table(cfg.k).get(tag)
        if spec is None:
            if tag is Tag.GATHERED:
                continue
            return Verdict.fail(None, f"no transition spec for {tag.value}", cfg.to_string())
        verdict = _check_one_transition(cfg, tag, spec)
        if not verdict.passed:
            return verdict
    return Verdict.ok()


def _arrival_ok(tag: Tag, start_cfg: RingConfig, arrival: RingConfig) -> str | None:
    if tag is Tag.START:
        before = classify_symmetry(start_cfg).leader_hole
        after = classify_symmetry(arrival).leader_hole
        if before and after and after.size != before.size - 2:
            return f"leader hole {before.size} -> {after.size}, expected -2"
    if tag is Tag.SPLIT_S:
        before = classify_symmetry(start_cfg).slave_hole
        after = classify_symmetry(arrival).slave_hole
        if before and after and after.size != before.size + 2:
            return f"slave hole {before.size} -> {after.size}, expected +2"
    return None


def _check_one_transition(cfg, tag, spec) -> Verdict:
    n, depth = cfg.n, spec.depth

    def judge(state: tuple, used: int) -> Verdict | None:
        occ = state[0]
        st_tag = _analyze(occ).tag
        if st_tag in spec.targets:
            arrival = RingConfig(n, occ)
            problem = _arrival_ok(tag, cfg, arrival)
            if problem:
                return Verdict.fail(used, problem, arrival.to_string())
            return Verdict.ok()
        if st_tag not in spec.allowed:
            return Verdict.fail(
                used,
                f"{tag.value}: reached {st_tag.value}, outside allowed set",
                format_occupancy(occ),
            )
        if used == depth:
            return Verdict.fail(
                used,
                f"{tag.value}: target set not reached within {depth} actions",
                format_occupancy(occ),
            )
        return None

    def dead_end(state: tuple, used: int) -> Verdict:
        return Verdict.fail(used, f"{tag.value}: dead end", format_occupancy(state[0]))

    return _all_paths((cfg.occ, ()), judge, dead_end, budget=depth)


# ---------------------------------------------------------------------------
# instance builders for the nine special Phase-2 types and Terminal
# ---------------------------------------------------------------------------


def _cfg_from_layout(n: int, pieces) -> RingConfig:
    """Build a configuration from alternating (robots, hole) run lengths,
    starting at node 0 with a robot run."""
    occ = [0] * n
    pos = 0
    for robots, hole in pieces:
        for _ in range(robots):
            occ[pos % n] = 1
            pos += 1
        pos += hole
    if pos % n != 0:
        raise ValueError(f"layout covers {pos} of {n} nodes")
    return RingConfig(n, tuple(occ))


def _one_move(cfg: RingConfig) -> RingConfig:
    """Move the robot on the lowest node whose decision is a move to its
    first target (the scheduler activates a single robot)."""
    table = _decisions(cfg.occ)
    node = min(v for v, e in enumerate(table) if e and type(e) is tuple)
    return RingConfig(cfg.n, _move_one(cfg.occ, node, table[node][0]))


def build_phase2_instances(n: int, k: int) -> dict[Tag, RingConfig]:
    """One instance of each special Phase-2 type plus Terminal at (n, k).
    Skewed types are derived from their symmetric siblings by letting a
    single robot move, exactly as an asynchronous scheduler would."""
    validate_params(n, k)
    spare = n - k  # total empty nodes, odd
    half = k // 2
    out: dict[Tag, RingConfig] = {}

    out[Tag.BLOCK] = _cfg_from_layout(n, [(k, spare)])
    out[Tag.BIBLOCK] = _one_move(out[Tag.BLOCK])
    out[Tag.TRI_BLOCK_S] = _cfg_from_layout(n, [(1, 1), (k - 2, 1), (1, spare - 2)])
    out[Tag.TRI_BLOCK_A] = _one_move(out[Tag.TRI_BLOCK_S])
    out[Tag.START] = _cfg_from_layout(n, [(half, 3), (half, spare - 3)])
    out[Tag.EVEN_T] = _one_move(out[Tag.START])
    # SplitS with slave blocks of size 2 and a leader hole of size 1
    out[Tag.SPLIT_S] = _cfg_from_layout(
        n, [(half - 2, 1), (2, spare - 3), (2, 1), (half - 2, 1)]
    )
    out[Tag.SPLIT_A] = _one_move(out[Tag.SPLIT_S])
    # singleton slave blocks: firing one of them yields OddT
    split_s_thin = _cfg_from_layout(
        n, [(half - 1, 1), (1, spare - 3), (1, 1), (half - 1, 1)]
    )
    out[Tag.ODD_T] = _one_move(split_s_thin)
    out[Tag.TERMINAL] = _cfg_from_layout(n, [(half, 1), (half, spare - 1)])
    return out


# ---------------------------------------------------------------------------
# view lemma sweep
# ---------------------------------------------------------------------------


def check_lemma1_views(n_max: int = 11) -> Verdict:
    """Exhaustively over towerless configurations with n <= n_max: rigid
    ones give pairwise distinct views; symmetric non-periodic ones share
    each view between at most two robots and report exactly one axis."""
    for n in range(1, n_max + 1):
        for bits in range(1, 1 << n):
            occ = tuple((bits >> i) & 1 for i in range(n))
            cfg = RingConfig(n, occ)
            info = classify_symmetry(cfg)
            if info.periodic:
                continue
            views = {}
            for v in cfg.occupied:
                views.setdefault(compute_view(cfg, v).dists, []).append(v)
            if info.rigid:
                if any(len(nodes) > 1 for nodes in views.values()):
                    return Verdict.fail(None, "rigid with duplicate views", cfg.to_string())
            else:
                if any(len(nodes) > 2 for nodes in views.values()):
                    return Verdict.fail(
                        None, "symmetric view shared by >2 robots", cfg.to_string()
                    )
                if info.axis_node is None and n % 2 == 1:
                    return Verdict.fail(None, "symmetric without axis", cfg.to_string())
    return Verdict.ok()


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


def _witness(verdict: Verdict) -> dict:
    v = verdict.violation
    return {
        "step": v.step if v else None,
        "description": v.description if v else "",
        "occ": v.occ if v else None,
    }


TRACE_CHECKS = {
    "no_tower_before_target": check_no_tower_before_target,
    "never_periodic": check_never_periodic,
    "outdated_bound": check_outdated_bound,
    "phase_monotonic": check_phase_monotonic,
    "replay": replay_trace,
}


def verify_one_start(initial: RingConfig, random_seeds: int, lazy_seeds: int, c: int,
                     max_steps: int):
    """Run one initial configuration under the full scheduler battery and
    apply every trace check; returns a list of (context, name, Verdict)."""
    results: list[tuple[dict, str, Verdict]] = []
    schedules: list[tuple[str, int | None]] = [("synchronous", None)]
    schedules += [("random", s) for s in range(random_seeds)]
    schedules += [("lazy", s) for s in range(lazy_seeds)]
    for name, seed in schedules:
        trace = run(initial, builtin_scheduler(name, seed), max_steps=max_steps)
        context = {
            "initial": initial.to_string(),
            "scheduler": name,
            "seed": seed,
        }
        results.append((context, "round_bound", check_round_bound(trace, c)))
        results += [(context, cname, v) for cname, v in check_trace(trace).items()]
        if name == "synchronous":
            results.append(
                (context, "local_global_consistency", check_local_global_consistency(trace))
            )
    return results


def run_verification(
    grids=((15, 10), (17, 10)),
    random_seeds: int = 50,
    lazy_seeds: int = 10,
    c: int = 20,
    transition_ns=(15, 17, 21),
    lemma1_n_max: int = 11,
    max_steps: int = DEFAULT_MAX_STEPS,
    jobs: int | None = None,
) -> dict:
    """The full verification battery; returns the report as a dict ready
    for JSON serialization.  `jobs` > 1 fans configurations out to a
    process pool."""
    t0 = time.monotonic()
    counts: dict[str, list[int]] = {}  # check -> [passed, failed]
    verdicts = 0
    failures: list[dict] = []  # every failing verdict, in record order

    def record(name, verdict, context):
        counts.setdefault(name, [0, 0])[not verdict.passed] += 1
        if not verdict.passed:
            failures.append(dict(context, check=name, **_witness(verdict)))

    for n, k in grids:
        starts = list(enumerate_initial_configs(n, k))
        record(
            "enumeration_nonempty",
            Verdict.ok() if starts else Verdict.fail(None, "no initial configs", None),
            {"n": n, "k": k},
        )
        rest = [itertools.repeat(a) for a in (random_seeds, lazy_seeds, c, max_steps)]
        if jobs and jobs > 1:
            import concurrent.futures as cf

            with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
                batches = list(pool.map(verify_one_start, starts, *rest))
        else:
            batches = map(verify_one_start, starts, *rest)
        for batch in batches:
            for context, name, verdict in batch:
                record(name, verdict, context)
            verdicts += len(batch)

    for n in transition_ns:  # at k = 10, the smallest k the protocol allows
        instances = build_phase2_instances(n, 10)
        record("phase2_transitions", check_phase2_transitions(instances), {"n": n, "k": 10})

    record("lemma1_views", check_lemma1_views(lemma1_n_max), {"n_max": lemma1_n_max})

    elapsed = time.monotonic() - t0
    first: dict[str, dict] = {}  # check -> its first failure, without the name
    for failure in failures:
        if failure["check"] not in first:
            first[failure["check"]] = {key: v for key, v in failure.items() if key != "check"}
    report = {
        "passed": not failures,
        "checks": {
            name: {
                "passed": passed,
                "failed": failed,
                "first_counterexample": first.get(name),
            }
            for name, (passed, failed) in sorted(counts.items())
        },
        "failures": failures,
        "stats": {"wall_seconds": round(elapsed, 3), "check_results": verdicts},
    }
    return report
