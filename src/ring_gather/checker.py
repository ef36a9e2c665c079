"""Executable counterparts of the protocol's correctness lemmas.

Each check consumes a trace (or a constructed configuration set) and
returns a `Verdict`: pass, or the first violating step with a description
and the offending occupancy string.  The checks only ever look at traces
and replays of traces, never at simulator internals.

Asymptotic statements get concrete desk-scale constants, all overridable:
20·n² rounds for the whole gathering, small fixed action budgets for the
O(1) phase-2 lemmas, 3·k actions for the per-round-progress ones.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .ring import (
    RingConfig,
    canonical_form,
    classify_symmetry,
    compute_view,
    parse_occupancy,
    rotations_fixing,
)
from .protocol import (
    _CACHE_SIZE,
    _CLEAR_HOOKS,
    NoRuleError,
    Phase,
    Tag,
    _analyze,
    _decide,
    classify_protocol_state,
    decide_targets,
    enabled_moves,
    phase_of,
)
from .simulate import (
    Trace,
    TraceEvent,
    builtin_scheduler,
    intent_is_incorrect,
    run,
    validate_params,
    _canon_of,
)


@dataclass(frozen=True)
class Violation:
    step: int | None
    description: str
    occ: str | None


@dataclass(frozen=True)
class Verdict:
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
    canonical `RingConfig`s, in a deterministic order."""
    if not relaxed:
        validate_params(n, k)
    if k < 1 or k > n:
        raise ValueError("constraint violated: k must be between 1 and n")
    seen = set()
    # every class has a representative with a robot on node 0
    for rest in itertools.combinations(range(1, n), k - 1):
        cfg = RingConfig.from_positions(n, (0,) + rest)
        canon = canonical_form(cfg)
        if canon in seen:
            continue
        seen.add(canon)
        if classify_symmetry(cfg).periodic:
            continue
        yield RingConfig.from_string(canon)


# ---------------------------------------------------------------------------
# trace checks: one pass over the events
# ---------------------------------------------------------------------------

_P3_ENTRY = {Tag.TERMINAL_SKEW.value, Tag.TARGET.value}
# the phase of every tag string a trace may record; Unknown has none
_PHASES = {tag.value: phase_of(tag) for tag in Tag if tag is not Tag.UNKNOWN}
_PASS = Verdict.ok()
_TOWERLESS = frozenset(".1")


def check_trace(trace: Trace) -> dict[str, Verdict]:
    """The verdicts of the five `TRACE_CHECKS`, by name, from one pass.

    One replay re-executes the events from the initial occupancy with every
    robot's pending intent (its node and decision). It fails at the first
    event that disagrees with it and stops there; the checks that read only
    recorded fields go on. At most one pending intent may be incorrect
    (`intent_is_incorrect`) in Phases 1 and 2; a fresh intent equals the
    fresh decision, so the count is redone only after a robot moves, an
    intent is removed, or a decision finds no rule.
    """
    n = trace.n
    occ = list(parse_occupancy(trace.initial))
    occ_t = tuple(occ)
    canon = _canon_of(occ_t)
    pending: dict[int, tuple[int, object]] = {}  # robot -> (node, target)
    incorrect, recount = 0, False
    tower = periodic = outdated = monotonic = replay = None
    reached_p3 = False
    seen: set[str] = set()
    for step, kind, robot, src, dst, occ_s, tag, _round in trace.events:
        phase = _PHASES.get(tag)
        if tower is None:
            if tag in _P3_ENTRY:
                tower = _PASS
            elif not _TOWERLESS.issuperset(occ_s):
                tower = Verdict.fail(step, "tower before Phase 3", occ_s)
        if periodic is None and occ_s not in seen:
            seen.add(occ_s)
            towerless = "1" in occ_s and _TOWERLESS.issuperset(occ_s)
            if towerless and rotations_fixing(parse_occupancy(occ_s)):
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
        if kind == "activate":
            if robot in pending:
                mismatch = "activate with intent pending"
            elif not 0 <= src < n:
                mismatch = "activate from a node off the ring"
            elif not occ[src]:
                mismatch = "activate from an empty node"
            else:
                try:
                    pending[robot] = (src, _decide(occ_t, src))
                except NoRuleError:
                    pending[robot] = (src, "no-rule")
                    recount = True
            if dst is not None:
                mismatch = mismatch or "activate with a target node"
        elif kind == "fire":
            entry = pending.pop(robot, None)
            recount = True
            if entry is None:
                mismatch = "fire without intent"
            elif dst is not None:
                node, target = entry
                if not 0 <= dst < n:
                    mismatch = "fire to a node off the ring"
                elif node != src or dst not in (
                    target if isinstance(target, tuple) else (target,)
                ):
                    mismatch = "fired move differs from intent"
                elif not occ[src]:
                    mismatch = "fire from an empty node"
                else:
                    occ[src] -= 1
                    occ[dst] += 1
                    occ_t = tuple(occ)
                    canon = _canon_of(occ_t)
            elif entry[1] is not None:
                mismatch = "intent to move fired as stay"
        else:
            mismatch = f"unknown event kind {kind!r}"
        if mismatch is None and canon != occ_s:
            mismatch = "occupancy diverged from recording"
        if mismatch is not None:
            replay = Verdict.fail(step, mismatch, occ_s)
            if outdated is None:
                outdated = Verdict.fail(step, f"replay failed: {mismatch}", occ_s)
        elif outdated is None:
            if phase is None:
                outdated = Verdict.fail(step, "unknown state reached", occ_s)
            elif phase in (Phase.PHASE1, Phase.PHASE2) and len(pending) > 1:
                if recount:
                    try:
                        incorrect = sum(
                            intent_is_incorrect(occ_t, node, target)
                            for node, target in pending.values()
                        )
                    except ValueError:  # no view from an empty node
                        incorrect = None
                    recount = False
                if incorrect is None:
                    outdated = Verdict.fail(step, "pending intent on an empty node", occ_s)
                elif incorrect > 1:
                    outdated = Verdict.fail(
                        step, f"{incorrect} outdated robots with incorrect targets", occ_s
                    )
    verdicts = dict(no_tower_before_target=tower, never_periodic=periodic,
                    outdated_bound=outdated, phase_monotonic=monotonic, replay=replay)
    return {name: _PASS if v is None else v for name, v in verdicts.items()}


def replay_trace(trace: Trace) -> Verdict:
    """Re-execute a trace and confirm every recorded occupancy string."""
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
    """On every configuration of the trace, the per-view decision must
    match the global rule for every robot."""
    seen = set()
    for ev in [_initial_event(trace)] + trace.events:
        occ = ev.occ
        if occ in seen:
            continue
        seen.add(occ)
        cfg = RingConfig.from_string(occ)
        tag = classify_protocol_state(cfg).tag
        if tag is Tag.UNKNOWN:
            return Verdict.fail(ev.step, "unknown state reached", occ)
        if tag is Tag.GATHERED:
            continue
        try:
            intents = {m.robot_node: frozenset(m.targets) for m in enabled_moves(cfg)}
        except NoRuleError:
            return Verdict.fail(ev.step, "no rule for visited state", occ)
        for node in cfg.occupied:
            local = decide_targets(cfg, node)
            if local is None:
                got = None
            elif isinstance(local, tuple):
                got = frozenset(local)
            else:
                got = frozenset((local,))
            want = None if cfg.occ[node] >= 2 else intents.get(node)
            if got != want:
                return Verdict.fail(
                    ev.step,
                    f"robot at {node}: local {local!r} vs global {want!r}",
                    occ,
                )
    return Verdict.ok()


def _initial_event(trace: Trace):
    cfg = RingConfig.from_string(trace.initial)
    occ = canonical_form(cfg)
    tag = classify_protocol_state(cfg).tag.value
    return TraceEvent(0, "initial", -1, -1, None, occ, tag, 0)


# ---------------------------------------------------------------------------
# exhaustive exploration of scheduler choices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _XState:
    occ: tuple[int, ...]
    pending: tuple  # of (node, sorted target nodes), sorted by node


def _xstate(cfg: RingConfig) -> _XState:
    return _XState(cfg.occ, ())


# States from which every branch ends gathered, with no cycle and no dead
# end; every state reachable from one has the same property, so any
# unbudgeted search may skip them, whatever start it began from. Bounded
# like the rule engine's memos and emptied with them: its entries follow
# from the rules.
_PROVEN: set[_XState] = set()
_CLEAR_HOOKS.append(_PROVEN.clear)


def _successors(n: int, state: _XState):
    """All (action-label, next-state) pairs under enabled activations and
    pending fires.  Activating a robot whose decision is Stay never changes
    any configuration, so those actions are omitted; every reachable
    configuration sequence is preserved."""
    occ, pending = state.occ, state.pending
    out = []
    a = _analyze(occ)
    if a.tag is not Tag.GATHERED and a.tag is not Tag.UNKNOWN:
        busy = {node for node, _ in pending}
        for node in sorted(a.moves):
            if occ[node] >= 2 or node in busy:
                continue  # tower robots never move
            entry = (node, tuple(sorted(a.moves[node])))
            out.append((("activate", node), _XState(occ, tuple(sorted(pending + (entry,))))))
    for i, (node, targets) in enumerate(pending):
        rest = pending[:i] + pending[i + 1:]
        for t in targets:
            nxt = list(occ)
            nxt[node] -= 1
            nxt[t] += 1
            out.append((("fire", node, t), _XState(tuple(nxt), rest)))
    return out


def _all_paths(n: int, start: _XState, leaf, dead_end, budget: float = math.inf,
               max_states: int | None = None) -> Verdict:
    """Depth-first search over every scheduler choice from `start`.

    `leaf(state, depth)` judges a state reached after `depth` actions before
    it is expanded: a verdict ends the branch there (a failing one ends the
    search), None expands the state.  A state with no successor, or with no
    applicable rule, fails with `dead_end(state, depth)`.  A state met again
    on the current branch fails too, since a scheduler could repeat that
    cycle forever; without this check the stack would grow without end.

    The memo maps each expanded state to the largest remaining action
    budget it was proven for.  An unbounded `budget` runs every branch to
    its end, as `check_all_paths_gather` does: such a search also skips the
    states in `_PROVEN` and, when it ends, passing or not, adds the ones it
    proved.  A search fails rather than expand a state once it has proven
    `max_states` states itself.
    """
    memo: dict[_XState, float] = {}
    shared = _PROVEN if budget == math.inf else frozenset()
    on_path: set[_XState] = set()
    stack: list = []  # (state, its successor iterator) for each state on the path

    def enter(state: _XState) -> Verdict | None:
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
                RingConfig(n, state.occ).to_string(),
            )
        if max_states is not None and len(memo) >= max_states:
            return Verdict.fail(None, f"state budget {max_states} exceeded", None)
        try:
            succs = _successors(n, state)
        except NoRuleError:
            succs = []
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


def check_all_paths_gather(cfg: RingConfig, max_states: int = 200_000) -> Verdict:
    """Explore EVERY scheduler choice from `cfg` and demand that each
    branch ends gathered.  Every explored action moves a robot eventually
    (stale Stay cycles never change configurations and are omitted).  A
    branch fails when it reaches a state with no applicable rule or repeats
    a configuration (a scheduler could cycle forever).

    The states a search proves (every branch from them gathers) are kept
    across calls, so searching every start of a grid proves each state
    once; `protocol.clear_caches()` forgets them.  `max_states` bounds the
    states this call adds to that table: the search fails when it would
    expand a state after proving that many.  States proven by an earlier
    call do not count."""
    n = cfg.n

    def gathered(state: _XState, _depth: int) -> Verdict | None:
        return _PASS if state.occ.count(0) == n - 1 else None

    def dead_end(state: _XState, _depth: int) -> Verdict:
        return Verdict.fail(
            None, "branch ends without gathering", RingConfig(n, state.occ).to_string()
        )

    return _all_paths(n, _xstate(cfg), gathered, dead_end, max_states=max_states)


# ---------------------------------------------------------------------------
# phase-2 transition conformance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionSpec:
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


def check_phase2_transitions(type_instances, depth_override: int | None = None) -> Verdict:
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
        depth = depth_override or spec.depth
        verdict = _check_one_transition(cfg, tag, spec, depth)
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


def _check_one_transition(cfg, tag, spec, depth) -> Verdict:
    n = cfg.n

    def judge(state: _XState, used: int) -> Verdict | None:
        st_tag = _analyze(state.occ).tag
        if st_tag in spec.targets:
            arrival = RingConfig(n, state.occ)
            problem = _arrival_ok(tag, cfg, arrival)
            if problem:
                return Verdict.fail(used, problem, arrival.to_string())
            return Verdict.ok()
        if st_tag not in spec.allowed:
            return Verdict.fail(
                used,
                f"{tag.value}: reached {st_tag.value}, outside allowed set",
                RingConfig(n, state.occ).to_string(),
            )
        if used == depth:
            return Verdict.fail(
                used,
                f"{tag.value}: target set not reached within {depth} actions",
                RingConfig(n, state.occ).to_string(),
            )
        return None

    def dead_end(state: _XState, used: int) -> Verdict:
        return Verdict.fail(
            used, f"{tag.value}: dead end", RingConfig(n, state.occ).to_string()
        )

    return _all_paths(n, _xstate(cfg), judge, dead_end, budget=depth)


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


def _one_move(cfg: RingConfig, pick=min) -> RingConfig:
    """Apply one enabled move (the scheduler activates a single robot)."""
    intents = sorted(enabled_moves(cfg), key=lambda m: m.robot_node)
    if not intents:
        raise ValueError("no enabled move")
    chosen = pick(intents, key=lambda m: m.robot_node)
    occ = list(cfg.occ)
    occ[chosen.robot_node] -= 1
    occ[sorted(chosen.targets)[0]] += 1
    return RingConfig(cfg.n, tuple(occ))


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


@dataclass
class CheckStats:
    passed: int = 0
    failed: int = 0
    first_failure: dict | None = None

    def record(self, verdict: Verdict, context: dict):
        if verdict.passed:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = dict(context, **_witness(verdict))


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
                     max_steps: int, consistency: bool = True):
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
        if consistency and name == "synchronous":
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
    transition_k: int = 10,
    lemma1_n_max: int = 11,
    max_steps: int = 400_000,
    jobs: int | None = None,
) -> dict:
    """The full verification battery; returns the report as a dict ready
    for JSON serialization.  `jobs` > 1 fans configurations out to a
    process pool."""
    t0 = time.monotonic()
    stats: dict[str, CheckStats] = {}
    runs = 0
    failures: list[dict] = []  # every failing verdict, in record order

    def record(name, verdict, context):
        stats.setdefault(name, CheckStats()).record(verdict, context)
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
            runs += len(batch)

    for n in transition_ns:
        instances = build_phase2_instances(n, transition_k)
        record(
            "phase2_transitions",
            check_phase2_transitions(instances),
            {"n": n, "k": transition_k},
        )

    record("lemma1_views", check_lemma1_views(lemma1_n_max), {"n_max": lemma1_n_max})

    elapsed = time.monotonic() - t0
    report = {
        "passed": all(s.failed == 0 for s in stats.values()),
        "checks": {
            name: {
                "passed": s.passed,
                "failed": s.failed,
                "first_counterexample": s.first_failure,
            }
            for name, s in sorted(stats.items())
        },
        "failures": failures,
        "stats": {"wall_seconds": round(elapsed, 3), "check_results": runs},
    }
    return report
