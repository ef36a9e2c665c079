"""CORDA-style execution of the gathering protocol.

Robots run look/compute/move cycles driven by an adversarial scheduler.
Moves are instantaneous, so a snapshot always shows robots on nodes, but the
scheduler may interleave cycles arbitrarily: a robot can move long after the
snapshot it computed from, possibly with a target that no longer matches
what a fresh snapshot would give (an *outdated robot*).

The simulator fuses Look and Compute into a single `activate` action that
records a pending intent, and executes the move in a separate `fire` action.
The hazard the model cares about is exactly the gap between snapshot and
move; splitting Look from Compute would add no observable behaviour.

Robot ids exist only here, for scheduling and fairness bookkeeping.  No
decision ever sees them: intents are computed from views alone.

Fairness is enforced as a bounded delay: every robot completes a full cycle
at least once every `fairness_bound` actions, schedulers that starve a robot
get overridden by a forced action on it.  An asynchronous round has elapsed
once every robot finished at least one move phase (a Stay still counts as a
completed move phase).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import NamedTuple

from .ring import RingConfig, canonical_form, classify_symmetry
from .protocol import (
    PHASE3_TAGS,
    NoRuleError,
    Tag,
    _CACHE_SIZE,
    _analyze,
    classify_protocol_state,
    decide_targets,
)

DEFAULT_MAX_STEPS = 400_000


class SchedulerAction(NamedTuple):
    """`activate` takes a snapshot for an idle robot; `fire` executes a
    pending intent, with `direction` naming the chosen target node when the
    intent left the direction to the scheduler."""

    kind: str  # "activate" | "fire"
    robot: int
    direction: int | None = None


@dataclass(frozen=True)
class PendingIntent:
    """A computed but not yet executed move.

    `target` is None for Stay, a node index, or a pair of node indices when
    the robot's two directions look equally good and the scheduler decides.
    The robot is *outdated* once another robot has moved since its snapshot,
    and has an *incorrect target* when a fresh computation on the current
    configuration would decide differently (see `intent_is_incorrect`).
    """

    robot: int
    snapshot_step: int
    snapshot_moves: int
    snapshot_occ: tuple[int, ...]
    target: int | tuple[int, int] | None

    def is_outdated(self, state: "SimState") -> bool:
        return state.move_count > self.snapshot_moves

    def is_incorrect(self, state: "SimState") -> bool:
        return intent_is_incorrect(
            RingConfig(state.n, state.occ), state.positions[self.robot], self.target
        )


def intent_is_incorrect(cfg: RingConfig, node: int, target) -> bool:
    """Whether a pending intent of the robot on `node` differs from a fresh
    decision on `cfg`.

    A pending Stay is never incorrect: firing it changes nothing and the
    robot then re-observes, so only intents with a target destination can
    be outdated with an incorrect target.  A fresh decision with no
    applicable rule counts as incorrect.
    """
    if target is None:
        return False
    try:
        now = decide_targets(cfg, node)
    except NoRuleError:
        return True
    return _normalize_target(now) != _normalize_target(target)


def _normalize_target(t):
    if t is None:
        return None
    if isinstance(t, tuple):
        return tuple(sorted(t))
    return t


@dataclass(frozen=True)
class SimState:
    """Immutable snapshot of a simulation: configuration, per-robot
    positions and pending intents, plus step/round accounting."""

    n: int
    occ: tuple[int, ...]
    positions: tuple[int, ...]
    pending: tuple[PendingIntent | None, ...]
    step: int
    round: int
    moved_this_round: frozenset[int]
    move_count: int
    last_cycle_step: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.positions)

    @property
    def config(self) -> RingConfig:
        return RingConfig(self.n, self.occ)

    @classmethod
    def initial(cls, cfg: RingConfig) -> "SimState":
        positions = []
        for node, count in enumerate(cfg.occ):
            positions.extend([node] * count)
        k = len(positions)
        return cls(
            n=cfg.n,
            occ=cfg.occ,
            positions=tuple(positions),
            pending=(None,) * k,
            step=0,
            round=0,
            moved_this_round=frozenset(),
            move_count=0,
            last_cycle_step=(0,) * k,
        )


class _Sim:
    """Mutable engine behind `step` and `run`."""

    __slots__ = (
        "n",
        "k",
        "occ",
        "positions",
        "pending",
        "step",
        "round",
        "moved_this_round",
        "move_count",
        "last_cycle_step",
        "_cfg",
    )

    def __init__(self, state: SimState):
        self.n = state.n
        self.k = state.k
        self.occ = list(state.occ)
        self.positions = list(state.positions)
        self.pending = list(state.pending)
        self.step = state.step
        self.round = state.round
        self.moved_this_round = set(state.moved_this_round)
        self.move_count = state.move_count
        self.last_cycle_step = list(state.last_cycle_step)
        self._cfg = None

    def freeze(self) -> SimState:
        return SimState(
            n=self.n,
            occ=tuple(self.occ),
            positions=tuple(self.positions),
            pending=tuple(self.pending),
            step=self.step,
            round=self.round,
            moved_this_round=frozenset(self.moved_this_round),
            move_count=self.move_count,
            last_cycle_step=tuple(self.last_cycle_step),
        )

    def config(self) -> RingConfig:
        if self._cfg is None:
            self._cfg = RingConfig(self.n, tuple(self.occ))
        return self._cfg

    def apply(self, action: SchedulerAction):
        """Execute one scheduler action; returns (from_node, to_node) with
        to_node None for activations and cleared Stay intents."""
        kind, robot, direction = action
        if not 0 <= robot < self.k:
            raise ValueError("scheduler contract violation: no such robot")
        node = self.positions[robot]
        self.step += 1
        if kind == "activate":
            if self.pending[robot] is not None:
                raise ValueError("scheduler contract violation: intent pending")
            target = decide_targets(self.config(), node)
            self.pending[robot] = PendingIntent(
                robot=robot,
                snapshot_step=self.step,
                snapshot_moves=self.move_count,
                snapshot_occ=tuple(self.occ),
                target=target,
            )
            return node, None
        if kind != "fire":
            raise ValueError(f"scheduler contract violation: bad kind {kind!r}")
        intent = self.pending[robot]
        if intent is None:
            raise ValueError("scheduler contract violation: nothing to fire")
        self.pending[robot] = None
        target = intent.target
        if isinstance(target, tuple):
            if direction is None or direction not in target:
                raise ValueError("scheduler contract violation: direction needed")
            target = direction
        self._complete_move_phase(robot)
        if target is None:
            return node, None
        self.occ[node] -= 1
        self.occ[target] += 1
        self.positions[robot] = target
        self.move_count += 1
        self._cfg = None
        return node, target

    def _complete_move_phase(self, robot: int):
        self.last_cycle_step[robot] = self.step
        self.moved_this_round.add(robot)
        if len(self.moved_this_round) == self.k:
            self.round += 1
            self.moved_this_round.clear()

    def gathered(self) -> bool:
        return len(set(self.positions)) == 1


def step(state: SimState, action: SchedulerAction) -> SimState:
    """Pure single-step transition; see `_Sim.apply` for the semantics."""
    sim = _Sim(state)
    sim.apply(action)
    return sim.freeze()


class TraceEvent(NamedTuple):
    step: int
    kind: str
    robot: int
    from_node: int
    to_node: int | None
    occ: str  # canonical occupancy string after the action
    tag: str
    round: int


@dataclass
class Trace:
    """Record of one run: enough to replay it and to check every lemma."""

    n: int
    k: int
    scheduler: str
    seed: int | None
    fairness_bound: int
    initial: str  # raw occupancy string of the start configuration
    events: list[TraceEvent] = field(default_factory=list)
    outcome: str = "StepLimit"  # "Gathered" | "StepLimit" | "Stuck"
    rounds: int = 0

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "n": self.n,
                    "k": self.k,
                    "scheduler": self.scheduler,
                    "seed": self.seed,
                    "fairness_bound": self.fairness_bound,
                    "initial": self.initial,
                }
            )
        ]
        for ev in self.events:
            lines.append(
                json.dumps(
                    {
                        "step": ev.step,
                        "kind": ev.kind,
                        "robot": ev.robot,
                        "from": ev.from_node,
                        "to": ev.to_node,
                        "occ": ev.occ,
                        "tag": ev.tag,
                        "round": ev.round,
                    }
                )
            )
        lines.append(json.dumps({"outcome": self.outcome, "rounds": self.rounds}))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = json.loads(lines[0])
        foot = json.loads(lines[-1])
        trace = cls(
            n=head["n"],
            k=head["k"],
            scheduler=head["scheduler"],
            seed=head["seed"],
            fairness_bound=head["fairness_bound"],
            initial=head["initial"],
            outcome=foot["outcome"],
            rounds=foot["rounds"],
        )
        for ln in lines[1:-1]:
            d = json.loads(ln)
            trace.events.append(
                TraceEvent(
                    d["step"],
                    d["kind"],
                    d["robot"],
                    d["from"],
                    d["to"],
                    d["occ"],
                    d["tag"],
                    d["round"],
                )
            )
        return trace


def clear_caches() -> None:
    """Empty the memo of canonical occupancy strings."""
    _canon_of.cache_clear()


@lru_cache(maxsize=_CACHE_SIZE)
def _canon_of(occ: tuple[int, ...]) -> str:
    return canonical_form(RingConfig(len(occ), occ))


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------


class Scheduler:
    """Adversary interface: proposes actions, picks directions for
    either-way intents.  `run` overrides proposals that would starve a
    robot past the fairness bound."""

    name = "scheduler"

    def start(self, sim: _Sim):
        pass

    def propose(self, sim: _Sim) -> SchedulerAction:
        raise NotImplementedError

    def choose_direction(self, sim: _Sim, intent: PendingIntent) -> int:
        raise NotImplementedError


def _idle_robots(sim: _Sim):
    return [r for r in range(sim.k) if sim.pending[r] is None]


def _pending_robots(sim: _Sim):
    return [r for r in range(sim.k) if sim.pending[r] is not None]


def _enabled_idle(sim: _Sim):
    cfg = sim.config()
    out = []
    for r in _idle_robots(sim):
        if decide_targets(cfg, sim.positions[r]) is not None:
            out.append(r)
    return out


class SynchronousScheduler(Scheduler):
    """Fully synchronous rounds: every robot takes its snapshot, then every
    robot fires, in id order.  Both members of a symmetric pair always move
    within the same wave, so symmetric configurations stay symmetric."""

    name = "synchronous"

    def __init__(self):
        self._queue: list[SchedulerAction] = []

    def start(self, sim: _Sim):
        self._queue.clear()

    def propose(self, sim: _Sim) -> SchedulerAction:
        if not self._queue:
            idle = _idle_robots(sim)
            if len(idle) == sim.k:
                self._queue = [SchedulerAction("activate", r) for r in range(sim.k)]
                self._queue += [SchedulerAction("fire", r) for r in range(sim.k)]
            else:  # resynchronize after an interrupted wave
                self._queue = [SchedulerAction("fire", r) for r in _pending_robots(sim)]
        return self._queue.pop(0)

    def choose_direction(self, sim: _Sim, intent: PendingIntent) -> int:
        # Keep symmetric snapshots symmetric: walk toward the axis node, a
        # direction the axis reflection maps to the partner's mirror choice.
        a, b = intent.target
        node = sim.positions[intent.robot]
        info = classify_symmetry(RingConfig(sim.n, intent.snapshot_occ))
        if info.symmetric and info.axis_node is not None:
            da = _walk_distance(node, a, info.axis_node, sim.n)
            db = _walk_distance(node, b, info.axis_node, sim.n)
            return a if da < db else b
        return min(a, b)


def _walk_distance(node, first_step_node, goal, n):
    """Distance from node to goal when forced to leave via first_step_node."""
    step = (first_step_node - node) % n
    if step == 1:
        return (goal - node) % n
    return (node - goal) % n


class RandomFairScheduler(Scheduler):
    """Uniformly random valid action each step, seeded."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = Random(seed)

    def start(self, sim: _Sim):
        self._rng = Random(self.seed)

    def propose(self, sim: _Sim) -> SchedulerAction:
        choices = [("activate", r) for r in _idle_robots(sim)]
        choices += [("fire", r) for r in _pending_robots(sim)]
        kind, robot = self._rng.choice(choices)
        return SchedulerAction(kind, robot)

    def choose_direction(self, sim: _Sim, intent: PendingIntent) -> int:
        return self._rng.choice(sorted(intent.target))


class LazyScheduler(Scheduler):
    """Adversary that maximizes outdated intents: it first lets every
    enabled robot take a snapshot, then fires the newest snapshots first,
    keeping the oldest intent pending until fairness forces it out."""

    name = "lazy"

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = Random(seed)

    def start(self, sim: _Sim):
        self._rng = Random(self.seed)

    def propose(self, sim: _Sim) -> SchedulerAction:
        enabled = _enabled_idle(sim)
        if enabled:
            return SchedulerAction("activate", self._rng.choice(enabled))
        pending = _pending_robots(sim)
        if pending:
            newest = max(
                pending, key=lambda r: (sim.pending[r].snapshot_step, -r)
            )
            return SchedulerAction("fire", newest)
        # nobody enabled, nothing pending: cycle an arbitrary idle robot
        return SchedulerAction("activate", self._rng.choice(_idle_robots(sim)))

    def choose_direction(self, sim: _Sim, intent: PendingIntent) -> int:
        return self._rng.choice(sorted(intent.target))


def builtin_scheduler(name: str, seed: int | None = None) -> Scheduler:
    """Construct one of the built-in adversaries by name."""
    if name == "synchronous":
        return SynchronousScheduler()
    if name in ("random", "random_fair"):
        return RandomFairScheduler(0 if seed is None else seed)
    if name == "lazy":
        return LazyScheduler(0 if seed is None else seed)
    raise ValueError(f"unknown scheduler {name!r}")


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


class InvalidStartError(ValueError):
    pass


def validate_params(n: int, k: int) -> None:
    """Check the protocol's size constraints: k even, k > 8, n odd and
    n > k + 3.  The message lists every violated constraint."""
    problems = []
    if k % 2 != 0:
        problems.append("k even")
    if k <= 8:
        problems.append("k>8")
    if n % 2 != 1:
        problems.append("n odd")
    if n <= k + 3:
        problems.append("n>k+3")
    if problems:
        raise InvalidStartError("constraint violated: " + ", ".join(problems))


def validate_initial(cfg: RingConfig, relaxed: bool = False) -> None:
    """Check the protocol's preconditions on a start configuration.  A
    Phase-3 (or gathered) configuration is accepted as a targeted start.
    With `relaxed`, only towers-with-unknown-shape and periodicity reject."""
    tag = classify_protocol_state(cfg).tag
    if tag is Tag.GATHERED:
        return
    if tag in PHASE3_TAGS:
        return
    if not cfg.towerless:
        raise InvalidStartError("initial configuration has a tower")
    if classify_symmetry(cfg).periodic:
        raise InvalidStartError("initial configuration is periodic")
    if relaxed:
        if tag is Tag.UNKNOWN:
            raise InvalidStartError("initial configuration has no protocol state")
        return
    validate_params(cfg.n, cfg.k)


def run(
    initial: RingConfig,
    scheduler: Scheduler,
    max_steps: int = DEFAULT_MAX_STEPS,
    fairness_bound: int | None = None,
    relaxed: bool = False,
) -> Trace:
    """Drive a full execution until gathered, stuck, or the step limit.

    The scheduler proposes actions; whenever a robot is close to exceeding
    the fairness bound since its last completed cycle, a forced action on
    the most starved robot replaces the proposal.
    """
    validate_initial(initial, relaxed=relaxed)
    sim = _Sim(SimState.initial(initial))
    bound = 4 * sim.k if fairness_bound is None else fairness_bound
    seed = getattr(scheduler, "seed", None)
    trace = Trace(
        n=initial.n,
        k=sim.k,
        scheduler=scheduler.name,
        seed=seed,
        fairness_bound=bound,
        initial=initial.to_string(),
    )
    scheduler.start(sim)
    # a robot must be able to finish its cycle (2 actions) plus let already
    # starved peers flush theirs before the bound trips
    slack = 2 * sim.k
    while True:
        if sim.gathered():
            trace.outcome = "Gathered"
            break
        if sim.step >= max_steps:
            trace.outcome = "StepLimit"
            break
        action = None
        starved = min(range(sim.k), key=lambda r: sim.last_cycle_step[r])
        if sim.step - sim.last_cycle_step[starved] >= bound - slack:
            if sim.pending[starved] is None:
                action = SchedulerAction("activate", starved)
            else:
                action = SchedulerAction("fire", starved)
        if action is None:
            action = scheduler.propose(sim)
        if action.kind == "fire":
            intent = sim.pending[action.robot]
            if intent is not None and isinstance(intent.target, tuple):
                if action.direction is None:
                    action = action._replace(
                        direction=scheduler.choose_direction(sim, intent)
                    )
        try:
            from_node, to_node = sim.apply(action)
        except NoRuleError:
            # a state outside the protocol's rule set was reached; the
            # checker treats any Stuck outcome as a failure
            trace.outcome = "Stuck"
            break
        occ = tuple(sim.occ)
        trace.events.append(
            TraceEvent(
                step=sim.step,
                kind=action.kind,
                robot=action.robot,
                from_node=from_node,
                to_node=to_node,
                occ=_canon_of(occ),
                tag=_analyze(occ).tag.value,
                round=sim.round,
            )
        )
    trace.rounds = sim.round
    return trace


def write_trace(trace: Trace, path) -> None:
    with open(path, "w") as fh:
        fh.write(trace.to_jsonl())


def read_trace(path) -> Trace:
    with open(path) as fh:
        return Trace.from_jsonl(fh.read())
