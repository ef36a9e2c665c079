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

The scheduler, as CORDA's adversary, only names the robot that acts next.
The robot's own state decides the action: an idle robot activates, a robot
with a pending intent fires it.

Robot ids exist only here, for scheduling and fairness bookkeeping.  No
decision ever sees them: intents are computed from views alone.

Fairness is enforced as a bounded delay: every robot completes a full cycle
at least once every `fairness_bound` actions; when a scheduler would starve
a robot, the most starved robot acts instead.  An asynchronous round has
elapsed once every robot finished at least one move phase (a Stay still
counts as a completed move phase).
"""

from __future__ import annotations

import json
from itertools import compress
from operator import not_
from random import Random
from typing import NamedTuple

from .ring import _MAX_COUNT, RingConfig, _move_one, classify_symmetry
from .protocol import (
    _NO_RULE,
    PHASES,
    NoRuleError,
    Phase,
    Tag,
    _decide,
    _decisions,
    _trace_fields,
    classify_protocol_state,
)

DEFAULT_MAX_STEPS = 400_000


class PendingIntent(NamedTuple):
    """A computed but not yet executed move.

    `target` holds the robot's target nodes, ascending, as its decision
    (`protocol.decide_targets`) gave them: ``()`` for Stay, one node, or two
    when the robot's two directions look equally good and the scheduler
    decides.
    The robot is *outdated* once another robot has moved since its snapshot,
    and has an *incorrect target* when a fresh computation on the current
    configuration would decide differently (see `intent_is_incorrect`).
    """

    snapshot_step: int
    snapshot_occ: tuple[int, ...]
    target: tuple[int, ...]


def intent_is_incorrect(occ: tuple[int, ...], node: int, target) -> bool:
    """Whether a pending intent of the robot on `node`, its target tuple
    (or `protocol._NO_RULE`), differs from a fresh decision on the
    occupancy `occ`.

    A pending Stay is never incorrect: firing it changes nothing and the
    robot then re-observes, so only intents with a target destination can
    be outdated with an incorrect target.  A fresh decision with no
    applicable rule counts as incorrect.
    """
    if not target:
        return False
    try:
        return _decide(occ, node) != target
    except NoRuleError:
        return True


def _start_positions(occ: tuple[int, ...]) -> list[int]:
    """Each robot's node on the start occupancy `occ`: robot i is on the
    i-th robot's node, in ascending node order."""
    return [node for node, count in enumerate(occ) for _ in range(count)]


# Builds a record from a tuple of its fields without a Python frame: a
# NamedTuple's generated `__new__` is one, and the simulator makes a
# PendingIntent and a TraceEvent on nearly every action.
_new = tuple.__new__


class _Sim:
    """The simulator's state: the occupancy tuple with its decision table,
    canonical string and tag, per-robot positions and pending intents, plus
    step/round accounting.  `run` drives it through `apply`; schedulers
    read it."""

    __slots__ = (
        "n",
        "k",
        "occ",
        "table",
        "canon",
        "tag",
        "width",
        "positions",
        "pending",
        "step",
        "round",
        "round_start",
        "last_cycle",
    )

    def __init__(self, cfg: RingConfig):
        self.n = cfg.n
        self.occ = cfg.occ
        self.table = _decisions(cfg.occ)  # every robot's decision, by node
        self.canon, self.tag = _trace_fields(cfg.occ)  # what an event records
        self.width = len(cfg.occupied)  # occupied nodes
        self.positions = _start_positions(cfg.occ)
        self.k = len(self.positions)
        self.pending = [None] * self.k
        self.step = 0
        self.round = 0
        self.round_start = 0  # the step that completed the last round
        # robot -> step of its last completed move phase, oldest first (ties by id)
        self.last_cycle = dict.fromkeys(range(self.k), 0)

    def apply(self, robot: int, direction: int | None = None) -> TraceEvent:
        """Let `robot` act: an idle robot activates, recording a pending
        intent; a robot with an intent fires it, toward `direction` when
        the intent leaves the direction to the scheduler.  Returns the
        `TraceEvent` that records the action, whose `to_node` is None for
        activations and cleared Stay intents.  An action that is rejected
        (`ValueError`, or `NoRuleError` when the robot has no rule) leaves
        the state as it was.  The decision table, canonical string and tag
        change only with the occupancy, so they are looked up once per
        move, not once per action."""
        if not 0 <= robot < self.k:
            raise ValueError("scheduler contract violation: no such robot")
        node = self.positions[robot]
        intent = self.pending[robot]
        if intent is None:
            target = self.table[node]
            if target is _NO_RULE:
                raise NoRuleError("no rule")
            step = self.step = self.step + 1
            self.pending[robot] = _new(PendingIntent, (step, self.occ, target))
            return _new(TraceEvent, (step, "activate", robot, node, None,
                                     self.canon, self.tag, self.round))
        targets = intent.target
        if len(targets) > 1 and direction not in targets:
            raise ValueError("scheduler contract violation: direction needed")
        step = self.step = self.step + 1
        self.pending[robot] = None
        # the robot completed a move phase: it becomes the newest
        last_cycle = self.last_cycle
        del last_cycle[robot]
        last_cycle[robot] = step
        # a round ends once even the oldest move phase is newer than its start
        if next(iter(last_cycle.values())) > self.round_start:
            self.round += 1
            self.round_start = step
        if not targets:
            return _new(TraceEvent, (step, "fire", robot, node, None,
                                     self.canon, self.tag, self.round))
        target = direction if len(targets) > 1 else targets[0]
        occ = self.occ = _move_one(self.occ, node, target)
        self.table = _decisions(occ)
        canon, tag = self.canon, self.tag = _trace_fields(occ)
        self.width += (occ[target] == 1) - (occ[node] == 0)
        self.positions[robot] = target
        return _new(TraceEvent, (step, "fire", robot, node, target, canon, tag, self.round))

    def gathered(self) -> bool:
        return self.width == 1


class TraceEvent(NamedTuple):
    step: int
    kind: str
    robot: int
    from_node: int
    to_node: int | None
    occ: str  # canonical occupancy string after the action
    tag: str
    round: int


class Trace:
    """Record of one run: enough to replay it and to check every lemma.

    `outcome` is "Gathered", "StepLimit" or "Stuck"; `initial` is the raw
    occupancy string of the start configuration.  Two traces are equal
    when all their fields are."""

    def __init__(self, n: int, k: int, scheduler: str, seed: int | None,
                 fairness_bound: int, initial: str, events: list[TraceEvent] | None = None,
                 outcome: str = "StepLimit", rounds: int = 0):
        self.n = n
        self.k = k
        self.scheduler = scheduler
        self.seed = seed
        self.fairness_bound = fairness_bound
        self.initial = initial
        self.events = [] if events is None else events
        self.outcome = outcome
        self.rounds = rounds

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def to_jsonl(self) -> str:
        lines = [json.dumps({field: getattr(self, field) for field in _HEADER})]
        # what json.dumps would write: `kind`, `occ` and `tag` come from
        # fixed ASCII alphabets that need no escaping
        lines += [
            f'{{"step": {step}, "kind": "{kind}", "robot": {robot}, "from": {src}, '
            f'"to": {"null" if dst is None else dst}, "occ": "{occ}", "tag": "{tag}", '
            f'"round": {rnd}}}'
            for step, kind, robot, src, dst, occ, tag, rnd in self.events
        ]
        lines.append(json.dumps({field: getattr(self, field) for field in _FOOTER}))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse `to_jsonl` output; the one judge of stored JSON types.
        Each nonblank line must be an object with every field of its kind,
        of its type (an integer is neither a bool nor a float); other keys
        are ignored.  Else `ValueError` names the line and the field."""
        lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if len(lines) < 2:
            raise ValueError("a trace needs a header line and a footer line")
        trace = cls(*_fields(*lines[0], _HEADER))
        trace.events = [TraceEvent(*_fields(*line, _EVENT)) for line in lines[1:-1]]
        trace.outcome, trace.rounds = _fields(*lines[-1], _FOOTER)
        return trace


# each stored line's fields, in `Trace` and `TraceEvent` order, and their JSON types
_INT, _STR, _INT_OR_NULL = (int,), (str,), (int, type(None))
_HEADER = {"n": _INT, "k": _INT, "scheduler": _STR, "seed": _INT_OR_NULL,
           "fairness_bound": _INT, "initial": _STR}
_EVENT = {"step": _INT, "kind": _STR, "robot": _INT, "from": _INT, "to": _INT_OR_NULL,
          "occ": _STR, "tag": _STR, "round": _INT}
_FOOTER = {"outcome": _STR, "rounds": _INT}
_TYPE_NAMES = {_INT: "an integer", _STR: "a string", _INT_OR_NULL: "an integer or null"}


def _fields(number: int, line: str, types: dict) -> list:
    """The values of JSON line `number`, one per field of `types`."""
    try:
        value = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None
    if type(value) is not dict:
        raise ValueError(f"line {number}: {json.dumps(value)} is not a JSON object")
    for field, allowed in types.items():
        if field not in value:
            raise ValueError(f"line {number}: no field {field!r}")
        if type(value[field]) not in allowed:
            got, want = json.dumps(value[field]), _TYPE_NAMES[allowed]
            raise ValueError(f"line {number}: field {field!r} is {got}, not {want}")
    return [value[field] for field in types]


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------


class Scheduler:
    """Adversary interface: `propose` names the robot that acts next, and
    `choose_direction` picks one of the two targets of a robot whose
    intent leaves the direction open.  The robot's state decides the
    action: an idle robot activates, a robot with an intent fires it.
    `run` overrides proposals that would starve a robot past the fairness
    bound."""

    name = "scheduler"

    def start(self, sim: _Sim):
        pass

    def propose(self, sim: _Sim) -> int:
        raise NotImplementedError

    def choose_direction(self, sim: _Sim, robot: int) -> int:
        raise NotImplementedError


def _idle_robots(sim: _Sim):
    return [r for r in range(sim.k) if sim.pending[r] is None]


def _pending_robots(sim: _Sim):
    return [r for r in range(sim.k) if sim.pending[r] is not None]


def _enabled_idle(sim: _Sim):
    """Idle robots whose decision is not Stay; a robot with no rule counts,
    so activating it ends the run `Stuck`."""
    table, positions = sim.table, sim.positions
    return [r for r in _idle_robots(sim) if table[positions[r]]]


class SynchronousScheduler(Scheduler):
    """Fully synchronous rounds: every robot takes its snapshot, then every
    robot fires, in id order.  Both members of a symmetric pair always move
    within the same wave, so symmetric configurations stay symmetric.

    The wave is read off the pending intents, so a fairness-forced action
    cannot make it stale: while robot 0 holds an intent the lowest idle
    robot acts, otherwise the lowest pending robot; with none, robot 0."""

    name = "synchronous"

    def propose(self, sim: _Sim) -> int:
        # scans by truth value, in C: an intent, a tuple of three fields,
        # is always true
        pending = sim.pending
        wave = pending if pending[0] is None else map(not_, pending)
        return next(compress(range(sim.k), wave), 0)

    def choose_direction(self, sim: _Sim, robot: int) -> int:
        # Keep symmetric snapshots symmetric: walk toward the axis node, a
        # direction the axis reflection maps to the partner's mirror choice;
        # a robot on the axis node steps to node + 1.
        n, node, intent = sim.n, sim.positions[robot], sim.pending[robot]
        info = classify_symmetry(RingConfig(n, intent.snapshot_occ))
        if info.symmetric and info.axis_node is not None:
            axis = info.axis_node
            if (node - axis) % n < (axis - node) % n:
                return (node - 1) % n
            return (node + 1) % n
        return min(intent.target)


class _SeededScheduler(Scheduler):
    """An adversary whose choices, directions included, come from one RNG
    seeded with `seed` at every `start`."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = Random(seed)

    def start(self, sim: _Sim):
        self._rng = Random(self.seed)

    def choose_direction(self, sim: _Sim, robot: int) -> int:
        return self._rng.choice(sim.pending[robot].target)


class RandomFairScheduler(_SeededScheduler):
    """Uniformly random robot each step, seeded: idle robots ascending, then
    pending robots ascending, index drawn by the RNG."""

    name = "random"

    def propose(self, sim: _Sim) -> int:
        idle, busy = [], []
        for robot, intent in enumerate(sim.pending):
            if intent is None:
                idle.append(robot)
            else:
                busy.append(robot)
        return self._rng.choice(idle + busy)


class LazyScheduler(_SeededScheduler):
    """Adversary that maximizes outdated intents: it first lets every
    enabled robot take a snapshot, then fires the newest snapshots first,
    keeping the oldest intent pending until fairness forces it out."""

    name = "lazy"

    def propose(self, sim: _Sim) -> int:
        enabled = _enabled_idle(sim)
        if enabled:
            return self._rng.choice(enabled)
        pending = _pending_robots(sim)
        if pending:
            # snapshot steps are distinct: every activation has its own step
            return max(pending, key=lambda r: sim.pending[r].snapshot_step)
        # nobody enabled, nothing pending: cycle an arbitrary idle robot
        return self._rng.choice(_idle_robots(sim))


def builtin_scheduler(name: str, seed: int | None = None) -> Scheduler:
    """Construct one of the built-in adversaries by name."""
    if name == "synchronous":
        return SynchronousScheduler()
    if name == "random":
        return RandomFairScheduler(0 if seed is None else seed)
    if name == "lazy":
        return LazyScheduler(0 if seed is None else seed)
    raise ValueError(f"unknown scheduler {name!r}")


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


class InvalidStartError(ValueError):
    pass


def validate_params(n: int, k: int, relaxed: bool = False) -> None:
    """Check the protocol's size constraints: n odd, k even, k > 8 and
    n > k + 3, and the tool's own: k at most the largest count an
    occupancy string can write, since a run ends with all k robots on one
    node, and 1 <= k <= n, the sizes of a towerless start.  `relaxed` lifts
    only k > 8 and n > k + 3: the rules cover an even number of robots on
    an odd ring only.  The message lists every violated constraint."""
    problems = []
    if k % 2 != 0:
        problems.append("k even")
    if k <= 8:
        problems.append("k>8")
    if k > _MAX_COUNT:
        problems.append(f"k<={_MAX_COUNT} (the largest count of the occupancy alphabet)")
    if n % 2 != 1:
        problems.append("n odd")
    if n <= k + 3:
        problems.append("n>k+3")
    if not 1 <= k <= n:
        problems.append("1<=k<=n")
    if relaxed:
        problems = [p for p in problems if p not in ("k>8", "n>k+3")]
    if problems:
        raise InvalidStartError("constraint violated: " + ", ".join(problems))


def validate_initial(cfg: RingConfig, relaxed: bool = False) -> None:
    """Check the protocol's preconditions on a start configuration: no
    tower and no periodicity, then the sizes (`validate_params`).  A
    Phase-3 (or gathered) configuration is accepted as a targeted start,
    tower and all.  With `relaxed`, a start must also have a protocol
    state."""
    tag = classify_protocol_state(cfg).tag
    if PHASES.get(tag) not in (Phase.PHASE3, Phase.DONE):
        if not cfg.towerless:
            raise InvalidStartError("initial configuration has a tower")
        if classify_symmetry(cfg).periodic:
            raise InvalidStartError("initial configuration is periodic")
    validate_params(cfg.n, cfg.k, relaxed)
    if relaxed and tag is Tag.UNKNOWN:
        raise InvalidStartError("initial configuration has no protocol state")


def run(
    initial: RingConfig,
    scheduler: Scheduler,
    max_steps: int = DEFAULT_MAX_STEPS,
    fairness_bound: int | None = None,
    relaxed: bool = False,
) -> Trace:
    """Drive a full execution until gathered, stuck, or the step limit.

    The scheduler names the robot that acts, and the robot's state decides
    whether it activates or fires; whenever a robot is close to exceeding
    the fairness bound (4k by default, at least 2k) since its last
    completed cycle, the most starved robot acts instead of the proposed
    one.  A run is stuck when a robot with no rule is activated,
    or when after a move no robot can move again: every robot's decision
    is Stay and no pending intent has a target.
    """
    validate_initial(initial, relaxed=relaxed)
    sim = _Sim(initial)
    bound = 4 * sim.k if fairness_bound is None else fairness_bound
    if bound < 2 * sim.k:
        # every robot must finish a 2-action cycle within any `bound` actions
        raise ValueError(f"fairness bound {bound} < 2k = {2 * sim.k}: no run can honour it")
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
    patience = bound - 2 * sim.k
    k, pending, last_cycle = sim.k, sim.pending, sim.last_cycle
    apply, propose, append = sim.apply, scheduler.propose, trace.events.append
    while True:
        if sim.width == 1:
            trace.outcome = "Gathered"
            break
        step = sim.step
        if step >= max_steps:
            trace.outcome = "StepLimit"
            break
        robot = next(iter(last_cycle))  # the most starved robot
        if step - last_cycle[robot] < patience:
            robot = propose(sim)
        # a robot that does not exist has no intent, and `apply` rejects it
        intent = pending[robot] if 0 <= robot < k else None
        direction = None
        if intent is not None and len(intent.target) > 1:
            direction = scheduler.choose_direction(sim, robot)
        try:
            event = apply(robot, direction)
        except NoRuleError:
            # a state outside the protocol's rule set was reached; the
            # checker treats any Stuck outcome as a failure
            trace.outcome = "Stuck"
            break
        append(event)
        if event.to_node is None:
            continue
        # after a move, no robot can change the configuration again when
        # every occupied node's decision is Stay and no intent has a target
        if sim.table.count(()) == sim.width and sim.width > 1:
            if all(p is None or not p.target for p in pending):
                trace.outcome = "Stuck"
                break
    trace.rounds = sim.round
    return trace


def write_trace(trace: Trace, path) -> None:
    with open(path, "w") as fh:
        fh.write(trace.to_jsonl())


def read_trace(path) -> Trace:
    with open(path) as fh:
        return Trace.from_jsonl(fh.read())
