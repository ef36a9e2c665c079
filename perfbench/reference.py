"""Reference computations the benchmark checks ring_gather's outputs against.

Nothing here imports ring_gather. Configurations are handled as occupancy
strings, one character per node: '.' for an empty node, '1'..'9' and then
'a'..'z' for robot counts. The alphabet is in ascending character order, so
comparing two strings compares their count sequences.
"""

from __future__ import annotations

import json
from itertools import combinations

ALPHABET = ".123456789abcdefghijklmnopqrstuvwxyz"
_COUNT = {ch: i for i, ch in enumerate(ALPHABET)}


def counts_of(text: str) -> list[int]:
    return [_COUNT[ch] for ch in text]


def text_of(counts) -> str:
    return "".join(ALPHABET[c] for c in counts)


def is_periodic(text: str) -> bool:
    """True when a nontrivial rotation maps the configuration onto itself:
    the string then occurs in its own square at an offset below n."""
    return (text + text).find(text, 1) < len(text)


def dihedral_images(text: str) -> list[str]:
    """The images of a configuration under all n rotations and n reflections."""
    n = len(text)
    out = []
    for seq in (text, text[::-1]):
        doubled = seq + seq
        out.extend(doubled[r : r + n] for r in range(n))
    return out


def dihedral_min(text: str) -> str:
    """The least occupancy string over all rotations and reflections."""
    return min(dihedral_images(text))


def nonperiodic_classes(n: int, k: int) -> set[str]:
    """Dihedral-minimum strings of the towerless, non-periodic k-robot
    configurations of an n-ring, found by sweeping every k-subset of nodes
    and marking its whole orbit as seen."""
    seen: set[str] = set()
    classes: set[str] = set()
    for nodes in combinations(range(n), k):
        cells = ["."] * n
        for v in nodes:
            cells[v] = "1"
        text = "".join(cells)
        if text in seen:
            continue
        orbit = dihedral_images(text)
        seen.update(orbit)
        if not is_periodic(text):
            classes.add(min(orbit))
    return classes


def apply_dihedral(text: str, shift: int, reflect: bool) -> str:
    """Relabel node i as (shift - i) mod n when reflecting, else (i + shift)
    mod n."""
    n = len(text)
    out = [""] * n
    for i, ch in enumerate(text):
        out[((shift - i) if reflect else (i + shift)) % n] = ch
    return "".join(out)


def validate_trace(text: str) -> str | None:
    """Check a JSONL trace against properties any correct run has; return
    None when they all hold, else a description of the first breach.

    - steps count up from 1;
    - a robot fires only after an activation, and is not activated again
      while its intent is pending;
    - a robot fires from the node where it was activated, and a fire moves
      it to a ring neighbour or leaves it in place; activations name no
      destination;
    - the robot count is conserved, in the replayed occupancy and in every
      recorded one;
    - every recorded `occ` equals the dihedral minimum of the replayed
      occupancy;
    - rounds never decrease, and the footer's rounds are not below the last
      event's;
    - the outcome is `Gathered` exactly when one node is occupied.
    """
    lines = text.splitlines()
    if len(lines) < 2:
        return "trace has no header or footer"
    head, foot = json.loads(lines[0]), json.loads(lines[-1])
    n, k = head["n"], head["k"]
    occ = counts_of(head["initial"])
    if len(occ) != n or sum(occ) != k:
        return f"initial {head['initial']!r} is not {k} robots on {n} nodes"
    where: dict[int, int] = {}  # robot -> node, learned from its first event
    pending: set[int] = set()
    last_round = 0
    canon: dict[str, str] = {}
    for step, line in enumerate(lines[1:-1], 1):
        ev = json.loads(line)
        if ev["step"] != step:
            return f"step {ev['step']} where {step} was due"
        robot, src, dst = ev["robot"], ev["from"], ev["to"]
        if not 0 <= robot < k:
            return f"step {step}: no robot {robot}"
        if where.setdefault(robot, src) != src:
            return f"step {step}: robot {robot} acts from {src}, stands on {where[robot]}"
        if not 0 <= src < n or occ[src] == 0:
            return f"step {step}: robot {robot} acts from empty node {src}"
        if ev["kind"] == "activate":
            if robot in pending:
                return f"step {step}: robot {robot} activated with an intent pending"
            if dst is not None:
                return f"step {step}: activation names a destination"
            pending.add(robot)
        elif ev["kind"] == "fire":
            if robot not in pending:
                return f"step {step}: robot {robot} fires before an activation"
            pending.discard(robot)
            if dst is not None:
                if (dst - src) % n not in (1, n - 1):
                    return f"step {step}: move {src}->{dst} is not to a neighbour"
                occ[src] -= 1
                occ[dst] += 1
                where[robot] = dst
        else:
            return f"step {step}: unknown event kind {ev['kind']!r}"
        recorded = ev["occ"]
        if sum(counts_of(recorded)) != k:
            return f"step {step}: recorded {recorded!r} does not hold {k} robots"
        now = text_of(occ)
        want = canon.get(now)
        if want is None:
            want = canon[now] = dihedral_min(now)
        if recorded != want:
            return f"step {step}: recorded {recorded!r}, dihedral minimum {want!r}"
        if ev["round"] < last_round:
            return f"step {step}: round fell from {last_round} to {ev['round']}"
        last_round = ev["round"]
    if foot["rounds"] < last_round:
        return f"footer rounds {foot['rounds']} below the last event's {last_round}"
    gathered = sum(1 for c in occ if c) == 1
    if (foot["outcome"] == "Gathered") != gathered:
        return f"outcome {foot['outcome']} with {sum(1 for c in occ if c)} occupied nodes"
    return None
