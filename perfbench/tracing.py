"""Span tracing for the benchmark's traced run.

`Tracer.install` wraps public names of ring_gather in place: the name is
replaced in every ring_gather module namespace (and module-level dict)
that holds it, since `simulate`, `checker` and `cli` bind the names they
import. Every call of a wrapped name records a span (name, start, end,
parent span) in flat arrays kept in memory; `write` saves them at the end.
A generator is timed over its full iteration: each resume is a span.
`RingConfig` construction is counted, not timed, since it is too frequent
and too short to time without distorting its callers.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# (module, public name) pairs that get spans; "Trace.to_jsonl" is a method
SPANNED = (
    ("ring", "canonical_form"),
    ("ring", "classify_symmetry"),
    ("ring", "compute_view"),
    ("protocol", "decide_targets"),
    ("protocol", "local_decide"),
    ("protocol", "classify_protocol_state"),
    ("protocol", "enabled_moves"),
    ("simulate", "run"),
    ("simulate", "Trace.to_jsonl"),
    ("cli", "main"),
    ("checker", "replay_trace"),
    ("checker", "check_outdated_bound"),
    ("checker", "check_never_periodic"),
    ("checker", "check_no_tower_before_target"),
    ("checker", "check_phase_monotonic"),
    ("checker", "check_local_global_consistency"),
    ("checker", "check_lemma1_views"),
    ("checker", "check_phase2_transitions"),
    ("checker", "check_all_paths_gather"),
    ("checker", "enumerate_initial_configs"),
)
MODULES = ("ring", "protocol", "simulate", "checker", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {"ring.RingConfig.calls": 0, "simulate.events": 0}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        calls, open_, close = self.calls, self._open, self._close
        counters = self.counters

        if name == "simulate.run":

            def wrapper(*args, **kwargs):
                calls[name] += 1
                idx = open_(nid)
                try:
                    trace = fn(*args, **kwargs)
                finally:
                    close(idx)
                counters["simulate.events"] += len(trace.events)
                return trace

        elif inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, key, value, is_dict=False):
        if is_dict:
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def install(self) -> None:
        package = sys.modules["ring_gather"]
        modules = [package] + [sys.modules[f"ring_gather.{m}"] for m in MODULES]
        for mod_name, public in SPANNED:
            mod = sys.modules[f"ring_gather.{mod_name}"]
            name = f"{mod_name}.{public}"
            if "." in public:
                cls_name, meth = public.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(mod, public)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is orig:
                                self._set(value, dkey, wrapper, is_dict=True)
        ring_config = sys.modules["ring_gather.ring"].RingConfig
        init = ring_config.__init__
        counters = self.counters

        def counted_init(self_, *args, **kwargs):
            counters["ring.RingConfig.calls"] += 1
            init(self_, *args, **kwargs)

        self._set(ring_config, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value, is_dict = self._undo.pop()
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results ----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        count = len(self.start)
        child = array("q", bytes(8 * count))
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0] * len(self.names)
        name_id = self.name_id
        for i in range(count):
            totals[name_id[i]] += end[i] - start[i] - child[i]
        return {name: totals[i] / 1e9 for i, name in enumerate(self.names)}

    def write(self, stem) -> None:
        """Save the spans: `<stem>.json` names the columns and the span
        names, `<stem>.bin` holds the four columns back to back."""
        with open(f"{stem}.bin", "wb") as fh:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)
        meta = {
            "spans": len(self.start),
            "columns": [["name_id", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "names": self.names,
            "calls": self.calls,
            "counters": self.counters,
        }
        with open(f"{stem}.json", "w") as fh:
            json.dump(meta, fh, indent=1)
