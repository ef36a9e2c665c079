"""Command-line front end.

Subcommands:
  simulate   run one execution and write the trace as JSONL
  enumerate  print canonical initial configurations, once all are generated
  verify     run the verification battery and write the JSON report
  classify   name the protocol state of an occupancy string

Configurations travel as occupancy strings: one character per node, '.'
for an empty node, a digit (or letter, above nine) for the robot count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ring import RingConfig, canonical_form, classify_symmetry
from .protocol import classify_protocol_state
from .simulate import (
    DEFAULT_MAX_STEPS,
    InvalidStartError,
    builtin_scheduler,
    run,
    write_trace,
)
from .checker import enumerate_initial_configs, run_verification

SEED_ENV = "RING_GATHER_SEED"


def _seed_from(args) -> int:
    env = os.environ.get(SEED_ENV) or "0"
    try:
        return int(env) if args.seed is None else args.seed
    except ValueError:
        raise SystemExit(f"invalid ${SEED_ENV}: {env!r}") from None


def _load_config(args) -> RingConfig:
    if not args.occ:
        raise SystemExit("--occ required")
    try:
        cfg = RingConfig.from_string(args.occ)
    except ValueError as exc:
        raise SystemExit(f"invalid --occ: {exc}")
    if cfg.k == 0:
        raise SystemExit("invalid --occ: no robot")
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    scheduler = builtin_scheduler(args.scheduler, _seed_from(args))
    try:
        trace = run(
            cfg,
            scheduler,
            max_steps=args.max_steps,
            fairness_bound=args.fairness_bound,
            relaxed=args.relaxed,
        )
    except InvalidStartError as exc:
        raise SystemExit(f"invalid initial configuration: {exc}")
    except ValueError as exc:  # a fairness bound below 2k
        raise SystemExit(str(exc))
    if args.out:
        write_trace(trace, args.out)
    else:
        sys.stdout.write(trace.to_jsonl())
    print(f"outcome={trace.outcome} rounds={trace.rounds}", file=sys.stderr)
    return 0


def cmd_enumerate(args) -> int:
    if args.n is None or args.k is None:
        raise SystemExit("enumerate needs both --n and --k")
    count = 0
    try:
        for cfg in enumerate_initial_configs(args.n, args.k, relaxed=args.relaxed):
            print(cfg.to_string())
            count += 1
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"count={count}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if (args.n is None) != (args.k is None):
        raise SystemExit("verify needs both --n and --k, or neither")
    grids = {}  # run_verification's default grids
    if args.n is not None:
        grids = {"grids": ((args.n, args.k),)}
    # a count or constant left unset takes run_verification's default
    given = {name: getattr(args, name) for name in ("random_seeds", "lazy_seeds", "c")
             if getattr(args, name) is not None}
    try:
        report = run_verification(**grids, **given, max_steps=args.max_steps, jobs=args.jobs)
    except InvalidStartError as exc:  # the grid's (n, k), before any run
        raise SystemExit(str(exc))
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for name, entry in report["checks"].items():
        status = "pass" if entry["failed"] == 0 else "FAIL"
        print(f"{status} {name}: {entry['passed']} ok, {entry['failed']} failed",
              file=sys.stderr)
    return 0 if report["passed"] else 1


def cmd_classify(args) -> int:
    cfg = _load_config(args)
    state = classify_protocol_state(cfg)
    info = classify_symmetry(cfg)
    print(f"tag={state.tag.value}")
    print(f"symmetry={info.cfg_class}")
    if info.axis_node is not None:
        print(f"axis_node={info.axis_node} axis_edge={info.axis_edge}")
    if info.leader_hole:
        print(f"leader_hole=start {info.leader_hole.start} size {info.leader_hole.size}")
    if info.slave_hole:
        print(f"slave_hole=start {info.slave_hole.start} size {info.slave_hole.size}")
    print(f"canonical={canonical_form(cfg)}")
    for key, value in sorted(state.roles.items()):
        print(f"role {key}={value}")
    for node, targets in sorted(state.moves.items()):
        print(f"move {node} -> {list(targets)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ring-gather",
        description="Simulator and checker for ring gathering with an even "
        "number of robots and local weak multiplicity detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text: str) -> int:
        """Step and seed counts: argparse rejects a negative or non-integer
        value as an `invalid count value`."""
        value = int(text)
        if value < 0:
            raise ValueError(text)
        return value

    flags = {
        "--n": dict(type=int, default=None, help="ring size"),
        "--k": dict(type=int, default=None, help="robot count"),
        "--occ": dict(type=str, default=None, help="occupancy string"),
        "--out": dict(type=str, default=None, help="output path"),
        "--scheduler": dict(choices=["synchronous", "random", "lazy"],
                            default="synchronous"),
        "--seed": dict(type=int, default=None,
                       help=f"RNG seed (falls back to ${SEED_ENV})"),
        "--max-steps": dict(type=count, default=DEFAULT_MAX_STEPS),
        "--fairness-bound": dict(type=int, default=None),
        "--relaxed": dict(action="store_true",
                          help='lift only "k>8" and "n>k+3" (testing only)'),
        "--random-seeds": dict(type=count, default=None),
        "--lazy-seeds": dict(type=count, default=None),
        "--c": dict(type=int, default=None,
                    help="round-bound constant: gathered within c*n^2 rounds"),
        "--jobs": dict(type=int, default=None, help="worker processes"),
    }
    # each subcommand registers only the flags it reads, so argparse rejects
    # the rest instead of ignoring them
    commands = (
        ("simulate", cmd_simulate, "run one execution, write JSONL trace",
         ("--out", "--occ", "--scheduler", "--seed", "--max-steps",
          "--fairness-bound", "--relaxed")),
        ("enumerate", cmd_enumerate, "print canonical initial configs",
         ("--n", "--k", "--relaxed")),
        ("verify", cmd_verify, "run the verification battery",
         ("--n", "--k", "--out", "--random-seeds", "--lazy-seeds", "--c",
          "--max-steps", "--jobs")),
        ("classify", cmd_classify, "name the protocol state of a config",
         ("--occ",)),
    )
    for name, func, help_text, names in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| grep -q`): stop without a
        # traceback, and send the interpreter's last flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
