"""Command-line front end.

Subcommands:
  simulate   run one execution and write the trace as JSONL
  enumerate  stream canonical initial configurations
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
from .protocol import Tag, classify_protocol_state, enabled_moves
from .simulate import (
    InvalidStartError,
    builtin_scheduler,
    run,
    validate_params,
    write_trace,
)
from .checker import enumerate_initial_configs, run_verification

SEED_ENV = "RING_GATHER_SEED"


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _load_config(args) -> RingConfig:
    if args.occ:
        cfg = RingConfig.from_string(args.occ)
        if args.n and args.n != cfg.n:
            raise SystemExit(f"--n {args.n} disagrees with occupancy length {cfg.n}")
        return cfg
    raise SystemExit("--occ required")


def _validate_params(n: int, k: int) -> None:
    try:
        validate_params(n, k)
    except InvalidStartError as exc:
        raise SystemExit(str(exc))


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if not args.relaxed:
        _validate_params(cfg.n, cfg.k)
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
    grids = ((15, 10), (17, 10))
    if args.n is not None:
        _validate_params(args.n, args.k)
        grids = ((args.n, args.k),)
    report = run_verification(
        grids=grids,
        random_seeds=args.random_seeds,
        lazy_seeds=args.lazy_seeds,
        c=args.c,
        max_steps=args.max_steps,
        jobs=args.jobs,
    )
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
    if state.tag not in (Tag.UNKNOWN, Tag.GATHERED):
        moves = sorted(enabled_moves(cfg), key=lambda m: m.robot_node)
        for m in moves:
            print(f"move {m.robot_node} -> {list(m.targets)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ring-gather",
        description="Simulator and checker for ring gathering with an even "
        "number of robots and local weak multiplicity detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--n": dict(type=int, default=None, help="ring size"),
        "--k": dict(type=int, default=None, help="robot count"),
        "--occ": dict(type=str, default=None, help="occupancy string"),
        "--out": dict(type=str, default=None, help="output path"),
        "--scheduler": dict(choices=["synchronous", "random", "lazy"],
                            default="synchronous"),
        "--seed": dict(type=int, default=None,
                       help=f"RNG seed (falls back to ${SEED_ENV})"),
        "--max-steps": dict(type=int, default=400_000),
        "--fairness-bound": dict(type=int, default=None),
        "--relaxed": dict(action="store_true",
                          help="skip protocol size constraints (testing only)"),
        "--random-seeds": dict(type=int, default=50),
        "--lazy-seeds": dict(type=int, default=10),
        "--c": dict(type=int, default=20,
                    help="round-bound constant: gathered within c*n^2 rounds"),
        "--jobs": dict(type=int, default=None, help="worker processes"),
    }
    # each subcommand registers only the flags it reads, so argparse rejects
    # the rest instead of ignoring them
    commands = (
        ("simulate", cmd_simulate, "run one execution, write JSONL trace",
         ("--n", "--out", "--occ", "--scheduler", "--seed", "--max-steps",
          "--fairness-bound", "--relaxed")),
        ("enumerate", cmd_enumerate, "stream canonical initial configs",
         ("--n", "--k", "--relaxed")),
        ("verify", cmd_verify, "run the verification battery",
         ("--n", "--k", "--out", "--random-seeds", "--lazy-seeds", "--c",
          "--max-steps", "--jobs")),
        ("classify", cmd_classify, "name the protocol state of a config",
         ("--n", "--occ")),
    )
    for name, func, help_text, names in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
