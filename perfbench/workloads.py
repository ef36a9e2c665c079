"""The benchmark's workloads: each one makes its inputs from a seed, runs
whole rounds of program calls, and checks what the rounds produced.

- `Battery`: `run_verification`, serially, over every class at (15, 10).
  One operation is one sampled run.
- `Census`: `check_all_paths_gather` on every class at (17, 10). One
  operation is one class decided.
- `LargeRuns`: `ring-gather simulate`, once per scheduler, on seeded random
  starts of large rings. One operation is one invocation, each a fresh
  process (or, for the traced run, one in-process `cli.main` call).

A round's outputs are checked after the timed part, against `reference` and
against properties any correct output has. An operation fails when the
program raised, when a check rejected its output, or when the census search
ran out of its state budget. Protocol verdicts (runs that end `Stuck`,
lemma breaches, classes with a non-gathering branch) are the verifier's
output, not failures; `verdicts()` reports their counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

# program calls go through the package namespace, where the traced run's
# wrappers are installed
import ring_gather as rg
from ring_gather import cli, protocol, simulate

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
ROUND_C = 20  # gathered runs must take at most ROUND_C * n^2 rounds

# checks of run_verification's report that give one verdict per sampled run
PER_RUN_CHECKS = (
    "round_bound",
    "no_tower_before_target",
    "never_periodic",
    "outdated_bound",
    "phase_monotonic",
    "replay",
)
# checks that hold on today's rules; a failure means broken program output
MUST_PASS = (
    "replay",
    "never_periodic",
    "local_global_consistency",
    "phase2_transitions",
    "lemma1_views",
)


@dataclass
class Round:
    ops: int
    failed: int
    seconds: float  # wall time spent in program calls


def clear_caches() -> None:
    """Empty ring_gather's module-level caches so every round starts cold.
    A program without such caches has nothing to clear."""
    for mod in (protocol, simulate):
        clear = getattr(mod, "clear_caches", None)
        if clear is not None:
            clear()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _budget_exceeded(verdict) -> bool:
    v = verdict.violation
    return v is not None and "budget" in v.description


class Battery:
    """The sampled check users run: every class under the synchronous
    scheduler and seeded random and lazy schedules, plus the phase-2
    transition and view-lemma checks `run_verification` always runs."""

    name = "battery"

    def __init__(self, grid=(15, 10), random_seeds=4, lazy_seeds=2, sample=8,
                 transition_ns=(15, 17, 21), lemma1_n_max=11):
        self.grid = grid
        self.random_seeds = random_seeds
        self.lazy_seeds = lazy_seeds
        self.sample = sample
        self.transition_ns = transition_ns
        self.lemma1_n_max = lemma1_n_max
        self.schedules = [("synchronous", None)]
        self.schedules += [("random", s) for s in range(random_seeds)]
        self.schedules += [("lazy", s) for s in range(lazy_seeds)]
        self.reports: list[dict | None] = []
        self._classes: list[str] | None = None

    def classes(self) -> list[str]:
        if self._classes is None:
            self._classes = sorted(reference.nonperiodic_classes(*self.grid))
        return self._classes

    def runs_per_round(self) -> int:
        return len(self.classes()) * len(self.schedules)

    def setup(self, seed: int) -> None:
        # run_verification fixes its own schedule seeds; the benchmark seed
        # picks which runs are repeated and validated afterwards
        self.rng = random.Random(seed)

    def round(self) -> Round:
        clear_caches()
        t0 = time.perf_counter()
        try:
            report = rg.run_verification(
                grids=(self.grid,),
                random_seeds=self.random_seeds,
                lazy_seeds=self.lazy_seeds,
                transition_ns=self.transition_ns,
                lemma1_n_max=self.lemma1_n_max,
                jobs=1,
            )
        except Exception as exc:
            report = None
            print(f"battery: run_verification raised {exc!r}", file=sys.stderr)
        seconds = time.perf_counter() - t0
        self.reports.append(report)
        runs = self.runs_per_round()
        return Round(runs, runs if report is None else 0, seconds)

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def _report_problems(self, report) -> list[str]:
        checks = report["checks"]
        runs = self.runs_per_round()
        problems = []
        for name in PER_RUN_CHECKS:
            entry = checks.get(name)
            got = entry["passed"] + entry["failed"] if entry else 0
            if got != runs:
                problems.append(f"{name}: {got} verdicts for {runs} runs")
        entry = checks.get("local_global_consistency")
        got = entry["passed"] + entry["failed"] if entry else 0
        if got != len(self.classes()):
            problems.append(f"{got} classes checked, brute force finds {len(self.classes())}")
        for name in MUST_PASS:
            entry = checks.get(name)
            if entry is None or entry["failed"]:
                problems.append(f"{name} failed: {entry and entry['first_counterexample']}")
        return problems

    def check(self) -> tuple[int, list[str]]:
        """Returns (operations whose output was rejected, problems)."""
        rejected, problems = 0, []
        reports = [r for r in self.reports if r is not None]  # rounds that did not raise
        for report in reports:
            found = self._report_problems(report)
            if report["checks"] != reports[0]["checks"]:
                found.append("report differs from the first round's")
            if found:
                rejected += self.runs_per_round()
            problems += found
        if not reports:
            return rejected, problems
        first = reports[0]
        # the class of every failing run the report names has a failing branch
        named = {
            entry["first_counterexample"]["initial"]
            for entry in first["checks"].values()
            if entry["first_counterexample"] and "initial" in entry["first_counterexample"]
        }
        for occ in sorted(named):
            if rg.check_all_paths_gather(rg.RingConfig.from_string(occ)).passed:
                problems.append(f"named failing class {occ} gathers on every path")
                rejected += 1
        # a seeded sample of the battery's runs, repeated and validated
        for _ in range(self.sample):
            occ = self.rng.choice(self.classes())
            name, seed = self.rng.choice(self.schedules)
            texts = [
                rg.run(rg.RingConfig.from_string(occ), rg.builtin_scheduler(name, seed)).to_jsonl()
                for _ in range(2)
            ]
            problem = reference.validate_trace(texts[0])
            if texts[0] != texts[1]:
                problem = "repeated run gives a different trace"
            if problem:
                problems.append(f"{occ} {name} seed {seed}: {problem}")
                rejected += 1
        return rejected, problems

    def figures(self, rate: float) -> dict:
        return {"runs_per_s": rate}

    def verdicts(self) -> dict:
        first = next((r for r in self.reports if r is not None), None)
        if first is None:
            return {}
        return {
            f"failing runs, {name}": entry["failed"]
            for name, entry in first["checks"].items()
            if entry["failed"]
        } | {"sampled runs per round": self.runs_per_round()}


class Census:
    """The exhaustive all-paths search over every class of one grid. No
    simulator, no traces; many distinct configurations."""

    name = "census"

    def __init__(self, grid=(17, 10), rotated=8, sampled_runs=16):
        self.grid = grid
        self.rotated = rotated
        self.sampled_runs = sampled_runs
        self.results: list[list] = []  # per round, a Verdict or exception per class
        self.stalled_runs = 0  # sampled runs that did not gather

    def setup(self, seed: int) -> None:
        # every class, in the program's enumeration order, as a user runs
        # the census; the seed picks the samples checked afterwards
        self.rng = random.Random(seed)
        self.starts = list(rg.enumerate_initial_configs(*self.grid))

    def round(self) -> Round:
        clear_caches()
        verdicts = []
        t0 = time.perf_counter()
        for cfg in self.starts:
            try:
                verdicts.append(rg.check_all_paths_gather(cfg))
            except Exception as exc:
                verdicts.append(exc)
        seconds = time.perf_counter() - t0
        self.results.append(verdicts)
        failed = sum(1 for v in verdicts if isinstance(v, Exception) or _budget_exceeded(v))
        return Round(len(verdicts), failed, seconds)

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def bad_classes(self) -> set[str]:
        return {
            cfg.to_string()
            for cfg, v in zip(self.starts, self.results[0])
            if not isinstance(v, Exception) and not v.passed and not _budget_exceeded(v)
        }

    def check(self) -> tuple[int, list[str]]:
        rejected, problems = 0, []
        got = [cfg.to_string() for cfg in self.starts]
        want = reference.nonperiodic_classes(*self.grid)
        if len(got) != len(want) or set(got) != want:
            problems.append(f"{len(got)} classes enumerated, brute force finds {len(want)}")
            rejected += sum(len(r) for r in self.results)
        passed = [[getattr(v, "passed", None) for v in r] for r in self.results]
        for i, r in enumerate(passed[1:], 1):
            diff = sum(1 for a, b in zip(r, passed[0]) if a != b)
            if diff:
                problems.append(f"round {i}: {diff} verdicts differ from round 0")
                rejected += diff
        for tag, cfg in rg.build_phase2_instances(*self.grid).items():
            v = rg.check_all_paths_gather(cfg)
            if not v.passed:
                problems.append(f"phase-2 instance {tag.value} {cfg.to_string()}: {v.violation}")
                rejected += 1
        bad = self.bad_classes()
        # verdicts are invariant under ring automorphisms
        bad_list, good_list = sorted(bad), sorted(set(got) - bad)
        half = self.rotated // 2
        picked = self.rng.sample(bad_list, min(half, len(bad_list)))
        picked += self.rng.sample(good_list, min(self.rotated - len(picked), len(good_list)))
        for occ in picked:
            moved = reference.apply_dihedral(
                occ, self.rng.randrange(len(occ)), self.rng.random() < 0.5
            )
            if rg.check_all_paths_gather(rg.RingConfig.from_string(moved)).passed != (occ not in bad):
                problems.append(f"verdict of {occ} changes under the automorphism to {moved}")
                rejected += 1
        # a sampled run that does not gather convicts its class
        for occ in self.rng.sample(got, min(self.sampled_runs, len(got))):
            for name in ("random", "lazy"):
                seed = self.rng.randrange(1000)
                trace = rg.run(rg.RingConfig.from_string(occ), rg.builtin_scheduler(name, seed))
                problem = reference.validate_trace(trace.to_jsonl())
                if trace.outcome != "Gathered":
                    self.stalled_runs += 1
                    if occ not in bad:
                        problem = problem or f"ends {trace.outcome}, yet every path gathers"
                if problem:
                    problems.append(f"{occ} {name} seed {seed}: {problem}")
                    rejected += 1
        return rejected, problems

    def figures(self, rate: float) -> dict:
        return {"classes_per_s": rate}

    def verdicts(self) -> dict:
        if not self.results:
            return {}
        return {
            "classes": len(self.starts),
            "bad classes": len(self.bad_classes()),
            "sampled runs not gathered": self.stalled_runs,
        }


SIZES = ((31, 16), (33, 16), (35, 18), (37, 18), (39, 20), (41, 20))
SCHEDULERS = ("synchronous", "random", "lazy")


class LargeRuns:
    """`ring-gather simulate` as a CLI user runs it: one fresh process per
    invocation, cold caches, long traces written to a file."""

    name = "large_runs"

    def __init__(self, sizes=SIZES, starts_per_size=2, in_process=False):
        self.sizes = sizes
        self.starts_per_size = starts_per_size
        self.in_process = in_process
        self.times: dict[str, list[float]] = {s: [] for s in SCHEDULERS}
        self.child_rss_mb: list[float] = []
        self.mismatched = 0  # repeated invocations whose trace changed
        self.digests: dict[int, str] = {}  # invocation -> digest of its trace
        self.outcomes: dict[str, int] = {}
        self.out_dir = OUT / self.name
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.invocations = []
        for n, k in self.sizes:
            for _ in range(self.starts_per_size):
                while True:
                    nodes = set(rng.sample(range(n), k))
                    occ = "".join("1" if v in nodes else "." for v in range(n))
                    if not reference.is_periodic(occ):
                        break
                sched_seed = rng.randrange(1 << 16)
                for sched in SCHEDULERS:
                    self.invocations.append((occ, sched, sched_seed))
        self.rng = rng

    def _path(self, i: int) -> Path:
        return self.out_dir / f"{i:02d}-{self.invocations[i][1]}.jsonl"

    def _invoke(self, i: int) -> tuple[bool, float, float]:
        """Run invocation i; returns (exit ok, seconds, peak RSS in MB)."""
        occ, sched, seed = self.invocations[i]
        argv = ["simulate", "--occ", occ, "--scheduler", sched, "--seed", str(seed),
                "--out", str(self._path(i))]
        if self.in_process:
            clear_caches()  # as in a fresh process
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    ok = cli.main(argv) == 0
            except (Exception, SystemExit) as exc:
                print(f"large_runs: cli.main raised {exc!r}", file=sys.stderr)
                ok = False
            return ok, time.perf_counter() - t0, _self_rss_mb()
        cmd = [sys.executable, "-m", "ring_gather.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode == 0, seconds, usage.ru_maxrss / 1024

    def _digest(self, i: int) -> str | None:
        try:
            return hashlib.sha256(self._path(i).read_bytes()).hexdigest()
        except OSError:
            return None

    def round(self) -> Round:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        failed, total = 0, 0.0
        for i, (_occ, sched, _seed) in enumerate(self.invocations):
            ok, seconds, rss = self._invoke(i)
            total += seconds
            self.times[sched].append(seconds)
            self.child_rss_mb.append(rss)
            digest = self._digest(i) if ok else None
            if digest is None:
                failed += 1
            elif self.digests.setdefault(i, digest) != digest:
                self.mismatched += 1
        return Round(len(self.invocations), failed, total)

    def peak_rss_mb(self) -> float:
        return max(self.child_rss_mb)

    def check(self) -> tuple[int, list[str]]:
        rejected, problems = 0, []
        if self.mismatched:
            problems.append(f"{self.mismatched} repeated invocations gave a different trace")
            rejected += self.mismatched
        for i, (occ, sched, seed) in enumerate(self.invocations):
            if i not in self.digests:
                continue
            text = self._path(i).read_text()
            problem = reference.validate_trace(text)
            foot = json.loads(text.splitlines()[-1])
            self.outcomes[foot["outcome"]] = self.outcomes.get(foot["outcome"], 0) + 1
            n = len(occ)
            if foot["outcome"] == "Gathered" and foot["rounds"] > ROUND_C * n * n:
                problem = problem or f"gathered after {foot['rounds']} > {ROUND_C}·n² rounds"
            if problem:
                problems.append(f"{occ} {sched} seed {seed}: {problem}")
                rejected += 1
        # one seeded invocation once more, outside the timed rounds
        i = self.rng.randrange(len(self.invocations))
        if i in self.digests:
            ok, _, _ = self._invoke(i)
            if not ok or self._digest(i) != self.digests[i]:
                problems.append(f"invocation {i} repeated gives a different trace")
                rejected += 1
        return rejected, problems

    def figures(self, rate: float) -> dict:
        return {f"simulate_s.{s}": median(t) for s, t in self.times.items() if t}

    def verdicts(self) -> dict:
        return {f"outcome {k}": v for k, v in sorted(self.outcomes.items())}


WORKLOADS = {w.name: w for w in (Battery, Census, LargeRuns)}
