"""Command-line interface: parsing, validation, outputs, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from ring_gather import cli
from ring_gather.cli import main


TERMINAL = "11111.11111...."


def test_classify_terminal(capsys):
    assert main(["classify", "--occ", TERMINAL]) == 0
    out = capsys.readouterr().out
    assert "tag=Terminal" in out
    assert "symmetry=symmetric" in out
    assert "move 4 -> [5]" in out and "move 6 -> [5]" in out


def test_classify_lists_only_robots_that_move(capsys):
    # the robot on the tower (node 5) never moves, so it is no mover
    assert main(["classify", "--occ", ".....91........"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "role movers=(6,)" in lines
    assert [ln for ln in lines if ln.startswith("move ")] == ["move 6 -> [5]"]


@pytest.mark.parametrize("command", ["classify", "simulate"])
@pytest.mark.parametrize("occ", ["1.!", "....."])
def test_invalid_occ_is_rejected(command, occ):
    with pytest.raises(SystemExit) as exc:
        main([command, "--occ", occ])
    assert str(exc.value).startswith("invalid --occ: ")


def test_classify_prints_canonical(capsys):
    # the canonical form is shared by every rotation of the Terminal shape
    main(["classify", "--occ", ".11111.11111..."])
    first = capsys.readouterr().out
    main(["classify", "--occ", TERMINAL])
    second = capsys.readouterr().out
    canon = [ln for ln in first.splitlines() if ln.startswith("canonical=")]
    assert canon and canon == [
        ln for ln in second.splitlines() if ln.startswith("canonical=")
    ]
    assert canon[0] == "canonical=....11111.11111"


def test_simulate_terminal_gathers(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    code = main(
        ["simulate", "--occ", TERMINAL, "--scheduler", "synchronous", "--out", str(out_file)]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "outcome=Gathered" in err
    lines = out_file.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["n"] == 15 and head["k"] == 10
    foot = json.loads(lines[-1])
    assert foot["outcome"] == "Gathered"


def test_simulate_validates_constraints():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--occ", "11111111.1.....", "--scheduler", "synchronous"])
    assert "k even" in str(exc.value)
    # --relaxed never accepts an even ring, and a Terminal start is
    # size-checked like any other; a valid start of the protocol whose
    # gathered tower of 36 robots no occupancy string can write is
    # rejected before the run, not at its last move
    for argv, message in (
        (["--relaxed", "--occ", "1111111111......"], "constraint violated: n odd"),
        (["--occ", "1111.1111.."], "constraint violated: k>8, n>k+3"),
        (["--occ", "1" * 36 + "." * 5], "invalid initial configuration: constraint violated: "
         "k<=35 (the largest count of the occupancy alphabet)"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *argv])
        assert message in str(exc.value)


def test_simulate_rejects_fairness_bound_below_2k():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--occ", TERMINAL, "--fairness-bound", "5"])
    assert str(exc.value) == "fairness bound 5 < 2k = 20: no run can honour it"


def test_closed_stdout_ends_quietly():
    # a reader that stops early (`| grep -q`) closes the pipe: no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ring_gather.cli", "classify", "--occ", ".....91........"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_import_loads_no_dataclass_machinery():
    # every CLI run pays for the imports: `dataclasses` would bring
    # `inspect`, and with it `ast`, `dis` and `tokenize`
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ring_gather.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert (proc.stdout, proc.stderr) == ("[]\n", "")


def test_simulate_rejects_exhaustive():
    with pytest.raises(SystemExit):
        main(["simulate", "--occ", TERMINAL, "--scheduler", "exhaustive"])


def test_simulate_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RING_GATHER_SEED", "17")
    out_file = tmp_path / "t.jsonl"
    main(["simulate", "--occ", TERMINAL, "--scheduler", "random", "--out", str(out_file)])
    head = json.loads(out_file.read_text().splitlines()[0])
    assert head["seed"] == 17


def test_simulate_seed_env_that_is_no_integer(monkeypatch):
    monkeypatch.setenv("RING_GATHER_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--occ", TERMINAL, "--scheduler", "random", "--out", os.devnull])
    assert str(exc.value) == "invalid $RING_GATHER_SEED: 'abc'"


def test_enumerate_excludes_periodic(capsys):
    assert main(["enumerate", "--n", "15", "--k", "10", "--relaxed"]) == 0
    captured = capsys.readouterr()
    strings = captured.out.split()
    assert ".11.11.11.11.11" not in strings  # canonical 11.11.11.11.11.
    assert "count=" in captured.err
    # relaxed never lifts "k even"
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "9", "--k", "3", "--relaxed"])
    assert "k even" in str(exc.value)


def test_enumerate_validates(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "15", "--k", "9"])
    assert "k even" in str(exc.value)


def test_enumerate_needs_k_at_most_n():
    # --relaxed lifts n>k+3, not 1<=k<=n: six robots have no towerless
    # placement on five nodes
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "5", "--k", "6", "--relaxed"])
    assert str(exc.value) == "constraint violated: 1<=k<=n"


@pytest.mark.parametrize("flag", [["--n", "15"], ["--k", "10"]])
def test_enumerate_needs_both_n_and_k(flag):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *flag])
    assert exc.value.code != 0
    assert "--n" in str(exc.value) and "--k" in str(exc.value)


@pytest.mark.parametrize(
    "flag", [["--k", "3"], ["--relaxed"], ["--out", "f.txt"], ["--n", "15"]]
)
def test_classify_rejects_unused_flags(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--occ", TERMINAL, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "f.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "15", "--k", "10", "--out", "f.txt"],
        ["enumerate", "--n", "15", "--k", "10", "--occ", "1"],
        ["simulate", "--occ", "1111111111.......", "--k", "3"],
        ["simulate", "--n", "15", "--occ", TERMINAL],
    ],
)
def test_enumerate_and_simulate_reject_unused_flags(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "f.txt").exists()


# each case names its negative count last; the other counts are 0 or 1, so
# a run that should not start stays short
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--occ", TERMINAL, "--max-steps", "-5"],
        ["verify", "--n", "15", "--k", "10", "--lazy-seeds", "0", "--max-steps", "1",
         "--random-seeds", "-3"],
        ["verify", "--n", "15", "--k", "10", "--random-seeds", "0", "--max-steps", "1",
         "--lazy-seeds", "-1"],
        ["verify", "--n", "15", "--k", "10", "--random-seeds", "0", "--lazy-seeds", "0",
         "--max-steps", "-1"],
    ],
)
def test_negative_counts_are_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag, value = argv[-2:]
    assert f"argument {flag}: invalid count value: '{value}'" in capsys.readouterr().err


def test_zero_max_steps_is_accepted(capsys):
    assert main(["simulate", "--occ", TERMINAL, "--max-steps", "0"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2  # header and footer, no event
    assert "outcome=StepLimit rounds=0" in err


@pytest.mark.parametrize("flag", [["--n", "15"], ["--k", "10"]])
def test_verify_needs_both_n_and_k(flag):
    # --max-steps 1 keeps a run of the default grids short should the
    # half-given grid be accepted
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flag, "--random-seeds", "0", "--lazy-seeds", "0",
              "--max-steps", "1"])
    assert exc.value.code != 0
    assert "--n" in str(exc.value) and "--k" in str(exc.value)


@pytest.mark.parametrize("flag", [["--occ", TERMINAL], ["--relaxed"]])
def test_verify_rejects_unused_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "15", "--k", "10", *flag, "--random-seeds", "0",
              "--lazy-seeds", "0", "--max-steps", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_validates_grid():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "15", "--k", "9"])
    assert "constraint violated: k even" in str(exc.value)


def test_verify_quick_grid(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--n", "15",
            "--k", "10",
            "--random-seeds", "0",
            "--lazy-seeds", "0",
            "--out", str(report_file),
        ]
    )
    report = json.loads(report_file.read_text())
    assert "checks" in report and "stats" in report
    assert report["checks"]["round_bound"]["failed"] == 0
    assert code == 0


def test_verify_passes_only_the_counts_it_is_given(monkeypatch):
    # unset, --random-seeds, --lazy-seeds and --c take run_verification's
    # own defaults, which the command does not restate
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return {"checks": {}, "passed": True}

    monkeypatch.setattr(cli, "run_verification", record)
    assert main(["verify", "--out", os.devnull]) == 0
    assert main(["verify", "--random-seeds", "3", "--lazy-seeds", "0", "--c", "7",
                 "--out", os.devnull]) == 0
    unset, given = calls
    assert not {"grids", "random_seeds", "lazy_seeds", "c"} & set(unset)
    assert (given["random_seeds"], given["lazy_seeds"], given["c"]) == (3, 0, 7)
