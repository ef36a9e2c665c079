"""Command-line interface: parsing, validation, outputs, exit codes."""

import json

import pytest

from ring_gather.cli import main


TERMINAL = "11111.11111...."


def test_classify_terminal(capsys):
    assert main(["classify", "--occ", TERMINAL]) == 0
    out = capsys.readouterr().out
    assert "tag=Terminal" in out
    assert "symmetry=symmetric" in out
    assert "move 4 -> [5]" in out and "move 6 -> [5]" in out


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


def test_simulate_rejects_exhaustive():
    with pytest.raises(SystemExit):
        main(["simulate", "--occ", TERMINAL, "--scheduler", "exhaustive"])


def test_simulate_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RING_GATHER_SEED", "17")
    out_file = tmp_path / "t.jsonl"
    main(["simulate", "--occ", TERMINAL, "--scheduler", "random", "--out", str(out_file)])
    head = json.loads(out_file.read_text().splitlines()[0])
    assert head["seed"] == 17


def test_enumerate_excludes_periodic(capsys):
    assert main(["enumerate", "--n", "9", "--k", "3", "--relaxed"]) == 0
    captured = capsys.readouterr()
    strings = captured.out.split()
    assert "1..1..1.." not in strings
    assert "count=" in captured.err


def test_enumerate_validates(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "15", "--k", "9"])
    assert "k even" in str(exc.value)


@pytest.mark.parametrize("flag", [["--n", "15"], ["--k", "10"]])
def test_enumerate_needs_both_n_and_k(flag):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *flag])
    assert exc.value.code != 0
    assert "--n" in str(exc.value) and "--k" in str(exc.value)


@pytest.mark.parametrize(
    "flag", [["--k", "3"], ["--relaxed"], ["--out", "f.txt"]]
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
    ],
)
def test_enumerate_and_simulate_reject_unused_flags(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "f.txt").exists()


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
