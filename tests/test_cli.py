import json

import pytest

from pawnnim import cli
from pawnnim.cli import main

DIAG_STOPPED_ONLY = """\
...........k
p.........pP
P.....p...P.
pppp...p....
......pP....
PPPP..P.....
p......P..p.
P.........Pp
...........K"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_with_moves(capsys):
    code, out, _ = run(capsys, "eval", "1000", "--moves")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "epsilon(1000) = 2"
    assert lines[1:] == ["file 1: loony", "file 2: value 1",
                         "file 3: loony", "file 4: value 0"]


def test_eval_reversed_word_same_value(capsys):
    _, out1, _ = run(capsys, "eval", "1000")
    _, out2, _ = run(capsys, "eval", "0001")
    assert out1.split("=")[1] == out2.split("=")[1]


def test_eval_invalid_word_usage_error(capsys):
    code, _, err = run(capsys, "eval", "0110")
    assert code == 2
    assert "adjacent stopped files" in err
    code, _, err = run(capsys, "eval", "01x0")
    assert code == 2


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--word", "10", "--max-heap", "3")
    assert code == 0
    assert "oracle epsilon(10) = 0" in out


def test_oracle_check_loony(capsys):
    code, out, _ = run(capsys, "oracle", "--word", "1000", "--check-loony")
    assert code == 0
    lines = out.splitlines()
    assert "file 1: loony" in lines
    assert "file 2: not loony" in lines
    assert not any("disagrees" in ln for ln in lines)


def test_tables_thm2(capsys):
    code, out, _ = run(capsys, "tables", "--which", "thm2")
    assert code == 0
    assert out.startswith("thm2: PASS")


def test_tables_p6_small(capsys):
    code, out, _ = run(capsys, "tables", "--which", "p6", "--alpha-max", "4")
    assert code == 0
    assert out.startswith("p6: PASS")


def test_scan_distribution_csv(capsys, tmp_path):
    path = tmp_path / "dist.csv"
    code, _, _ = run(capsys, "scan", "--length", "6", "--distribution",
                     "--output", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# pawnnim")
    assert lines[1] == "value,count,percent"
    total = sum(int(ln.split(",")[1]) for ln in lines[2:])
    assert total == 21  # count of valid words of length 6


def test_scan_first_occurrence_stdout(capsys):
    code, out, err = run(capsys, "scan", "--length", "9",
                         "--first-occurrence", "--max-k", "4",
                         "--format", "jsonl")
    assert code == 0
    records = [json.loads(ln) for ln in out.splitlines()
               if not ln.startswith("#")]
    assert {r["k"]: r["m"] for r in records} == {1: 1, 2: 4, 3: 6, 4: 9}


def test_periodic_command(capsys, tmp_path):
    path = tmp_path / "p6.csv"
    code, _, err = run(capsys, "periodic", "--period", "6", "--stopped", "4",
                       "--max-length", "60", "--powers-of-two",
                       "--detect-period", "--output", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[1].startswith("#phase-table:")
    assert lines[2] == "0,0"
    assert "first *4 at length 16" in err


def test_periodic_plain_detects_period(capsys):
    code, out, err = run(capsys, "periodic", "--period", "1", "--stopped",
                         "", "--max-length", "40", "--detect-period",
                         "--output", "-")
    assert code == 0
    assert "period 10 after preperiod 0 (verified" in err


def test_periodic_bad_pattern_usage_error(capsys):
    code, _, err = run(capsys, "periodic", "--period", "6", "--stopped",
                       "2,3", "--max-length", "10")
    assert code == 2
    assert "adjacent" in err


@pytest.mark.parametrize("argv", [
    ["scan", "--length", "61", "--distribution"],
    ["scan", "--length", "-1", "--first-occurrence"],
    ["periodic", "--period", "6", "--stopped", "x", "--max-length", "10"],
    ["periodic", "--period", "6", "--stopped", "4", "--max-length", "-5"],
    ["tables", "--which", "p6", "--alpha-max", "20"],
    ["oracle", "--word", "10", "--max-heap", "-1"],
    ["scan", "--length", "9", "--first-occurrence", "--max-k", "0"],
    ["scan", "--length", "9", "--first-occurrence", "--max-k", "-2"],
    ["scan", "--length", "9", "--distribution", "--workers", "0"],
    ["tables", "--which", "first-occurrence", "--workers", "0"],
])
def test_out_of_range_input_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-3", "abc", ""])
@pytest.mark.parametrize("argv", [
    ["scan", "--length", "9", "--distribution"],
    ["tables", "--which", "thm2"],
])
def test_bad_workers_variable_usage_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("PAWNNIM_WORKERS", value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: PAWNNIM_WORKERS") and err.count("\n") == 1


def test_workers_variable_read_only_when_needed(capsys, monkeypatch):
    monkeypatch.setenv("PAWNNIM_WORKERS", "abc")
    code, out, _ = run(capsys, "eval", "1000")
    assert code == 0 and out == "epsilon(1000) = 2\n"
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("pawnnim ")
    # an explicit --workers wins over the variable
    scan = ["scan", "--length", "6", "--distribution"]
    code, out1, _ = run(capsys, *scan, "--workers", "1")
    assert code == 0
    monkeypatch.setenv("PAWNNIM_WORKERS", "2")
    assert run(capsys, *scan) == (0, out1, "")


@pytest.mark.parametrize("argv", [
    ["scan", "--length", "9", "--distribution"],
    ["periodic", "--period", "6", "--stopped", "4", "--max-length", "60"],
    ["embed", "--words", "1000"],
])
def test_unwritable_output_usage_error(capsys, monkeypatch, tmp_path, argv):
    # the output is opened before anything is computed
    def unreachable(*args, **kwargs):
        raise AssertionError("computed before opening the output")
    for owner, name in ((cli.experiments, "ScanTables"),
                        (cli.experiments, "periodic_scan"),
                        (cli, "build_diagram")):
        monkeypatch.setattr(owner, name, unreachable)
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_embed_command(capsys):
    code, out, _ = run(capsys, "embed", "--words", "1000", "--height", "9",
                       "--width", "12")
    assert code == 0
    assert out.rstrip("\n") == DIAG_STOPPED_ONLY


def test_embed_fen(capsys):
    code, out, _ = run(capsys, "embed", "--words", "00000", "--format",
                       "fen")
    assert code == 0
    assert out.startswith("11k/")


def test_embed_dimension_usage_error(capsys):
    code, _, err = run(capsys, "embed", "--words", "0000000", "--width",
                       "12")
    assert code == 2
    assert "too small" in err
