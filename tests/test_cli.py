import ctypes
import hashlib
import json
import os
import random
import shlex
import stat
import subprocess
import sys
import sysconfig

import pytest

from pawnnim import cli, experiments, oracle
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
    ["scan", "--length", "45", "--distribution"],
    ["scan", "--length", "-1", "--first-occurrence"],
    ["periodic", "--period", "6", "--stopped", "x", "--max-length", "10"],
    ["periodic", "--period", "6", "--stopped", "4", "--max-length", "-5"],
    ["tables", "--which", "p6", "--alpha-max", "20"],
    ["oracle", "--word", "10", "--max-heap", "-1"],
    ["scan", "--length", "9", "--first-occurrence", "--max-k", "0"],
    ["scan", "--length", "9", "--first-occurrence", "--max-k", "-2"],
    ["scan", "--length", "9", "--first-occurrence", "--max-k", "45"],
    ["scan", "--length", "9", "--distribution", "--workers", "0"],
    ["tables", "--which", "first-occurrence", "--workers", "0"],
    ["tables", "--which", "thm2", "--alpha-max", "5"],
    ["tables", "--which", "p6", "--alpha-max", "0"],
])
def test_out_of_range_input_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("pawnnim ")


def _package_env():
    """The environment with this checkout's package first on the path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def _fresh_python(script, *argv):
    """Standard output of ``script`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True,
                          env=_package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _seeded_word(n, seed):
    """A valid word of n files, drawn with ``random.Random(seed)``."""
    rng, flags = random.Random(seed), []
    for _ in range(n):
        flags.append(0 if flags and flags[-1] else rng.randrange(2))
    return "".join(map(str, flags))


# the commands that fill phase tables through their int buffers alone:
# single words, the oracle's check against the engine and the unstopped
# closed form
_SINGLE_WORD_COMMANDS = [
    ["eval", _seeded_word(150, 150), "--moves"],
    ["oracle", "--word", "0101", "--check-loony"],
    ["tables", "--which", "thm2"],
]


# the periodic runs, which detect and prove periods through the kernel
_PERIODIC_COMMANDS = [
    ["periodic", "--period", "14", "--stopped", "0,5", "--max-length", "600",
     "--detect-period"],
    ["tables", "--which", "p6", "--alpha-max", "5"],
]


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["embed", "--words", "1000"],
    ["oracle", "--word", "10"],
    ["eval", "11"],  # a usage error
    *_SINGLE_WORD_COMMANDS,
    *_PERIODIC_COMMANDS,
])
def test_light_subcommands_do_not_import_numpy(argv):
    # importing numpy costs about 0.1 s of each process's start
    out = _fresh_python("import sys\n"
                        "from pawnnim.cli import main\n"
                        "try:\n"
                        "    main(sys.argv[1:])\n"
                        "except SystemExit:\n"
                        "    pass\n"
                        "print('numpy' in sys.modules)\n", *argv)
    assert out.splitlines()[-1] == "False"


def _assert_runs_where_numpy_cannot_load(argv):
    # an import of numpy raises ImportError here, so any path that still
    # reached it would fail instead of printing what a normal run prints,
    # on standard output or standard error
    script = ("import sys\n"
              "{}"
              "sys.stderr = sys.stdout\n"
              "from pawnnim.cli import main\n"
              "print('exit', main(sys.argv[1:]))\n")
    blocked = _fresh_python(script.format("sys.modules['numpy'] = None\n"),
                            *argv)
    assert blocked == _fresh_python(script.format(""), *argv)
    assert blocked.splitlines()[-1] == "exit 0"


@pytest.mark.parametrize("argv", _SINGLE_WORD_COMMANDS,
                         ids=lambda argv: argv[0])
def test_single_word_commands_run_where_numpy_cannot_load(argv):
    _assert_runs_where_numpy_cannot_load(argv)


@pytest.mark.parametrize("argv", _PERIODIC_COMMANDS,
                         ids=["periodic", "tables-p6"])
def test_periodic_commands_run_where_numpy_cannot_load(argv):
    _assert_runs_where_numpy_cannot_load(argv)


@pytest.mark.parametrize("argv", [
    ["scan", "--length", "5", "--distribution"],
    ["tables", "--which", "first-occurrence"],
], ids=["scan", "tables-first-occurrence"])
def test_rank_scan_commands_load_numpy(argv):
    # the rank scan keeps its tables in numpy arrays, and imports numpy
    # when it first runs
    out = _fresh_python("import sys\n"
                        "from pawnnim.cli import main\n"
                        "main(sys.argv[1:])\n"
                        "print('numpy' in sys.modules)\n", *argv)
    assert out.splitlines()[-1] == "True"


@pytest.mark.parametrize("preset, expected", [((), "1"), (("3",), "3")])
def test_main_defaults_openblas_to_one_thread(preset, expected):
    # numpy's OpenBLAS sizes its thread pool once, on import, so main sets
    # the count before any handler imports numpy, keeping the caller's
    out = _fresh_python("import os, sys\n"
                        "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
                        "if sys.argv[1:]:\n"
                        "    os.environ['OPENBLAS_NUM_THREADS'] = sys.argv[1]\n"
                        "from pawnnim.cli import main\n"
                        "main(['eval', '0101'])\n"
                        "print(os.environ['OPENBLAS_NUM_THREADS'])\n",
                        *preset)
    assert out.splitlines()[-1] == expected


@pytest.mark.parametrize("argv, absent", [
    (["--version"], ("dataclasses", "numpy", "ctypes")),
    (["embed", "--words", "1000"],
     ("pawnnim.oracle", "pawnnim.engine", "pawnnim.grundy",
      "pawnnim.experiments", "ctypes")),
    (["oracle", "--word", "10"],
     ("pawnnim.embed", "pawnnim.engine", "pawnnim.grundy", "ctypes")),
    (["eval", "0101"],
     ("pawnnim.oracle", "pawnnim.embed", "pawnnim.experiments")),
])
def test_subcommands_import_only_what_they_run(argv, absent):
    # every module a CLI process loads adds to its start-up time
    out = _fresh_python("import sys\n"
                        "from pawnnim.cli import main\n"
                        "try:\n"
                        "    main(sys.argv[1:])\n"
                        "except SystemExit:\n"
                        "    pass\n"
                        "print(' '.join(sys.modules))\n", *argv)
    loaded = set(out.splitlines()[-1].split())
    if argv == ["--version"]:
        assert {m for m in loaded if m.startswith("pawnnim")} == {
            "pawnnim", "pawnnim.cli"}
    assert loaded.isdisjoint(absent), loaded & set(absent)


@pytest.mark.parametrize("cc, message", [
    (None, "the compiled kernel needs a C compiler: no cc on PATH"),
    ("echo 'fatal: no room' >&2; exit 1",
     "cc could not build the compiled kernel"),
], ids=["no-cc", "cc-fails"])
def test_missing_compiler_is_one_line_exit_1(cc, message, tmp_path):
    # nothing cached, and no cc on PATH or one that fails: the kernel that
    # phase tables and the rank scan both run cannot be built, which the
    # CLI reports in one line, leaving nothing in the cache; --version
    # needs no kernel
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if cc is not None:
        (bin_dir / "cc").write_text(f"#!/bin/sh\n{cc}\n")
        (bin_dir / "cc").chmod(0o755)
    env = dict(_package_env(), PATH="" if cc is None else str(bin_dir),
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    cmd = [sys.executable, "-m", "pawnnim.cli"]
    for argv in (["periodic", "--period", "6", "--stopped", "4",
                  "--max-length", "60"],
                 ["scan", "--length", "5", "--distribution"]):
        proc = subprocess.run(cmd + argv, capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 1 and proc.stdout == "", argv
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: " + message), proc.stderr
        if cc is not None:
            assert proc.stderr.endswith(": fatal: no room\n")
            assert os.listdir(tmp_path / "cache" / "pawnnim") == []
    proc = subprocess.run(cmd + ["--version"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("pawnnim ")


@pytest.mark.parametrize("cc", ["cc", None, "garbage"])
def test_damaged_cached_kernel(cc, tmp_path):
    # the cached library cannot be loaded: a working cc replaces it; with
    # no cc, or one whose build cannot be loaded either, the CLI exits 1
    # with one line
    source = os.path.join(os.path.dirname(cli.__file__), "_fill.c")
    with open(source, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    cache = tmp_path / "cache" / "pawnnim"
    cache.mkdir(parents=True)
    lib = cache / f"_fill-{digest}-{sysconfig.get_platform()}.so"
    lib.write_text("garbage\n")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    # a cc that writes garbage to the file its -o names
    (bin_dir / "cc").write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do '
                                'shift; done\necho garbage > "$2"\n')
    (bin_dir / "cc").chmod(0o755)
    path = {"cc": os.environ["PATH"], None: "", "garbage": str(bin_dir)}[cc]
    env = dict(_package_env(), PATH=path,
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-m", "pawnnim.cli", "eval",
                           "0101"], capture_output=True, text=True, env=env,
                          timeout=60)
    if cc == "cc":
        assert proc.returncode == 0, proc.stderr
        assert os.listdir(cache) == [lib.name]
        ctypes.CDLL(str(lib))
        return
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        "error: the compiled kernel needs a C compiler" if cc is None
        else f"error: cannot load the build of {source}: ")
    assert os.listdir(cache) == [lib.name]


def test_package_exports_resolve():
    # the names load their modules on first access, and are still listed;
    # the function embed keeps its name when its module is imported first
    out = _fresh_python("import sys, pawnnim.embed\n"
                        "from pawnnim import embed\n"
                        "assert embed is sys.modules['pawnnim.embed'].embed\n"
                        "names = dir(pawnnim)\n"
                        "for name in pawnnim.__all__:\n"
                        "    assert name in names, name\n"
                        "    assert getattr(pawnnim, name) is not None\n"
                        "print('ok')\n")
    assert out == "ok\n"


def test_scan_output_does_not_depend_on_workers(capsys):
    scan = ["scan", "--length", "6", "--distribution"]
    code, out1, _ = run(capsys, *scan)
    assert code == 0
    assert run(capsys, *scan, "--workers", "2") == (0, out1, "")


def test_closed_stdout_exits_without_traceback():
    # the reader stops after one line of a report several pipe buffers
    # long, so the writer meets the closed pipe while writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "pawnnim.cli", "periodic", "--period", "1",
         "--max-length", "8000", "--format", "jsonl"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_package_env())
    assert proc.stdout.readline().startswith(b"# pawnnim ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["scan", "--length", "9", "--distribution"],
    ["periodic", "--period", "6", "--stopped", "4", "--max-length", "60"],
    ["embed", "--words", "1000"],
])
def test_unwritable_output_usage_error(capsys, monkeypatch, tmp_path, argv):
    # the output is opened before anything is computed
    def unreachable(*args, **kwargs):
        raise AssertionError("computed before opening the output")
    for owner, name in ((experiments, "ScanTables"),
                        (experiments, "periodic_scan"),
                        (cli, "build_diagram")):
        monkeypatch.setattr(owner, name, unreachable)
    # a path in a missing directory, and a directory
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failed_run_keeps_an_existing_output(capsys, monkeypatch, tmp_path,
                                             error):
    # the report is written beside the output and renamed over it only
    # when the run succeeds
    def fail(result, format, fh):
        fh.write("partial\n")
        raise error("report failed")
    path = tmp_path / "keep.csv"
    path.write_bytes(b"old report\n")
    argv = ["scan", "--length", "6", "--distribution", "--output", str(path)]
    with monkeypatch.context() as m:
        m.setattr(experiments, "write_report", fail)
        if error is KeyboardInterrupt:
            assert main(argv) == 130
        else:
            with pytest.raises(error):
                main(argv)
    assert path.read_bytes() == b"old report\n"
    assert os.listdir(tmp_path) == ["keep.csv"]
    assert run(capsys, *argv)[0] == 0
    assert path.read_text().splitlines()[1] == "value,count,percent"
    assert os.listdir(tmp_path) == ["keep.csv"]


def test_interrupted_run_exits_130_with_one_line(capsys, monkeypatch,
                                                tmp_path):
    def interrupt(m, tables):
        raise KeyboardInterrupt
    monkeypatch.setattr(experiments, "value_distribution", interrupt)
    path = tmp_path / "keep.csv"
    path.write_bytes(b"old report\n")
    code, out, err = run(capsys, "scan", "--length", "6", "--distribution",
                         "--output", str(path))
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert path.read_bytes() == b"old report\n"
    assert os.listdir(tmp_path) == ["keep.csv"]


def test_output_keeps_what_a_rename_would_change(capsys, tmp_path):
    # a symlink keeps its link and its target takes the report, with its
    # mode; a file with another hard link and a FIFO are written through
    argv = ["scan", "--length", "6", "--distribution", "--output"]
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target)
    assert run(capsys, *argv, str(link))[0] == 0
    assert link.is_symlink()
    report = target.read_text()
    assert report.splitlines()[1] == "value,count,percent"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    other = tmp_path / "other.csv"
    os.link(target, other)
    target.write_text("old\n")
    assert run(capsys, *argv, str(target))[0] == 0
    assert other.read_text() == report
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader that never blocks, so a run that misses the FIFO fails
    # here rather than hanging
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, *argv, str(fifo))[0] == 0
        assert os.read(fd, 1 << 16).decode() == report
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link.csv", "other.csv",
                                            "target.csv"]


@pytest.mark.skipif(os.geteuid() != 0, reason="needs to own files as "
                    "another user")
def test_output_keeps_the_owner(capsys, tmp_path):
    path = tmp_path / "theirs.csv"
    path.write_text("old\n")
    os.chown(path, 1234, 1234)
    argv = ["scan", "--length", "6", "--distribution", "--output", str(path)]
    assert run(capsys, *argv)[0] == 0
    assert (path.stat().st_uid, path.stat().st_gid) == (1234, 1234)
    assert path.read_text().splitlines()[1] == "value,count,percent"


def test_oracle_resource_limit_exits_one_without_traceback(capsys,
                                                         monkeypatch):
    solver = oracle.Solver
    monkeypatch.setattr(oracle, "Solver",
                        lambda: solver(max_states=1000))
    code, out, err = run(capsys, "oracle", "--word", "00100101")
    assert code == 1
    assert out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


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


def test_embed_default_width(capsys):
    for words, width in (("1000,01", 14), ("00000", 12)):
        code, out, _ = run(capsys, "embed", "--words", words)
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 9
        assert {len(row) for row in rows} == {width}


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    # every command of README's "Command line" block exits 0
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = fh.read().split("## Command line\n\n```sh\n")[1]
    block = block.split("```")[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in
                block.splitlines()]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "pawnnim"
        assert run(capsys, *argv[1:])[0] == 0, argv


def test_embed_dimension_usage_error(capsys):
    code, _, err = run(capsys, "embed", "--words", "0000000", "--width",
                       "12")
    assert code == 2
    assert "too small" in err


@pytest.mark.parametrize("bad", [["--height", "8"], ["--width", "5"]])
def test_embed_usage_error_keeps_an_existing_output(capsys, tmp_path, bad):
    # the request is checked before --output is opened, so a bad
    # dimension leaves the file as it was
    path = tmp_path / "out.txt"
    path.write_text("kept\n")
    code, _, err = run(capsys, "embed", "--words", "1000", *bad,
                       "--output", str(path))
    assert code == 2 and "error" in err
    assert path.read_text() == "kept\n"


def test_invalid_word_message_names_the_word(capsys):
    # the CLI reports words.require_valid's message, which names the word
    code, _, err = run(capsys, "embed", "--words", "1000,0110")
    assert code == 2
    assert "invalid word 0110: adjacent stopped files at index 1" in err
    code, _, err = run(capsys, "eval", "0110")
    assert "invalid word 0110: adjacent stopped files at index 1" in err


def test_only_threaded_scans_import_concurrent_futures():
    # one worker runs its share in the caller; two start threads
    script = ("import sys\nfrom pawnnim.experiments import ScanTables\n"
              "ScanTables(chunk_size=20, workers=int(sys.argv[1])).build(12)\n"
              "print('concurrent.futures' in sys.modules)")
    assert _fresh_python(script, "1") == "False\n"
    assert _fresh_python(script, "2") == "True\n"
