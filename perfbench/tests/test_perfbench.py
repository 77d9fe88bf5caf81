"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  They start a few small CLI processes and
in-process replays of the probe jobs; a few seconds in all.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import jobs as jobmod  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    assert jobmod.pool_jobs() == jobmod.pool_jobs()
    for workload in jobmod.WORKLOADS:
        for seed in (0, 1, 12345):
            ids = jobmod.job_list(workload, seed)
            assert ids == jobmod.job_list(workload, seed)
            assert (jobmod.list_digest(ids)
                    == jobmod.list_digest(jobmod.job_list(workload, seed)))
    assert jobmod.job_list("eval", 1) != jobmod.job_list("eval", 2)
    assert jobmod.job_list("verify", 1) != jobmod.job_list("verify", 2)


def test_every_job_the_generator_draws_has_a_golden():
    golden = jobmod.load_golden()
    assert set(golden) == set(jobmod.all_jobs())
    for workload in jobmod.WORKLOADS:
        for seed in range(50):
            assert set(jobmod.job_list(workload, seed)) <= set(golden)


def test_digest_gate_fails_on_tampered_output(tmp_path):
    golden = jobmod.load_golden()
    out = tmp_path / "job.out"
    argv = jobmod.argv_for("probe.periodic", str(out))
    rc, stdout, stderr, *_ = run.run_child(
        [sys.executable, "-m", "pawnnim.cli", *argv], run.child_env(ROOT),
        ROOT, tmp_path)
    text = out.read_text()

    def ok(rc=rc, stdout=stdout, stderr=stderr, text=text):
        return jobmod.check(golden, "probe.periodic", rc,
                            jobmod.output_digest(rc, stdout, stderr, text))

    assert ok()
    lines = text.splitlines(keepends=True)
    data = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    length, value = lines[data].strip().split(",")
    lines[data] = f"{length},{int(value) + 1}\n"
    assert not ok(text="".join(lines))
    assert "period 12 after preperiod 106 (verified" in stderr
    assert not ok(stderr=stderr.replace("verified", "observed"))
    assert not ok(rc=1)
    assert not jobmod.check(golden, "no-such-job", rc, "0" * 64)
    # the checkpoint line and the header's parameters are results
    assert '"max_length": 500' in text
    assert not ok(text=text.replace('"max_length": 500', '"max_length": 499'))
    assert not ok(text=text.replace("max_length=500", "max_length=499"))
    # the package version and diagnostics are not
    assert text.startswith("# pawnnim 0.1.0 ")
    assert ok(text=text.replace("# pawnnim 0.1.0 ", "# pawnnim 0.2.0 "),
              stderr=stderr + "progress: 10 lengths/s\n")


def test_verify_can_draw_every_valid_word_of_7_and_8_files():
    words = {"".join(bits) for n in (7, 8)
             for bits in itertools.product("01", repeat=n)}
    assert set(jobmod.ORACLE_STATES) == {w for w in words if "11" not in w}
    band = jobmod.ORACLE_TOLERANCE * jobmod.ORACLE_TARGET
    others = sorted(set(jobmod.ORACLE_STATES) - {jobmod.ORACLE_FIXED})
    for combo in itertools.combinations(others, jobmod.ORACLE_DRAWN):
        total = sum(jobmod.ORACLE_STATES[w] for w in combo)
        if abs(total - jobmod.ORACLE_TARGET) <= band:
            others = [w for w in others if w not in combo]
    assert others == []


def test_oracle_search_sizes_are_the_programs(tmp_path):
    word = min(jobmod.ORACLE_STATES, key=jobmod.ORACLE_STATES.get)
    res = run.replay(ROOT, tmp_path, [f"oracle.{word}"], trace=True)
    assert res["counts"]["oracle.Solver.states"] == jobmod.ORACLE_STATES[word]


def test_child_rss_does_not_leak_into_the_next_child(tmp_path):
    env = run.child_env(ROOT)
    big = run.run_child(
        [sys.executable, "-c", "b = bytearray(b'x') * (160 << 20)"],
        env, ROOT, tmp_path)
    small = run.run_child([sys.executable, "-c", "pass"], env, ROOT, tmp_path)
    assert big[0] == small[0] == 0
    assert big[5] > 160
    assert small[5] < 80
    # the children's high-water mark would have carried the big child over
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert children > 160


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    ids = list(jobmod.PROBE_JOBS)
    return [run.replay(ROOT, tmp_path_factory.mktemp(f"replay{i}"), ids,
                       trace=True) for i in range(2)]


def test_computed_counts_repeat_exactly_across_traced_runs(traced_twice):
    a, b = traced_twice
    assert a["counts"] == b["counts"]
    assert all(v > 0 for v in a["counts"].values())
    assert (Counter(s["name"] for s in a["spans"])
            == Counter(s["name"] for s in b["spans"]))
    golden = jobmod.load_golden()
    for res in traced_twice:
        assert all(jobmod.check(golden, j["id"], j["rc"], j["digest"])
                   and j["roundtrip_ok"] for j in res["jobs"])


def test_instrumentation_is_removed_after_the_run(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    rp = replay.Replay(replay.Tracer(True), str(tmp_path))
    modules = [rp.cli, rp.engine, rp.experiments, rp.grundy, rp.oracle,
               rp.experiments.ScanTables, rp.grundy.PeriodicTable,
               rp.grundy.GrundyTable]
    before = [dict(vars(m)) for m in modules]
    with replay.instrumented(rp):
        assert rp.grundy.epsilon is not before[3]["epsilon"]
    assert [dict(vars(m)) for m in modules] == before


def test_traced_run_reaches_every_layer(traced_twice):
    traced = traced_twice[0]
    cli_pass = {"wall_s": 1.0, "jobs": []}
    metrics = run.layer_metrics(traced, traced, cli_pass)
    assert set(metrics) == set(run.PER_LAYER)
    nonzero = set(run.PER_LAYER) - {"cli.overhead_s", "trace.overhead_s"}
    assert all(metrics[name] > 0 for name in nonzero)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, None, "j"],
             ["b", 1.0, 4.0, 0, "j"],
             ["c", 2.0, 3.0, 1, "j"],
             ["d", 5.0, 6.0, 0, "j"]]
    assert replay.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobmod.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_package_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "eval", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_refuses_to_run_on_fewer_cores_than_workers(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(jobmod, "nproc", lambda: jobmod.MAX_WORKERS - 1)
    args = ["--workload", "eval", "--seed", "1", "--seconds", "1"]
    assert run.main(args) != 0
    assert capsys.readouterr().out == ""
