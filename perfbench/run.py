"""pawnnim benchmark: CLI jobs end to end, and a traced per-module run.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 28 --trace 0

Run it from the repository root; it runs the package in ``src`` with the
interpreter that runs this script.

Workloads (job lists in ``jobs.py``):

- ``eval``: ``eval WORD --moves`` on one seeded word per length 60..150,
  a quarter of the files stopped.  Cold single-word memo (GrundyTable)
  plus move classification; the numpy engines are not used.
- ``verify``: ``tables --which thm2`` (a 2000-file unstopped run whose
  subwords are almost all shared), ``oracle --check-loony`` on four words
  of 7-8 files (one fixed, three seeded to a fixed summed search size) and
  one seeded ``embed``.  The only workload that reaches the oracle and the
  embedder.
- ``scan``: ``tables --which first-occurrence`` with one and with two
  workers, and ``scan --length 29 --distribution`` with one.  Exhaustive
  sweeps.
- ``periodic``: ``tables --which p6`` and the mod-14 family to 3941 with
  period detection.  Phase tables, period detection and proof check.

With ``--trace 0`` the jobs run as CLI processes in a closed loop with one
client: each job starts when the previous one has exited.  Whole passes
over the job list repeat while another pass fits in ``--seconds``.  The
end-to-end metrics are the median over passes of

- ``wall_s``: first job's start to last job's exit,
- ``cpu_s``: user plus system time of the job processes, from each
  child's own ``wait4`` rusage,
- ``peak_rss_mb``: the largest max-RSS of one job process,

and ``setup_s``, the median wall time of ``pawnnim --version`` (interpreter,
numpy and package import, argument parsing), timed half before and half
after the passes, so that it samples the host over the whole run.

With ``--trace 1`` one CLI pass runs, then the same jobs go through
``pawnnim.cli.main`` in-process twice (``replay.py``), untraced and traced;
the per-layer metrics come from the traced replay's spans and counts.
Layers a workload does not reach are measured on the small probe jobs of
``jobs.PROBES``.  ``cli.overhead_s`` is the CLI pass's wall time minus the
untraced in-process walls of the same jobs: process start, imports and
argument parsing.

The scan jobs compare one and two worker threads; on fewer than two cores
the benchmark refuses to run.

Every job's exit code and output digest is checked against
``golden.json``; a miss counts as a failed job.  The last line of standard
output is one JSON object (correct, attempted, failed, metrics); the full
record with provenance goes to ``perfbench/out/<workload>-<seed>-<trace>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import jobs as jobmod  # noqa: E402

# a run must end within 180 s: processes still running this long after
# the start are killed, and their jobs fail
RUN_LIMIT_S = 170
SETUP_CALLS = 5  # before the passes, and again after them

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

# per-layer metric -> unit; "self_s" is the summed self time of the spans
# of that name, "calls" their number
PER_LAYER = {
    "grundy.GrundyTable.epsilon.self_s": "s",
    "grundy.GrundyTable.epsilon.calls": "count",
    "grundy.GrundyTable.entries": "count",
    "grundy.GrundyTable.colon_entries": "count",
    "grundy.GrundyTable.new_entry_ratio": "ratio",
    "engine.classify_move.self_s": "s",
    "engine.classify_move.calls": "count",
    "experiments.ScanTables.build.self_s": "s",
    "experiments.ScanTables.build.w1.self_s": "s",
    "experiments.ScanTables.build.w2.self_s": "s",
    "experiments.ScanTables.words": "count",
    "experiments.ScanTables.bytes": "bytes",
    "experiments.scan.parallel_efficiency": "ratio",
    "experiments.first_occurrence.self_s": "s",
    "experiments.value_distribution.self_s": "s",
    "grundy.PeriodicTable.extend.self_s": "s",
    "grundy.PeriodicTable.cells": "count",
    "grundy.PeriodicTable.bytes": "bytes",
    "grundy.detect_period.self_s": "s",
    "grundy.verify_period_window.self_s": "s",
    "experiments.power_milestones.self_s": "s",
    "experiments.write_report.self_s": "s",
    "experiments.write_report.bytes": "bytes",
    "grundy.PeriodicTable.save.self_s": "s",
    "grundy.PeriodicTable.save.bytes": "bytes",
    "grundy.PeriodicTable.load.self_s": "s",
    "oracle.oracle_is_loony.self_s": "s",
    "oracle.oracle_epsilon.self_s": "s",
    "oracle.Solver.states": "count",
    "embed.embed.self_s": "s",
    "embed.render.self_s": "s",
    "embed.extract_components.self_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def child_env(root: Path) -> dict:
    """The caller's environment with the package path and every thread
    count pinned, so the caller cannot change the load."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), PAWNNIM_WORKERS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(argv, env, cwd, scratch: Path, timeout: float = RUN_LIMIT_S):
    """Run one process to completion, killing it after ``timeout`` seconds.
    Returns (rc, stdout, stderr, wall seconds, cpu seconds, max RSS in MB),
    the rusage being the child's own from wait4."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as so, open(err_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=cwd)
        fd = os.pidfd_open(proc.pid)
        try:
            if not select.select([fd], [], [], max(timeout, 1.0))[0]:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return (proc.returncode, stdout, stderr, wall,
            ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


class Runner:
    """Runs CLI jobs and checks each against its golden digest."""

    def __init__(self, root: Path, scratch: Path, golden: dict,
                 deadline: float = float("inf")):
        self.root, self.scratch, self.golden = root, scratch, golden
        self.deadline = deadline  # perf_counter time
        self.env = child_env(root)
        self.cli = [sys.executable, "-m", "pawnnim.cli"]
        self.records = []  # every job run, in order

    def job(self, job_id: str) -> dict:
        out = self.scratch / "job.out"
        if out.exists():
            out.unlink()
        argv = jobmod.argv_for(job_id, str(out))
        rc, stdout, stderr, wall, cpu, rss = run_child(
            self.cli + argv, self.env, self.root, self.scratch,
            min(RUN_LIMIT_S, self.deadline - time.perf_counter()))
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        digest = jobmod.output_digest(rc, stdout, stderr, text)
        rec = {"id": job_id, "rc": rc, "digest": digest, "wall_s": wall,
               "cpu_s": cpu, "maxrss_mb": rss,
               "ok": jobmod.check(self.golden, job_id, rc, digest)}
        if not rec["ok"]:
            rec["stderr_tail"] = stderr[-2000:]
        self.records.append(rec)
        return rec

    def run_pass(self, job_ids) -> dict:
        t0 = time.perf_counter()
        recs = [self.job(i) for i in job_ids]
        return {"wall_s": time.perf_counter() - t0,
                "cpu_s": sum(r["cpu_s"] for r in recs),
                "peak_rss_mb": max(r["maxrss_mb"] for r in recs),
                "jobs": recs}


def replay(root: Path, scratch: Path, job_ids, trace: bool,
           timeout: float = RUN_LIMIT_S) -> dict:
    """Replay the jobs in a fresh interpreter (its memory stays out of
    this process, whose high-water mark every later child inherits)."""
    spec = {"src": str(root / "src"), "trace": trace,
            "jobs": [[i, jobmod.argv_for(i, str(scratch / f"{i}.out"))]
                     for i in job_ids]}
    spec_path = scratch / "replay-jobs.json"
    result_path = scratch / "replay-result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    rc, _, stderr, *_ = run_child(
        [sys.executable, str(HERE / "replay.py"), str(spec_path),
         str(result_path)], child_env(root), root, scratch, timeout)
    if rc != 0:
        raise RuntimeError(f"replay failed with exit code {rc}:\n{stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def layer_metrics(traced: dict, untraced: dict, cli_pass: dict) -> dict:
    spans = traced["spans"]
    counts = traced["counts"]
    self_s, calls = {}, {}
    for s in spans:
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + s["self_s"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    m = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            m[name] = self_s.get(base, 0.0)
        elif kind == "calls":
            m[name] = calls.get(base, 0)
        elif name in counts:
            m[name] = counts[name]
    requested = counts["grundy.GrundyTable.requested"]
    m["grundy.GrundyTable.new_entry_ratio"] = (
        counts["grundy.GrundyTable.added"] / requested if requested else 0.0)
    # the same scan with one and with two workers: jobs "<x>.w1", "<x>.w2"
    build = {"w1": 0.0, "w2": 0.0}
    for s in spans:
        kind = s["job"].rpartition(".")[2]
        if s["name"] == "experiments.ScanTables.build" and kind in build:
            build[kind] += s["self_s"]
    m["experiments.ScanTables.build.w1.self_s"] = build["w1"]
    m["experiments.ScanTables.build.w2.self_s"] = build["w2"]
    m["experiments.scan.parallel_efficiency"] = (
        build["w1"] / (2 * build["w2"]) if build["w2"] else 0.0)
    # the CLI pass's jobs come first in the replays; the in-process wall
    # of a job is its work without process start, imports and parsing
    cli_jobs = untraced["jobs"][:len(cli_pass["jobs"])]
    in_process = sum(j["wall_s"] for j in cli_jobs)
    m["cli.overhead_s"] = cli_pass["wall_s"] - in_process
    m["trace.overhead_s"] = (sum(j["wall_s"] for j in traced["jobs"])
                             - sum(j["wall_s"] for j in untraced["jobs"]))
    return {name: m[name] for name in PER_LAYER}


def provenance(root: Path, workload: str, seed: int, job_ids) -> dict:
    git_sha = dirty = None
    if (root / ".git").exists():
        def git(*a):
            return subprocess.run(["git", "-C", str(root), *a],
                                  capture_output=True, text=True).stdout
        git_sha = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    jobs = jobmod.all_jobs()
    return {"git_sha": git_sha, "git_dirty": dirty, "src_sha256": h.hexdigest(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": jobmod.nproc(), "workload": workload, "seed": seed,
            "jobs": [[i, jobs[i]] for i in job_ids],
            "inputs_sha256": jobmod.list_digest(job_ids, jobs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=jobmod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "pawnnim" / "cli.py").is_file():
        print(f"perfbench: no package sources at {root / 'src' / 'pawnnim'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    if jobmod.nproc() < jobmod.MAX_WORKERS:
        print(f"perfbench: the scan jobs use {jobmod.MAX_WORKERS} worker "
              f"threads, and only {jobmod.nproc()} core(s) are available",
              file=sys.stderr)
        return 2
    golden = jobmod.load_golden()
    job_ids = jobmod.job_list(args.workload, args.seed)
    scratch = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, scratch, golden, t_start + RUN_LIMIT_S)

    runner.job("version")  # warm-up: byte-code caches, file cache
    setup = [runner.job("version")["wall_s"] for _ in range(SETUP_CALLS)]

    t_measure = time.perf_counter()
    passes = []
    while True:
        passes.append(runner.run_pass(job_ids))
        if args.trace or (time.perf_counter() - t_measure
                          + passes[-1]["wall_s"] > args.seconds):
            break
    setup += [runner.job("version")["wall_s"] for _ in range(SETUP_CALLS)]

    replays = {}
    if args.trace:
        replay_ids = job_ids + [p for group in jobmod.PROBES[args.workload]
                                for p in jobmod.PROBE_GROUPS[group]]
        for trace in (False, True):
            replays[trace] = replay(root, scratch, replay_ids, trace,
                                    runner.deadline - time.perf_counter())
        metrics = layer_metrics(replays[True], replays[False], passes[0])
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setup),
        }
    units = PER_LAYER if args.trace else END_TO_END

    checks = [(r["id"], r["rc"], r["digest"], r["ok"]) for r in runner.records]
    for res in replays.values():
        checks += [(j["id"], j["rc"], j["digest"],
                    jobmod.check(golden, j["id"], j["rc"], j["digest"])
                    and j.get("roundtrip_ok", True))
                   for j in res["jobs"]]
    attempted = len(checks)
    failed = sum(1 for c in checks if not c[3])
    first_pass = [(r["id"], r["rc"], r["digest"]) for r in passes[0]["jobs"]]

    record = {
        "provenance": provenance(root, args.workload, args.seed, job_ids),
        "trace": args.trace, "seconds": args.seconds,
        "passes": len(passes), "setup_walls_s": setup,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "output_sha256": jobmod.combined_digest(first_pass),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "cli_passes": passes,
        "replays": {("traced" if t else "untraced"): r
                    for t, r in replays.items()},
    }
    record["provenance"]["elapsed_s"] = time.perf_counter() - t_start
    (scratch / "result.json").write_text(json.dumps(record, indent=1),
                                         encoding="utf-8")
    for path in scratch.iterdir():
        if path.name != "result.json":
            path.unlink()

    for job_id, rc, digest, ok in checks:
        if not ok:
            print(f"FAILED {job_id}: exit {rc}, digest {digest[:16]}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) "
          f"of {len(job_ids)} jobs, inputs {record['provenance']['inputs_sha256'][:16]}, "
          f"outputs {record['output_sha256'][:16]}")
    print(f"{'failed_frac':44s} {failed / attempted:12.6g} ratio "
          f"({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name:44s} {value:12.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
