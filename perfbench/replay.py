"""In-process replay of CLI jobs, with optional tracing.

Each job runs through the program's own entry point, ``pawnnim.cli.main``,
in this interpreter, with its standard output and error captured, so the
digest gate applies here as it does to the CLI processes.  With tracing
on, the module functions the CLI reaches are wrapped for the run and
restored after it: every call into a layer is a span, and nested spans
separate build time from query time (``ScanTables.build`` inside
``first_occurrence``, ``PeriodicTable.extend`` inside the periodic scan),
because a span's self time leaves out its children.

After each traced job, round trips the CLI does not make check what the
job built: every phase table goes through ``PeriodicTable.save`` and
``.load``, every diagram through ``extract_components``.  Their spans
carry the job id ``<id>+roundtrip``, apart from the job's own.

Run as a script by ``run.py``:

    python3 perfbench/replay.py JOBS.json RESULT.json

JOBS.json holds ``{"src": ..., "trace": bool, "jobs": [[id, argv], ...]}``.
RESULT.json receives per-job exit codes, digests, wall times and round
trip verdicts, the spans with their self times, and the computed counts.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import sys
import time
import traceback
from contextlib import (contextmanager, nullcontext, redirect_stderr,
                        redirect_stdout)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import jobs as jobmod  # noqa: E402

_NULL = nullcontext()


class Tracer:
    """Spans kept in memory: name, start, end, parent index and job id.
    Disabled, ``span`` costs one attribute test."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.job = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, None, tracer.job]

    def __enter__(self):
        t = self.tracer
        self.rec[3] = t._stack[-1] if t._stack else None
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans) -> "list[float]":
    """Each span's duration minus the durations of its direct children
    (children nest inside their parent, so they never overlap)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


COUNTS = ("grundy.GrundyTable.entries", "grundy.GrundyTable.colon_entries",
          "grundy.GrundyTable.added", "grundy.GrundyTable.requested",
          "experiments.ScanTables.words", "experiments.ScanTables.bytes",
          "grundy.PeriodicTable.cells", "grundy.PeriodicTable.bytes",
          "experiments.write_report.bytes", "grundy.PeriodicTable.save.bytes",
          "oracle.Solver.states")


class Replay:
    """Runs CLI jobs in-process against the package on ``sys.path``."""

    def __init__(self, tracer: Tracer, workdir: str):
        # the package re-exports some functions under their module's name
        # (pawnnim.embed), so the modules are looked up by full name
        for name in ("cli", "embed", "engine", "experiments", "grundy",
                     "oracle"):
            setattr(self, name, importlib.import_module("pawnnim." + name))
        self.tr = tracer
        self.workdir = workdir
        self.counts = dict.fromkeys(COUNTS, 0)
        # objects the current job created, collected by the instrumentation
        self.grundy_tables, self.solvers = [], []  # solvers: of one call
        self.phase_tables, self.diagrams = [], []

    def run(self, job_id: str, argv: list) -> dict:
        """Run one job; returns its exit code, output digest and wall time,
        and with tracing the verdict of its round trips."""
        self.tr.job = job_id
        out = argv[argv.index("--output") + 1] if "--output" in argv else "-"
        if out != "-" and os.path.exists(out):
            os.remove(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # what the interpreter would exit with
                traceback.print_exc()
                rc = 1
        wall = time.perf_counter() - t0
        text = ""
        if out != "-" and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
        result = {"id": job_id, "rc": rc, "wall_s": wall,
                  "digest": jobmod.output_digest(rc, stdout.getvalue(),
                                                 stderr.getvalue(), text)}
        if self.tr.enabled:
            self._count_job()
            result["roundtrip_ok"] = self._round_trips(job_id)
        return result

    def _count_job(self):
        c = self.counts
        for table in self.grundy_tables:
            c["grundy.GrundyTable.entries"] += len(table)
            c["grundy.GrundyTable.colon_entries"] += len(table.colon)
        self.grundy_tables.clear()

    def _round_trips(self, job_id: str) -> bool:
        """Save and load every phase table the job built, and read every
        diagram it drew back into component words."""
        self.tr.job = job_id + "+roundtrip"
        span, ok = self.tr.span, True
        path = os.path.join(self.workdir, "phase-table.npz")
        for table in self.phase_tables:
            with span("grundy.PeriodicTable.save"):
                table.save(path)
            self.counts["grundy.PeriodicTable.save.bytes"] += \
                os.path.getsize(path)
            with span("grundy.PeriodicTable.load"):
                back = self.grundy.PeriodicTable.load(path)
            os.remove(path)
            ok = ok and back.n == table.n and all(
                (getattr(back, a) == getattr(table, a)).all()
                for a in ("E", "CF", "CR"))
        for comps, diagram in self.diagrams:
            with span("embed.extract_components"):
                back = self.embed.extract_components(diagram)
            ok = ok and back == list(comps)
        self.phase_tables.clear()
        self.diagrams.clear()
        return ok


@contextmanager
def instrumented(rp: Replay):
    """Wrap the module functions and methods the CLI reaches in spans, and
    collect what they create; every attribute is restored on exit."""
    cli, eng, exp, grundy, oracle = (rp.cli, rp.engine, rp.experiments,
                                     rp.grundy, rp.oracle)
    span, counts = rp.tr.span, rp.counts
    saved = []

    def patch(owner, attr, make):
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def spanned(name):
        def make(fn):
            def wrapped(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)
            return wrapped
        return make

    for owner, attr, name in (
            # the CLI fills and queries its GrundyTable through epsilon
            (grundy, "epsilon", "grundy.GrundyTable.epsilon"),
            (eng, "classify_move", "engine.classify_move"),
            (exp, "first_occurrence", "experiments.first_occurrence"),
            (exp, "value_distribution", "experiments.value_distribution"),
            (exp, "power_milestones", "experiments.power_milestones"),
            # periodic_scan calls the name it imported from grundy
            (exp, "detect_period", "grundy.detect_period"),
            (grundy, "verify_period_window", "grundy.verify_period_window"),
            # the CLI calls embed and render by the names it imported
            (cli, "render", "embed.render")):
        patch(owner, attr, spanned(name))

    def oracle_call(name):
        # the states of the searches one call made; the searches are let
        # go at once, as they are without tracing
        def make(fn):
            def wrapped(*args, **kwargs):
                try:
                    with span(name):
                        return fn(*args, **kwargs)
                finally:
                    counts["oracle.Solver.states"] += sum(
                        len(s.memo) for s in rp.solvers)
                    rp.solvers.clear()
            return wrapped
        return make

    def scan_build(fn):
        def wrapped(self, max_m):
            tiers = len(self.EPS)
            with span("experiments.ScanTables.build"):
                fn(self, max_m)
            counts["experiments.ScanTables.words"] += sum(
                e.size for e in self.EPS[tiers:])
            counts["experiments.ScanTables.bytes"] += sum(
                a.nbytes for a in self.EPS[tiers:] + self.CL[tiers:])
        return wrapped

    def phase_extend(fn):
        def nbytes(table):
            return table.E.nbytes + table.CF.nbytes + table.CR.nbytes

        def wrapped(self, n):
            cells, size = self.E.size, nbytes(self)
            with span("grundy.PeriodicTable.extend"):
                fn(self, n)
            counts["grundy.PeriodicTable.cells"] += self.E.size - cells
            counts["grundy.PeriodicTable.bytes"] += nbytes(self) - size
            if all(t is not self for t in rp.phase_tables):
                rp.phase_tables.append(self)
        return wrapped

    def report(fn):
        def wrapped(result, format, fh):
            start = fh.tell()
            with span("experiments.write_report"):
                fn(result, format, fh)
            counts["experiments.write_report.bytes"] += fh.tell() - start
        return wrapped

    def diagram(fn):
        def wrapped(comps, height, width):
            with span("embed.embed"):
                diag = fn(comps, height, width)
            rp.diagrams.append((tuple(comps), diag))
            return diag
        return wrapped

    def grundy_init(fn):
        def wrapped(self):
            fn(self)
            rp.grundy_tables.append(self)
        return wrapped

    def grundy_ensure(fn):
        # subwords a fill adds, against the subwords it requests (every
        # contiguous subword, in both orientations)
        def wrapped(self, word):
            if word.key in self._done:
                return fn(self, word)
            entries = len(self.eps)
            fn(self, word)
            counts["grundy.GrundyTable.added"] += len(self.eps) - entries
            counts["grundy.GrundyTable.requested"] += (
                word.length * (word.length + 1))
        return wrapped

    class CountingSolver(oracle.Solver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rp.solvers.append(self)

    patch(exp.ScanTables, "build", scan_build)
    patch(grundy.PeriodicTable, "extend", phase_extend)
    patch(exp, "write_report", report)
    patch(cli, "build_diagram", diagram)
    patch(grundy.GrundyTable, "__init__", grundy_init)
    patch(grundy.GrundyTable, "ensure", grundy_ensure)
    patch(oracle, "Solver", lambda fn: CountingSolver)
    for attr in ("oracle_epsilon", "oracle_is_loony"):
        patch(oracle, attr, oracle_call("oracle." + attr))
    try:
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def main(jobs_path: str, result_path: str) -> int:
    with open(jobs_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    tracer = Tracer(spec["trace"])
    replay = Replay(tracer, os.path.dirname(os.path.abspath(result_path)))
    with instrumented(replay) if spec["trace"] else nullcontext():
        results = [replay.run(job_id, argv) for job_id, argv in spec["jobs"]]
    own = self_times(tracer.spans)
    spans = [{"name": name, "start": start, "end": end, "parent": parent,
              "job": job, "self_s": s}
             for (name, start, end, parent, job), s in zip(tracer.spans, own)]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": results, "spans": spans, "counts": replay.counts},
                  fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
