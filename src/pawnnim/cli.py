"""Command-line front end.

Subcommands: eval (component value and per-move classes), scan
(exhaustive distribution / first-occurrence sweeps), periodic (periodic
pattern runs with period detection), oracle (raw game-tree checks),
tables (recompute built-in regression tables and diff), embed (chessboard
diagrams).

Exit status: 0 on success, 1 when a computation disagrees with a built-in
table or an invariant fails or standard output is closed early, or when
the compiled kernel is not cached and cannot be built (no C compiler), 2
for usage or validation errors, 130 when interrupted (SIGINT, as by
Ctrl-C).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import contextmanager

# each handler imports the modules it runs, so a process loads only what
# its subcommand needs: --version no other package module, and embed,
# oracle, eval and tables --which thm2 not numpy, which only experiments
# and grundy's whole-array functions import
from . import KernelError, __version__

OK, MISMATCH, USAGE, INTERRUPTED = 0, 1, 2, 130


class UsageError(Exception):
    pass


def _parse_word(text: str):
    from .words import Word, require_valid
    try:
        return require_valid(Word(text))
    except ValueError as exc:
        raise UsageError(str(exc))


@contextmanager
def _output(path: str):
    """The ``--output`` stream, opened before any computation starts so an
    unwritable path is a usage error, not work thrown away.  A new file,
    or a regular one (a symlink's target too) with no other hard link, is
    written beside itself with its mode and owner and renamed into place
    only when the run succeeds, so a failed run leaves an old report as it
    was.  Any other path, or one whose mode or owner cannot be kept, is
    written through."""
    if path == "-":
        yield sys.stdout
        return
    if os.path.isdir(path):
        raise UsageError(f"cannot write --output {path}: Is a directory")
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    st, fh = os.stat(path) if os.path.exists(path) else None, None
    try:
        if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                          and os.access(path, os.W_OK)):
            try:
                fh = open(tmp, "x", encoding="utf-8")
                if st is not None:
                    os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
                    os.fchown(fh.fileno(), st.st_uid, st.st_gid)
            except OSError:
                if st is None:
                    raise
                if fh is not None:
                    fh.close()
                    os.remove(tmp)
                    fh = None
        if fh is None:
            tmp, fh = None, open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write --output {path}: {exc.strerror}")
    try:
        with fh:
            yield fh
        if tmp is not None:
            os.replace(tmp, target)
    except BaseException:
        if tmp is not None:
            os.remove(tmp)
        raise


def _workers(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    return args.workers


# -- subcommand handlers ----------------------------------------------------

def cmd_eval(args) -> int:
    word = _parse_word(args.word)
    from . import engine, grundy
    table = grundy.GrundyTable()
    value = grundy.epsilon(word, table)
    print(f"epsilon({word}) = {value}")
    if args.moves:
        for k in range(len(word)):
            cls = engine.classify_move(word, k, table)
            text = "loony" if cls < 0 else f"value {cls}"
            print(f"file {k + 1}: {text}")
    return OK


def cmd_scan(args) -> int:
    from . import experiments
    if not 0 <= args.length <= experiments.MAX_SCAN_LENGTH:
        raise UsageError(f"--length must be between 0 and "
                         f"{experiments.MAX_SCAN_LENGTH}")
    # a value of k needs at least k files
    if (args.first_occurrence
            and not 1 <= args.max_k <= experiments.MAX_SCAN_LENGTH):
        raise UsageError(f"--max-k must be between 1 and "
                         f"{experiments.MAX_SCAN_LENGTH}")
    workers = _workers(args)
    with _output(args.output) as fh:
        tables = experiments.ScanTables(workers=workers)
        if args.distribution:
            result = experiments.value_distribution(args.length, tables)
        else:
            result = experiments.first_occurrence(args.max_k, args.length,
                                                  tables)
            missing = [k for k in range(1, args.max_k + 1)
                       if k not in result.lengths]
            if missing:
                print(f"values not reached by length {args.length}: "
                      f"{missing}", file=sys.stderr)
        experiments.write_report(result, args.format, fh)
    return OK


def cmd_periodic(args) -> int:
    from . import experiments
    from .words import PeriodicPattern
    if args.max_length < 0:
        raise UsageError("--max-length must be nonnegative")
    try:
        stopped = frozenset(int(r) for r in args.stopped.split(",") if r != "")
    except ValueError:
        raise UsageError(f"--stopped must be comma-separated integers, "
                         f"got {args.stopped!r}")
    try:
        pattern = PeriodicPattern(args.period, stopped, args.origin)
    except ValueError as exc:
        raise UsageError(str(exc))
    with _output(args.output) as fh:
        result = experiments.periodic_scan(pattern, args.max_length,
                                           detect=args.detect_period)
        experiments.write_report(result, args.format, fh)
    if args.powers_of_two:
        for power, length in sorted(result.milestones.items()):
            print(f"first *{power} at length {length}", file=sys.stderr)
    if args.detect_period:
        rep = result.report
        if rep is None:
            print("no period found in computed range", file=sys.stderr)
        else:
            state = "verified" if rep.verified else "observed"
            print(f"period {rep.period} after preperiod {rep.preperiod} "
                  f"({state}, window {rep.window[0]}..{rep.window[1]})",
                  file=sys.stderr)
    return OK


def cmd_oracle(args) -> int:
    word = _parse_word(args.word)
    if args.max_heap < 0:
        raise UsageError("--max-heap must be nonnegative")
    from . import oracle
    try:
        value = oracle.oracle_epsilon(word, args.max_heap)
        print(f"oracle epsilon({word}) = {value}")
        if not args.check_loony:
            return OK
        from . import engine, grundy
        table = grundy.GrundyTable()
        status = OK
        for k in range(len(word)):
            orc = oracle.oracle_is_loony(word, k, args.max_heap)
            eng = engine.classify_move(word, k, table) < 0
            agree = "" if orc == eng else "  << disagrees with engine"
            if orc != eng:
                status = MISMATCH
            print(f"file {k + 1}: {'loony' if orc else 'not loony'}{agree}")
        return status
    except oracle.NonUniqueHeapError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return MISMATCH
    except oracle.ResourceLimitError as exc:
        # a search passed the solver's state bound
        print(f"resource limit: {exc}", file=sys.stderr)
        return MISMATCH


def cmd_tables(args) -> int:
    from .words import PeriodicPattern
    which = args.which
    if args.alpha_max is not None and which != "p6":
        raise UsageError("--alpha-max applies to --which p6 only")
    workers = _workers(args)
    if which == "thm2":
        from . import grundy
        limit = 2000
        values = grundy.PeriodicTable(PeriodicPattern(1, frozenset()),
                                      limit).values()
        bad = [m for m in range(limit + 1)
               if values[m] != grundy.epsilon_plain(m)]
        return _verdict("thm2", f"recursion vs closed form to m={limit}",
                        not bad)
    from . import experiments, reference
    if which == "first-occurrence":
        maxk = reference.FIRST_OCCURRENCE_DEFAULT_MAX
        expected = {k: reference.FIRST_OCCURRENCE_LENGTHS[k]
                    for k in range(1, maxk + 1)}
        found = experiments.first_occurrence(
            maxk, max(expected.values()),
            experiments.ScanTables(workers=workers))
        return _verdict("first-occurrence", f"least lengths for 1..{maxk}",
                        dict(sorted(found.lengths.items())) == expected)
    if which == "distribution35":
        expected = reference.DISTRIBUTION_PERCENT_2SF[35]
        row = experiments.value_distribution(
            35, experiments.ScanTables(workers=workers))
        got = [experiments.two_sig_figs(100.0 * row.counts.get(v, 0)
                                        / row.total)
               for v in range(10)]
        return _verdict("distribution35", f"{got} vs {expected}",
                        got == expected)
    if which == "p6":
        alpha_max = (reference.P6_DEFAULT_MAX_ALPHA if args.alpha_max is None
                     else args.alpha_max)
        if not 3 <= alpha_max <= max(reference.P6_MILESTONES):
            raise UsageError(f"--alpha-max must be between 3 and "
                             f"{max(reference.P6_MILESTONES)}")
        expected = {2 ** a: reference.P6_MILESTONES[a]
                    for a in range(3, alpha_max + 1)}
        pattern = PeriodicPattern(6, frozenset({4}))
        scan = experiments.periodic_scan(pattern,
                                         max(expected.values()) + 1,
                                         detect=False)
        got = {p: scan.milestones.get(p) for p in expected}
        return _verdict("p6", f"{got} vs {expected}", got == expected)
    raise UsageError(f"unknown table {which!r}")


def _verdict(name: str, detail: str, ok: bool) -> int:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return OK if ok else MISMATCH


def build_diagram(comps, height, width):
    from .embed import embed
    return embed(comps, height, width)


def render(diag, format):
    from .embed import render
    return render(diag, format)


def cmd_embed(args) -> int:
    comps = [_parse_word(t) for t in args.words.split(",") if t]
    if not comps:
        raise UsageError("need at least one component word")
    from .embed import EmbedError, layout
    # checked before the output is opened, so a usage error leaves an
    # existing file as it was
    try:
        layout(comps, args.height, args.width)
    except EmbedError as exc:
        raise UsageError(str(exc))
    with _output(args.output) as fh:
        diag = build_diagram(comps, args.height, args.width)
        fh.write(render(diag, args.format) + "\n")
    return OK


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pawnnim",
        description="Nim values and experiments for the pawns game with "
                    "stopped files")
    parser.add_argument("--version", action="version",
                        version=f"pawnnim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="value of one component word")
    p.add_argument("word")
    p.add_argument("--moves", action="store_true",
                   help="also classify the move on every file")
    p.set_defaults(func=cmd_eval)

    def add_output(sp, formats=None):
        sp.add_argument("--output", default="-", metavar="PATH",
                        help="output file, '-' for standard output")
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[0])

    def add_workers(sp):
        sp.add_argument("--workers", type=int, default=1,
                        help="scan worker threads")

    p = sub.add_parser("scan", help="exhaustive sweep over all words")
    p.add_argument("--length", type=int, required=True, metavar="M")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--distribution", action="store_true",
                       help="value counts over all words of length M")
    group.add_argument("--first-occurrence", action="store_true",
                       help="least lengths attaining 1..K, scanning to M")
    p.add_argument("--max-k", type=int, default=4, metavar="K")
    add_output(p, ["csv", "jsonl"])
    add_workers(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("periodic", help="periodic stopping-pattern run")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--stopped", default="",
                   help="comma-separated stopped residues mod the period")
    p.add_argument("--origin", type=int, default=1,
                   help="file number of the first component file")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--powers-of-two", action="store_true",
                   help="report the least length per power-of-two value")
    p.add_argument("--detect-period", action="store_true")
    add_output(p, ["csv", "jsonl"])
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("oracle", help="raw game-tree checks")
    p.add_argument("--word", required=True)
    p.add_argument("--max-heap", type=int, default=3, metavar="J")
    p.add_argument("--check-loony", action="store_true",
                   help="test every move against the classification engine")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("tables",
                       help="recompute a built-in table and diff it")
    p.add_argument("--which", required=True,
                   choices=["thm2", "first-occurrence", "distribution35",
                            "p6"])
    p.add_argument("--alpha-max", type=int,
                   help="p6 only: highest power-of-two exponent to check")
    add_workers(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("embed", help="chessboard diagram for components")
    p.add_argument("--words", required=True,
                   help="comma-separated component words")
    p.add_argument("--height", type=int, default=9)
    p.add_argument("--width", type=int,
                   help="board files (default: from the components)")
    p.add_argument("--format", choices=["ascii", "fen"], default="ascii")
    p.add_argument("--output", default="-", metavar="PATH",
                   help="output file, '-' for standard output")
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    # numpy starts OpenBLAS's thread pool on import, and the program makes
    # no BLAS call; a count the caller set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed standard output early; point it at devnull so
        # the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return MISMATCH
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MISMATCH
    except KeyboardInterrupt:
        # _output has already removed its temporary file
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
