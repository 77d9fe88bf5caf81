"""Workload job lists, the seeded generator and the output digest gate.

A job is one ``pawnnim`` CLI invocation, named by an id that has an entry
in ``golden.json``: the exit code and output digest the CLI gave when the
benchmark was defined.  Seeded jobs are drawn from pools of words whose
goldens were captured together (see ``make_golden.py``), so any seed
yields a checkable job list while the program still sees only the drawn
words.  This module imports nothing from ``pawnnim`` or numpy: the
process that launches the CLI jobs must stay small, because a child's
max-RSS starts from its parent's high-water mark at exec.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = ("eval", "verify", "scan", "periodic")

# Placeholder filled in when a job is run: an output file of the job's own.
OUT = "{out}"

# Jobs whose inputs are the published reference computations.  Scan and
# tables jobs name --workers explicitly so the environment cannot change
# the load; the other subcommands have no threads.  Jobs whose ids end in
# ".w1" and ".w2" are the same work with one and with two workers.
FIXED_JOBS = {
    "thm2": ["tables", "--which", "thm2", "--workers", "1"],
    "first-occurrence.w1": ["tables", "--which", "first-occurrence",
                            "--workers", "1"],
    "first-occurrence.w2": ["tables", "--which", "first-occurrence",
                            "--workers", "2"],
    "distribution29": ["scan", "--length", "29", "--distribution",
                       "--workers", "1", "--output", OUT],
    "p6": ["tables", "--which", "p6", "--workers", "1"],
    "p14": ["periodic", "--period", "14", "--stopped", "0,5",
            "--max-length", "3941", "--detect-period", "--output", OUT],
}

# Small fixed jobs the traced run replays in-process for the layers a
# workload does not reach, so every per-layer metric is a measurement in
# every traced run.
PROBE_JOBS = {
    "probe.eval": ["eval", "1000100101000100100000101000100100", "--moves"],
    "probe.scan.w1": ["scan", "--length", "20", "--first-occurrence",
                      "--max-k", "8", "--workers", "1", "--output", OUT],
    "probe.scan.w2": ["scan", "--length", "20", "--first-occurrence",
                      "--max-k", "8", "--workers", "2", "--output", OUT],
    "probe.distribution": ["scan", "--length", "20", "--distribution",
                           "--workers", "1", "--output", OUT],
    "probe.periodic": ["periodic", "--period", "6", "--stopped", "0,2",
                       "--max-length", "500", "--detect-period",
                       "--powers-of-two", "--output", OUT],
    "probe.oracle": ["oracle", "--word", "10010", "--check-loony"],
    "probe.embed": ["embed", "--words", "1000,01,10100", "--height", "9",
                    "--width", "22"],
}

# Probe groups a workload's traced run adds, by the layers it lacks.
PROBES = {
    "eval": ("scan", "periodic", "oracle"),
    "verify": ("scan", "periodic"),
    "scan": ("eval", "periodic", "oracle"),
    "periodic": ("eval", "scan", "oracle"),
}
PROBE_GROUPS = {
    "eval": ("probe.eval",),
    "scan": ("probe.scan.w1", "probe.scan.w2", "probe.distribution"),
    "periodic": ("probe.periodic",),
    "oracle": ("probe.oracle", "probe.embed"),
}

VERSION_ARGV = ["--version"]

# eval: one word per length, a quarter of its files stopped at random.  At
# a fixed length and stop count the cost of a word hardly depends on where
# the stops fall, so different seeds give comparable job lists.
EVAL_LENGTHS = tuple(range(60, 151, 10))
EVAL_POOL_SIZE = 12
# verify: oracle --check-loony on words of 7 and 8 files.  The oracle's time
# follows the number of positions it searches (correlation 0.97 over all
# 89 valid words), and that number spans 23342 to 344463 positions, so a
# list of words drawn at random varies in cost far more than the bounds.
# A list therefore holds ORACLE_FIXED, whose single search is the largest
# (110399 positions; the next is 79658), so the workload's peak memory
# does not depend on the seed, and three distinct words drawn from all the
# others, drawn again until the positions they search sum to within
# ORACLE_TOLERANCE of ORACLE_TARGET.  The target lets every word be drawn.
ORACLE_FIXED = "00100101"
ORACLE_DRAWN = 3
ORACLE_TARGET = 400_000
ORACLE_TOLERANCE = 0.03
# positions searched (Solver states) by oracle --check-loony on each valid
# word of 7 and 8 files; computed counts, the same on every machine
ORACLE_STATES = {
    "0000000": 27413, "00000000": 48796, "00000001": 84774, "0000001": 33747,
    "00000010": 89222, "0000010": 54643, "00000100": 91425, "00000101": 119455,
    "0000100": 34824, "00001000": 60820, "00001001": 159203, "0000101": 63376,
    "00001010": 114111, "0001000": 27207, "00010000": 60700,
    "00010001": 111456, "0001001": 44557, "00010010": 130705, "0001010": 52788,
    "00010100": 123496, "00010101": 208600, "0010000": 38147,
    "00100000": 88168, "00100001": 130672, "0010001": 54270,
    "00100010": 149226, "0010010": 78528, "00100100": 165971,
    "00100101": 304292, "0010100": 52493, "00101000": 114693,
    "00101001": 222415, "0010101": 95800, "00101010": 222161, "0100000": 31910,
    "01000000": 53673, "01000001": 101958, "0100001": 43656,
    "01000010": 106287, "0100010": 51841, "01000100": 95266,
    "01000101": 166637, "0100100": 42547, "01001000": 73371,
    "01001001": 204734, "0100101": 66217, "01001010": 144656, "0101000": 34949,
    "01010000": 75319, "01010001": 147716, "0101001": 62423,
    "01010010": 172467, "0101010": 68753, "01010100": 155607,
    "01010101": 317426, "1000000": 24051, "10000000": 52835, "10000001": 75227,
    "1000001": 33788, "10000010": 98600, "1000010": 45186, "10000100": 89619,
    "10000101": 117373, "1000100": 33123, "10001000": 64099,
    "10001001": 112783, "1000101": 47351, "10001010": 119275, "1001000": 23342,
    "10010000": 76796, "10010001": 103999, "1001001": 52960,
    "10010010": 166743, "1001010": 44821, "10010100": 112383,
    "10010101": 182756, "1010000": 46575, "10100000": 98464,
    "10100001": 164432, "1010001": 61833, "10100010": 198875, "1010010": 81993,
    "10100100": 194673, "10100101": 256314, "1010100": 65876,
    "10101000": 168389, "10101001": 223378, "1010101": 110263,
    "10101010": 344463,
}
EMBED_POOL_SIZE = 8
POOL_SEED = 20001


def random_word(rng: random.Random, length: int, stopped: int) -> str:
    """A valid word with ``stopped`` non-adjacent stopped files placed
    uniformly among the valid placements."""
    slots = sorted(rng.sample(range(length - stopped + 1), stopped))
    flags = ["0"] * length
    for i, s in enumerate(slots):
        flags[s + i] = "1"
    return "".join(flags)


def oracle_draw(rng: random.Random) -> "list[str]":
    """ORACLE_DRAWN distinct words other than ORACLE_FIXED whose search
    sizes sum to within ORACLE_TOLERANCE of ORACLE_TARGET."""
    words = sorted(set(ORACLE_STATES) - {ORACLE_FIXED})
    while True:
        drawn = rng.sample(words, ORACLE_DRAWN)
        total = sum(ORACLE_STATES[w] for w in drawn)
        if abs(total - ORACLE_TARGET) <= ORACLE_TOLERANCE * ORACLE_TARGET:
            return drawn


def pool_jobs() -> dict:
    """Every seeded job the generator can draw, keyed by id.  Changing the
    pool means capturing goldens again."""
    rng = random.Random(POOL_SEED)
    jobs = {}
    for length in EVAL_LENGTHS:
        for i in range(EVAL_POOL_SIZE):
            word = random_word(rng, length, length // 4)
            jobs[f"eval.{length:03d}.{i:02d}"] = ["eval", word, "--moves"]
    for word in ORACLE_STATES:
        jobs[f"oracle.{word}"] = ["oracle", "--word", word, "--check-loony"]
    for i in range(EMBED_POOL_SIZE):
        comps = [random_word(rng, n, rng.randint(0, n // 3))
                 for n in (rng.randint(2, 6) for _ in range(3))]
        width = sum(map(len, comps)) + len(comps) - 1 + 6
        jobs[f"embed.{i}"] = ["embed", "--words", ",".join(comps),
                              "--height", "9", "--width", str(width)]
    return jobs


def all_jobs() -> dict:
    return {**FIXED_JOBS, **PROBE_JOBS, **pool_jobs(),
            "version": VERSION_ARGV}


def job_list(workload: str, seed: int) -> "list[str]":
    """The workload's job ids for ``seed``; the same seed gives the same
    list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "eval":
        return [f"eval.{n:03d}.{rng.randrange(EVAL_POOL_SIZE):02d}"
                for n in EVAL_LENGTHS]
    if workload == "verify":
        oracle = [ORACLE_FIXED, *oracle_draw(rng)]
        return ["thm2", *(f"oracle.{w}" for w in oracle),
                f"embed.{rng.randrange(EMBED_POOL_SIZE)}"]
    if workload == "scan":
        ids = ["first-occurrence.w1", "first-occurrence.w2", "distribution29"]
    elif workload == "periodic":
        ids = ["p6", "p14"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # the inputs are fixed reference computations; the seed orders them
    rng.shuffle(ids)
    return ids


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# the most --workers any job names; the benchmark needs that many cores
MAX_WORKERS = 2


def argv_for(job_id: str, out_path: str) -> list:
    """Concrete CLI arguments of a job: the output placeholder filled in."""
    return [out_path if a == OUT else a for a in all_jobs()[job_id]]


# ---------------------------------------------------------------------------
# digest gate

# stderr lines that carry results (the verified period, milestones,
# unreached values); anything else on stderr is diagnostics
_RESULT_STDERR = re.compile(r"^(period |no period |first \*|values not reached)")
# the package version in an output file's '# pawnnim <version> ...' header
_VERSION = re.compile(r"^(# pawnnim) \d\S*")


def output_digest(rc: int, stdout: str, stderr: str, outfile: str = "") -> str:
    """Digest of what a job computed: exit code, stdout, the result lines
    of stderr and every line of its output file, the '#' header and
    '#phase-table:' checkpoint included.  Only the package version is
    taken out of the header, so a version bump is not a changed result."""
    h = hashlib.sha256()
    h.update(f"rc={rc}\n".encode())
    h.update(stdout.encode())
    h.update(b"\0")
    for line in stderr.splitlines():
        if _RESULT_STDERR.match(line):
            h.update(line.encode() + b"\n")
    h.update(b"\0")
    for line in outfile.splitlines():
        h.update(_VERSION.sub(r"\1", line).encode() + b"\n")
    return h.hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def check(golden: dict, job_id: str, rc: int, digest: str) -> bool:
    """True when the job exited as expected with the expected output."""
    want = golden.get(job_id)
    return want is not None and want["rc"] == rc and want["digest"] == digest


def combined_digest(results) -> str:
    """One digest over a job list's (id, exit code, output digest)."""
    h = hashlib.sha256()
    for job_id, rc, digest in results:
        h.update(f"{job_id} {rc} {digest}\n".encode())
    return h.hexdigest()


def list_digest(job_ids, jobs: "dict | None" = None) -> str:
    """Digest of the generated inputs: the job arguments in order."""
    jobs = jobs or all_jobs()
    text = json.dumps([[i, jobs[i]] for i in job_ids])
    return hashlib.sha256(text.encode()).hexdigest()
