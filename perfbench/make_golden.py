"""Capture ``golden.json``: the exit code and output digest of every job
the benchmark can run, taken from the CLI at the current commit.

    python3 perfbench/make_golden.py

Run it from the repository root, only when the benchmark's jobs change:
the goldens are what later commits are checked against.  Every job is
also replayed in-process, and the capture is refused unless the replay
reproduces the CLI's digest and exit code 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import jobs as jobmod

# the replay of every job runs in one process, far longer than one run
REPLAY_LIMIT_S = 1800


def main() -> int:
    root = Path.cwd()
    scratch = run.HERE / "out" / "golden"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(root, scratch, golden={})
    ids = list(jobmod.all_jobs())
    cli = {}
    for job_id in ids:
        rec = runner.job(job_id)
        cli[job_id] = {"rc": rec["rc"], "digest": rec["digest"]}
        print(f"{job_id}: exit {rec['rc']} {rec['wall_s']:.2f} s", flush=True)
    replayed = run.replay(root, scratch, [i for i in ids if i != "version"],
                          trace=False, timeout=REPLAY_LIMIT_S)
    bad = [j["id"] for j in replayed["jobs"]
           if j["rc"] != 0 or cli[j["id"]] != {"rc": j["rc"],
                                               "digest": j["digest"]}]
    bad += [i for i, c in cli.items() if c["rc"] != 0]
    if bad:
        print(f"refusing to capture: CLI and replay disagree or fail on {bad}",
              file=sys.stderr)
        return 1
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True).stdout.strip()
    jobmod.GOLDEN_PATH.write_text(json.dumps(
        {"captured_at": sha, "jobs": cli}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
