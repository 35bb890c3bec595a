#!/usr/bin/env python3
"""Record the CLI digests, or collect one results file for a commit.

    python3 bench/baseline.py digests            # rewrite bench/cli_digests.json
    python3 bench/baseline.py results LABEL      # write bench/BENCH_<LABEL>.json

`digests` runs the CLI of this checkout on each workload's fixed CLI case
and records the SHA-256 of its output; do it only on a commit whose CLI
output is known good, since every later run is held to those bytes.
`results` runs every workload at seed 0, untraced and traced, and
gathers the files `run.py` writes to bench/out/ into one file.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS

from cyclobench.checks import digest
from cyclobench.child import DIGESTS, FORMATS, STARTUP_ARGS, enumerate_args, run_cli

SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def record_digests() -> None:
    def one(argv):
        _, code, out = run_cli(ROOT, argv)
        if code != 0:
            raise SystemExit(f"cycloset {' '.join(argv)} exited {code}")
        return digest(out)

    cases = {}
    for name, wl in WORKLOADS.items():
        case = wl.cli_case
        cases[name] = {"q": case.q, "n": case.n}
        for fmt in FORMATS:
            cases[name][fmt] = one(enumerate_args(case, fmt))
    DIGESTS.write_text(json.dumps({"cases": cases, "startup": one(STARTUP_ARGS)}, indent=1) + "\n")


def collect(label: str) -> None:
    doc = {"label": label, "seed": 0, "seconds": SECONDS, "workloads": {}}
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", str(SECONDS), "--trace", str(trace)]
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            runs["traced" if trace else "untraced"] = json.loads(
                (BENCH / "out" / f"{name}-seed0-trace{trace}.json").read_text()
            )
        doc["workloads"][name] = runs
    (BENCH / f"BENCH_{label}.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["digests"]:
        record_digests()
    elif len(sys.argv) == 3 and sys.argv[1] == "results":
        collect(sys.argv[2])
    else:
        raise SystemExit(__doc__)
