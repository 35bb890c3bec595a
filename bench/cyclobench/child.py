"""The cycloset CLI run as a child process, with its output checked by digest."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from .checks import check_cli
from .workloads import Case

FORMATS = ("json", "csv", "table")
STARTUP_ARGS = ["enumerate", "--q", "2", "--n", "1"]
CLI_TIMEOUT = 60
DIGESTS = Path(__file__).resolve().parent.parent / "cli_digests.json"


def program_env(*paths: Path) -> dict:
    """Environment for a process that runs cycloset.

    These paths go first on PYTHONPATH, the hash seed is fixed, and
    glibc's mmap threshold is fixed at 4 MiB. Left dynamic, the threshold
    rises after the first large free; whether the oracle's later
    multi-megabyte buffers then reuse touched heap pages, and so count in
    peak RSS, depends on allocation history, and the peak swung by 40%.
    """
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(str(p) for p in paths),
        PYTHONHASHSEED="0",
        MALLOC_MMAP_THRESHOLD_=str(4 << 20),
    )


def run_cli(root: Path, argv: list[str]) -> tuple[float, int | None, bytes]:
    """Wall time, exit code (None on timeout) and stdout of one CLI child."""
    env = program_env(root / "src")
    t0 = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cycloset.cli", *argv],
            capture_output=True,
            cwd=root,
            env=env,
            timeout=CLI_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, b""
    return time.perf_counter() - t0, done.returncode, done.stdout


def enumerate_args(case: Case, fmt: str) -> list[str]:
    return ["enumerate", "--q", str(case.q), "--n", str(case.n), "--format", fmt]


class CliRuns:
    """`cycloset enumerate` on one workload's fixed case, formats in rotation.

    Each output must match the SHA-256 recorded in cli_digests.json, so
    the CLI stays byte-identical from commit to commit.
    """

    def __init__(self, root: Path, workload: str, case: Case):
        recorded = json.loads(DIGESTS.read_text())
        self.expected = recorded["cases"][workload]
        if [self.expected["q"], self.expected["n"]] != [case.q, case.n]:
            raise ValueError(f"{DIGESTS.name} records another CLI case for {workload}")
        self.startup_digest = recorded["startup"]
        self.root, self.case = root, case
        self.times: dict[str, list[float]] = {fmt: [] for fmt in FORMATS}
        self.bytes: dict[str, int] = {}
        self.startup_times: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self._formats = itertools.cycle(FORMATS)

    def enumerate_next(self) -> float:
        """Run the next format once; returns the wall time spent."""
        fmt = next(self._formats)
        seconds, code, out = run_cli(self.root, enumerate_args(self.case, fmt))
        self._count(f"cli {fmt}", code, out, self.expected[fmt], self.times[fmt], seconds)
        self.bytes[fmt] = len(out)
        return seconds

    def startup(self) -> None:
        seconds, code, out = run_cli(self.root, STARTUP_ARGS)
        self._count("cli startup", code, out, self.startup_digest, self.startup_times, seconds)

    def fewest(self) -> int:
        return min(len(t) for t in self.times.values())

    def _count(self, label, code, out, expected, times, seconds) -> None:
        self.attempted += 1
        errors = check_cli(label, code, out, expected)
        self.failures += errors
        if not errors:
            times.append(seconds)

    def summary(self) -> dict:
        return {
            "case": {"q": self.case.q, "n": self.case.n},
            "times": self.times,
            "bytes": self.bytes,
            "startup_times": self.startup_times,
        }
