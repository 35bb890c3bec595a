#!/usr/bin/env python3
"""cycloset benchmark: one seeded workload, one closed-loop client.

    python3 bench/run.py --workload smooth-wide --seed 1 --seconds 28 --trace 0

Run from the root of a checkout. The library runs in a worker process
(`cyclobench.worker`) and the CLI as `python -m cycloset.cli` child
processes, both importing the checkout's own `src`. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
ones with `--trace 1`. Full results, with the input manifest, go to
`bench/out/`. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from cyclobench.child import FORMATS, program_env  # noqa: E402
from cyclobench.workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5  # worker set-ups per run; setup_s is their median
WORKER_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "call_p50_s": "s",
    "call_p90_s": "s",
    "cosets_per_s": "1/s",
    "cli_json_s": "s",
    "cli_csv_s": "s",
    "cli_table_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "arith.factorize_s": "s",
    "tower.lift_s": "s",
    "tower.lift_max_step_s": "s",
    "tower.us_per_coset": "us",
    "tower.peak_bytes_per_coset": "B",
    "tower.cosets_in": "count",
    "tower.cosets_out": "count",
    "tower.verify_compare_s": "s",
    "system.transversal_probe_s": "s",
    "system.transversal_calls_est": "count",
    "cosets.sweep_s": "s",
    "cosets.sweep_ns_per_elem": "ns",
    "cli.encode_json_s": "s",
    "cli.encode_csv_s": "s",
    "cli.encode_table_s": "s",
    "cli.bytes_json": "B",
    "cli.bytes_csv": "B",
    "cli.bytes_table": "B",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class Worker:
    """One worker process; `setup_s` is the time from spawn to its READY line."""

    def __init__(self, args: dict):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "cyclobench.worker", json.dumps(args)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=program_env(ROOT / "src", BENCH),
            text=True,
            start_new_session=True,  # so close() can stop its CLI children too
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], WORKER_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.close()
            raise RuntimeError("worker did not finish set-up")

    def result(self) -> dict | None:
        try:
            out, _ = self.proc.communicate(timeout=WORKER_TIMEOUT)
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def close(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _median(values: list[float]) -> float:
    # a metric with no successful sample still prints, as NaN, and the run is incorrect
    return statistics.median(values) if values else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cycloset" / "__init__.py").is_file():
        print(f"error: no cycloset package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    # Every worker sets up the same way; the last ones do the work. A traced
    # run times its cases untraced in one worker and traced in the next.
    tasks = ["setup"] * SETUP_RUNS
    tasks[-2:] = ["untraced", "traced"] if args.trace else ["setup", "measure"]
    setups, results = [], {}
    for task in tasks:
        worker = Worker(
            {"root": str(ROOT), "workload": wl.name, "seed": args.seed, "task": task,
             "seconds": args.seconds}
        )
        setups.append(worker.setup_s)
        results[task] = worker.result()
    lib = results[tasks[-1]]
    failures, attempted = lib["failures"], lib["attempted"]

    if args.trace:
        values = dict(lib["metrics"])
        values["trace.overhead_s"] = lib["traced_s"] - results["untraced"]["untraced_s"]
        units = PER_LAYER
    else:
        calls = lib["call_seconds"]
        values = {
            "setup_s": statistics.median(setups),
            "call_p50_s": _median(calls),
            "call_p90_s": _p90(calls) if calls else float("nan"),
            "cosets_per_s": lib["cosets"] / lib["enumerate_seconds"] if calls else float("nan"),
            "peak_rss_mb": lib["peak_rss_mb"],
        }
        for fmt in FORMATS:
            values[f"cli_{fmt}_s"] = _median(lib["cli"]["times"][fmt])
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    spans = lib.pop("spans", None)
    if spans is not None:
        (out_dir / f"spans-{wl.name}-seed{args.seed}.json").write_text(json.dumps(spans))
    details = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "fail_ratio": len(failures) / attempted,
        "setup_samples_s": setups,
        "untraced_s": results.get("untraced", {}).get("untraced_s"),
        "results": lib,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1))
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_ratio':32} {len(failures):>7} / {attempted}")
    for msg in failures[:20]:
        print(f"FAILED: {msg}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
