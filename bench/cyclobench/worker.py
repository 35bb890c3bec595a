"""Worker process: import cycloset from the checkout, set up, then measure.

Run by `bench/run.py` as `python -m cyclobench.worker '<json args>'` with
the checkout's `src` and `bench` directories as PYTHONPATH. It prints
`READY` once cycloset is imported, the first round of inputs is
generated and the warm-up call is done (run.py times set-up to that
line), then, unless asked for set-up only, one JSON line of results.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import random
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from .checks import check_cli, check_partition, check_verify
from .child import FORMATS, CliRuns, enumerate_args
from .spans import Tracer, duration, self_times
from .workloads import WORKLOADS, Case, Workload, rounds

CLI_MIN_RUNS = 3  # per format, per run
STARTUP_RUNS = 3
VERIFY_PROBE_MAX = 10**5  # modulus cap for the sweep probe on enumerate workloads


def _enumerate(cs, case: Case) -> tuple[float, list[tuple[int, int]]]:
    t0 = time.perf_counter()
    part = cs.enumerate_cosets(case.q, case.n)
    seconds = time.perf_counter() - t0
    return seconds, [(c.rep, c.size) for c in part.cosets]


def _verify(cs, case: Case):
    t0 = time.perf_counter()
    report = cs.verify(case.q, case.n)
    return time.perf_counter() - t0, report


def measure(cs, wl: Workload, stream, seed: int, budget: float, cli: CliRuns) -> dict:
    """Closed loop, one call at a time, with CLI runs interleaved, for `budget` seconds.

    After each library call, CLI runs catch up until they have taken the
    workload's `cli_share` of the time, so both sample the whole run.
    Every format gets at least CLI_MIN_RUNS runs.
    """
    seconds, failures, manifest = [], [], []
    cosets, enumerate_seconds = 0, 0.0
    library_wall = cli_wall = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < budget:
        for case in next(stream):
            rng = random.Random(f"{seed}:{len(manifest)}")
            manifest.append([case.q, case.n])
            t0 = time.perf_counter()
            try:
                if wl.call == "verify":
                    dt, report = _verify(cs, case)
                    count, enum_s = report.coset_count, report.structured_seconds
                    errors = check_verify(case, report.match, report.coset_count)
                else:
                    dt, pairs = _enumerate(cs, case)
                    count, enum_s = len(pairs), dt
                    errors = check_partition(case, pairs, rng)
                    del pairs
            except Exception as exc:  # a raised call is a failed operation, not a crash
                errors, dt = [f"q={case.q} n={case.n}: {type(exc).__name__}: {exc}"], None
            library_wall += time.perf_counter() - t0
            failures += errors
            if dt is not None:
                seconds.append(dt)
                cosets += count
                enumerate_seconds += enum_s
            while cli_wall < library_wall * wl.cli_share / (1 - wl.cli_share):
                cli_wall += cli.enumerate_next()
            if time.perf_counter() - start >= budget:
                break
    while cli.fewest() < CLI_MIN_RUNS and cli.attempted < 3 * CLI_MIN_RUNS * len(FORMATS):
        cli.enumerate_next()
    return {
        "attempted": len(manifest) + cli.attempted,
        "failures": failures + cli.failures,
        "manifest": manifest,
        "call_seconds": seconds,
        "cosets": cosets,
        "enumerate_seconds": enumerate_seconds,
        "cli": cli.summary(),
    }


def _traced_enumerate(cs, tracer: Tracer, case: Case):
    """enumerate_cosets as its public steps: plan, then one lift per ell**f.

    Returns the partition and, per step, (ell, f, Counter of base sizes).
    """
    with tracer.span("arith.factorization_plan", n=case.n):
        plan = cs.factorization_plan(case.n)
    part = cs.enumerate_cosets(case.q, 1)
    bases = []
    for ell, f in plan.factors:
        with tracer.span(f"tower.lift_partition[{ell}^{f}]", ell=ell, f=f) as sp:
            lifted = cs.lift_partition(ell, case.q, part, f)
        sp["attrs"].update(cosets_in=len(part.cosets), cosets_out=len(lifted.cosets))
        bases.append((ell, f, part))
        part = lifted
    steps = [(ell, f, Counter(c.size for c in base.cosets)) for ell, f, base in bases]
    return part, steps


def _check_lifted(case: Case, part, seed: int, index: int) -> list[str]:
    pairs = [(c.rep, c.size) for c in part.cosets]
    return check_partition(case, pairs, random.Random(f"{seed}:{index}"))


def _traced_verify(cs, tracer: Tracer, case: Case):
    with tracer.span("tower.verify", n=case.n) as sp:
        report = cs.verify(case.q, case.n)
    # verify sweeps first, then runs the structured path, then compares
    t = sp["start"]
    tracer.record(sp, "cosets.sweep", t, t + report.naive_seconds, from_report=True)
    t += report.naive_seconds
    tracer.record(sp, "tower.structured", t, t + report.structured_seconds, from_report=True)
    return report


def _transversal_keys(q: int, steps) -> tuple[int, dict]:
    """Transversal calls the lift makes, and one (q, tau) per distinct (ell, q**tau mod ell).

    Computed from the base partitions: a base coset of size tau is in the
    semi-splitting regime when ell is odd and q**tau != 1 mod ell, and
    then costs one transversal_R call per tower level.
    """
    calls, keys = 0, {}
    for ell, f, sizes in steps:
        if ell == 2:
            continue
        for tau, count in sizes.items():
            b = pow(q, tau, ell)
            if b != 1:
                calls += f * count
                keys.setdefault((ell, b), (q, tau))
    return calls, keys


def _divisor_at_most(case: Case, cap: int) -> int:
    divisors = [1]
    for p, e in case.factors:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return max(d for d in divisors if d <= cap)


def _cli_encode(cs, cli: CliRuns) -> tuple[dict, float, list[str]]:
    """In-process cli.main time minus enumerate time, per format; the
    enumerate time; and the output checks."""
    from cycloset import cli as cycloset_cli

    main_s, failures = {}, []
    for fmt in FORMATS:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cycloset_cli.main(enumerate_args(cli.case, fmt))
        main_s[fmt] = time.perf_counter() - t0
        failures += check_cli(f"cli.main {fmt}", code, buf.getvalue().encode(), cli.expected[fmt])
    # the faster of two enumerations, after the cli.main calls
    enum_s = min(_enumerate(cs, cli.case)[0], _enumerate(cs, cli.case)[0])
    return {fmt: t - enum_s for fmt, t in main_s.items()}, enum_s, failures


def untraced_pass(cs, wl: Workload, stream) -> dict:
    """The cases `traced` replays, timed without spans, for trace.overhead_s.

    Runs in a worker of its own, so neither pass finds the library's
    caches warmed by the other.
    """
    call = _verify if wl.call == "verify" else _enumerate
    return {"untraced_s": sum(call(cs, case)[0] for case in next(stream)[: wl.trace_calls])}


def traced(cs, wl: Workload, stream, seed: int, cli: CliRuns) -> dict:
    """The first `trace_calls` cases of the first round with spans, then the probes.

    Ends with one CLI run per format, for output sizes, and the CLI
    start-up probe.
    """
    cases = next(stream)[: wl.trace_calls]
    failures: list[str] = []
    checked = 0

    tracer = Tracer()
    all_steps = []
    call_ids = itertools.count()
    with tracer.span("workload", workload=wl.name, seed=seed):
        for i, case in enumerate(cases):
            with tracer.call(next(call_ids), q=case.q, n=case.n):
                if wl.call == "verify":
                    report = _traced_verify(cs, tracer, case)
                else:
                    part, steps = _traced_enumerate(cs, tracer, case)
            if wl.call == "verify":
                failures += check_verify(case, report.match, report.coset_count)
            else:
                failures += _check_lifted(case, part, seed, i)
                all_steps.append((case, steps))
                del part
            checked += 1
        traced_total = sum(duration(s) for s in tracer.spans if s["name"] == "call")

        with tracer.span("probes"):
            if wl.call == "verify":
                for i, case in enumerate(cases):
                    with tracer.call(next(call_ids), q=case.q, n=case.n, probe="lift"):
                        part, steps = _traced_enumerate(cs, tracer, case)
                    failures += _check_lifted(case, part, seed, i)
                    all_steps.append((case, steps))
                    checked += 1
            else:
                probe = cases[0]
                probe = Case(probe.q, _divisor_at_most(probe, VERIFY_PROBE_MAX), ())
                with tracer.call(next(call_ids), q=probe.q, n=probe.n, probe="sweep"):
                    report = _traced_verify(cs, tracer, probe)
                if not report.match:
                    failures.append(f"q={probe.q} n={probe.n}: verify reports a mismatch")
                checked += 1
            calls_est, keys = 0, {}
            for case, steps in all_steps:
                c, k = _transversal_keys(case.q, steps)
                calls_est += c
                for key, val in k.items():
                    keys.setdefault(key, val)
            for (ell, _b), (q, tau) in sorted(keys.items()):
                with tracer.span("system.transversal_R", ell=ell, q=q, tau=tau):
                    cs.transversal_R(ell, q, tau)
            with tracer.span("cli.encode", q=wl.cli_case.q, n=wl.cli_case.n):
                encode, cli_enumerate_s, errors = _cli_encode(cs, cli)
            failures += errors
            checked += len(FORMATS)

    gc.collect()
    tracemalloc.start()
    part = cs.enumerate_cosets(cases[0].q, cases[0].n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    peak_per_coset = peak / len(part.cosets)
    del part

    for _ in FORMATS:
        cli.enumerate_next()
    for _ in range(STARTUP_RUNS):
        cli.startup()

    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        s["self"] = selfs[s["id"]]
    metrics, max_steps = _layer_metrics(tracer.spans)
    metrics.update(
        {
            "tower.peak_bytes_per_coset": peak_per_coset,
            "system.transversal_probe_s": sum(
                duration(s) for s in tracer.spans if s["name"] == "system.transversal_R"
            ),
            "system.transversal_calls_est": calls_est,
            "cli.encode_json_s": encode["json"],
            "cli.encode_csv_s": encode["csv"],
            "cli.encode_table_s": encode["table"],
            **{f"cli.bytes_{fmt}": cli.bytes[fmt] for fmt in FORMATS},
            "cli.startup_s": statistics.median(cli.startup_times or [float("nan")]),
        }
    )
    return {
        "attempted": checked + cli.attempted,
        "failures": failures + cli.failures,
        "cli": cli.summary(),
        "manifest": [[c.q, c.n] for c in cases],
        "metrics": metrics,
        "lift_max_steps": max_steps,
        "cli_case_enumerate_s": cli_enumerate_s,
        "traced_s": traced_total,
        "spans": tracer.spans,
    }


def _layer_metrics(spans: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer figures from the spans, and the slowest lift step of each call."""
    per_call: dict[int, list[dict]] = {}
    for s in spans:
        if s["call"] is not None and s["name"] != "call":
            per_call.setdefault(s["call"], []).append(s)
    factorize, lift_total, lift_max, cosets = [], [], [], 0
    max_steps = []
    cosets_in = cosets_out = 0
    for inner in per_call.values():
        lifts = [s for s in inner if s["name"].startswith("tower.lift_partition[")]
        if not lifts:
            continue
        factorize += [duration(s) for s in inner if s["name"] == "arith.factorization_plan"]
        lift_total.append(sum(duration(s) for s in lifts))
        top = max(lifts, key=duration)
        lift_max.append(duration(top))
        max_steps.append(top["name"])
        cosets += lifts[-1]["attrs"]["cosets_out"]
        cosets_in += sum(s["attrs"]["cosets_in"] for s in lifts)
        cosets_out += sum(s["attrs"]["cosets_out"] for s in lifts)
    verifies = [s for s in spans if s["name"] == "tower.verify"]
    sweeps = [s for s in spans if s["name"] == "cosets.sweep"]
    swept = sum(s["attrs"]["n"] for s in verifies)
    return {
        "arith.factorize_s": statistics.median(factorize),
        "tower.lift_s": statistics.median(lift_total),
        "tower.lift_max_step_s": statistics.median(lift_max),
        "tower.us_per_coset": sum(lift_total) / cosets * 1e6,
        "tower.cosets_in": cosets_in,
        "tower.cosets_out": cosets_out,
        "tower.verify_compare_s": statistics.median(s["self"] for s in verifies),
        "cosets.sweep_s": statistics.median(duration(s) for s in sweeps),
        "cosets.sweep_ns_per_elem": sum(duration(s) for s in sweeps) / swept * 1e9,
    }, max_steps


def _warm_up(cs) -> None:
    # imports and first-call paths only; no workload input is touched
    cs.enumerate_cosets(2, 15)
    cs.verify(2, 15)


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    import cycloset as cs

    root = Path(args["root"])
    expected = (root / "src" / "cycloset").resolve()
    if Path(cs.__file__).resolve().parent != expected:
        print(f"cycloset imported from {cs.__file__}, not {expected}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args["workload"]]
    stream = rounds(wl, args["seed"])
    first = next(stream)
    _warm_up(cs)
    print("READY", flush=True)
    stream = itertools.chain([first], stream)
    task = args["task"]
    if task == "setup":
        return 0
    if task == "untraced":
        result = untraced_pass(cs, wl, stream)
    elif task == "traced":
        result = traced(cs, wl, stream, args["seed"], CliRuns(root, wl.name, wl.cli_case))
    else:
        cli = CliRuns(root, wl.name, wl.cli_case)
        result = measure(cs, wl, stream, args["seed"], args["seconds"], cli)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
