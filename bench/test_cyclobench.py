"""Tests of the benchmark itself: inputs, checks, spans and its contract."""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from cyclobench import census  # noqa: E402
from cyclobench.checks import check_cli, check_partition, check_verify, digest  # noqa: E402
from cyclobench.child import DIGESTS, enumerate_args, run_cli  # noqa: E402
from cyclobench.spans import Tracer, self_times  # noqa: E402
from cyclobench.workloads import (  # noqa: E402
    LP_MAX_COSETS,
    ORACLE_COSETS,
    ORACLE_TARGETS,
    WORKLOADS,
    make_case,
    rounds,
)


def first_rounds(name, seed, count=2):
    stream = rounds(WORKLOADS[name], seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first_rounds(name, 3) == first_rounds(name, 3)
    assert first_rounds(name, 3) != first_rounds(name, 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_valid_and_screened(name):
    for case in first_rounds(name, 7)[0]:
        assert math.prod(p**e for p, e in case.factors) == case.n
        assert all(census.is_prime(p) for p, _ in case.factors)
        assert len(census.factor(case.q)) == 1 and math.gcd(case.q, case.n) == 1
        count = census.coset_count(case.q, case.factor_map)
        if name == "smooth-wide":
            assert 2 * 10**4 <= count <= 10**5 and max(case.factor_map) <= 13
        elif name == "large-prime":
            assert count <= LP_MAX_COSETS and 10**6 <= max(case.factor_map) <= 2 * 10**6
        elif name == "many-small":
            assert case.n <= 10**5 and max(case.factor_map) <= 31
        else:
            assert 2 * 10**6 <= case.n <= 10**7 and max(case.factor_map) <= 13
            assert ORACLE_COSETS[0] <= count <= ORACLE_COSETS[1]
    if name == "smooth-wide":
        assert first_rounds(name, 7)[0][0] == make_case(7, {2: 12, 3: 10, 5: 6})
    if name == "oracle-verify":
        assert len(first_rounds(name, 7)[0]) == len(ORACLE_TARGETS)


def test_census_matches_structured_enumeration():
    import cycloset as cs

    rng = random.Random(0)
    for _ in range(60):
        n = rng.randrange(1, 5000)
        q = rng.choice([q for q in (2, 3, 4, 5, 7, 8, 9, 11, 25, 27, 49) if math.gcd(q, n) == 1])
        part = cs.enumerate_cosets(q, n)
        assert Counter(c.size for c in part.cosets) == census.size_census(q, census.factor(n))
    assert census.coset_count(7, {2: 12, 3: 10, 5: 6}) == 79_485


def reference_pairs(q=5, factors={2: 4, 3: 5}):
    import cycloset as cs

    case = make_case(q, factors)
    return case, [(c.rep, c.size) for c in cs.enumerate_cosets(case.q, case.n).cosets]


def test_correct_partition_passes():
    case, pairs = reference_pairs()
    assert check_partition(case, pairs, random.Random(0)) == []


def test_dropped_coset_fails():
    case, pairs = reference_pairs()
    assert check_partition(case, pairs[:10] + pairs[11:], random.Random(0))


def test_size_off_by_one_fails():
    case, pairs = reference_pairs()
    rep, size = pairs[-1]
    assert check_partition(case, pairs[:-1] + [(rep, size + 1)], random.Random(0))


def test_swapped_sizes_fail_the_sampled_size_check():
    # same census and total, but two sizes attached to the wrong reps
    case, pairs = reference_pairs(5, {2: 4})
    i, j = 0, next(k for k, (_, size) in enumerate(pairs) if size != pairs[0][1])
    doctored = list(pairs)
    doctored[i], doctored[j] = (pairs[i][0], pairs[j][1]), (pairs[j][0], pairs[i][1])
    rng = random.Random(0)
    assert any(check_partition(case, doctored, rng) for _ in range(20))


def test_unsorted_reps_fail():
    case, pairs = reference_pairs()
    assert check_partition(case, [pairs[1], pairs[0]] + pairs[2:], random.Random(0))


def test_verify_check():
    case = make_case(5, {2: 4, 3: 5})
    assert check_verify(case, True, 68) == []
    assert check_verify(case, False, 68)
    assert check_verify(case, True, 67)


def test_changed_cli_digest_fails():
    recorded = json.loads(DIGESTS.read_text())["cases"]["many-small"]
    _, code, out = run_cli(BENCH.parent, enumerate_args(WORKLOADS["many-small"].cli_case, "csv"))
    assert check_cli("csv", code, out, recorded["csv"]) == []
    assert check_cli("csv", code, out, digest(out + b"\n"))
    assert check_cli("csv", code, out.replace(b",", b";"), recorded["csv"])
    assert check_cli("csv", 2, out, recorded["csv"])
    assert check_cli("csv", None, b"", recorded["csv"])


def test_span_nesting():
    tracer = Tracer()
    with tracer.span("workload") as root:
        with tracer.call(0) as call:
            with tracer.span("arith.factorization_plan") as inner:
                pass
            with tracer.span("tower.lift_partition[3^2]") as lift:
                pass
        with tracer.span("probes") as probes:
            pass
    assert root["parent"] is None and root["call"] is None
    assert call["parent"] == root["id"] and call["call"] == 0
    assert inner["parent"] == call["id"] and lift["parent"] == call["id"]
    assert inner["call"] == lift["call"] == 0
    assert probes["parent"] == root["id"] and probes["call"] is None
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_self_time_arithmetic():
    def span(id, parent, start, end):
        return {"id": id, "parent": parent, "call": 0, "name": str(id), "start": start, "end": end}

    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 3.0),
        span(2, 0, 2.0, 5.0),  # overlaps its sibling: [1, 5] is covered once
        span(3, 0, 9.0, 12.0),  # runs past its parent: only [9, 10] counts
        span(4, 1, 1.5, 2.5),
    ]
    tracer = Tracer()
    with tracer.span("outer") as outer:
        pass
    tracer.record(outer, "inner", outer["start"], outer["start"] + 0.25 * (outer["end"] - outer["start"]))
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 1.0, 2: 3.0, 3: 3.0, 4: 1.0}
    recorded = self_times(tracer.spans)
    assert recorded[0] == pytest.approx(0.75 * (outer["end"] - outer["start"]))


def test_benchmark_json_matches_run_py():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and bench/, as a bare copy would
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "many-small", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60,
        )
    assert done.returncode != 0
    assert b"correct" not in done.stdout
