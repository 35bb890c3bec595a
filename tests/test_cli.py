import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloset import CapacityError, CosetPartition, CyclotomicCoset, enumerate_cosets
from cycloset.cli import main, partition_from_json, partition_to_json

FORMATS = ("json", "csv", "table")


# Reference encoders: the document built as dicts and encoded by
# json.dumps, and rows written one at a time. The CLI's single-string
# formatter must match them byte for byte.


def _ref_jint(v):
    return v if -(2**53) <= v <= 2**53 else str(v)


def reference_json(part, with_leaders=False):
    records = []
    for c in part.cosets:
        rec = {"representative": _ref_jint(c.rep), "size": _ref_jint(c.size)}
        if with_leaders:
            rec["leader"] = _ref_jint(c.leader())
        records.append(rec)
    if with_leaders:
        records.sort(key=lambda r: int(r["leader"]))
    doc = {
        "q": _ref_jint(part.q),
        "n": _ref_jint(part.n),
        "cosets": records,
        "total": _ref_jint(part.total()),
    }
    return json.dumps(doc, indent=2)


def _ref_emit_rows(out, rows, header, fmt, total):
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(v) for v in row) + "\n")
        out.write(f"# total={total}\n")
    else:
        widths = [
            max(len(h), max((len(str(r[i])) for r in rows), default=0))
            for i, h in enumerate(header)
        ]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        for row in rows:
            out.write("  ".join(str(v).ljust(w) for v, w in zip(row, widths)) + "\n")
        out.write(f"total: {len(rows)} cosets, {total} elements\n")


def reference_enumerate(q, n, fmt, with_leaders=False):
    part = enumerate_cosets(q, n)
    if fmt == "json":
        return reference_json(part, with_leaders) + "\n"
    if with_leaders:
        rows = sorted((c.leader(), c.rep, c.size) for c in part.cosets)
        rows = [(rep, size, lead) for lead, rep, size in rows]
        header = ["representative", "size", "leader"]
    else:
        rows = [(c.rep, c.size) for c in part.cosets]
        header = ["representative", "size"]
    out = io.StringIO()
    _ref_emit_rows(out, rows, header, fmt, part.total())
    return out.getvalue()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "5", "--n", "16", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "representative,size"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data) == 8
    assert data[0] == "0,1"
    assert lines[-1] == "# total=16"


def test_enumerate_single_coset(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "5", "--n", "1", "--format", "csv")
    assert code == 0
    data = [ln for ln in out.strip().splitlines()[1:] if not ln.startswith("#")]
    assert data == ["0,1"]


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "5", "--n", "3888", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 5 and doc["n"] == 3888
    assert len(doc["cosets"]) == 68
    assert doc["total"] == 3888
    assert sum(rec["size"] for rec in doc["cosets"]) == 3888


def test_json_round_trip():
    for q, n in ((5, 16), (5, 3888), (7, 1)):
        part = enumerate_cosets(q, n)
        assert partition_from_json(partition_to_json(part)) == part


def test_json_big_integers_as_strings():
    n = 2**60
    part = CosetPartition(3, n, (CyclotomicCoset(3, n, 2**59, 2**54),))
    doc = json.loads(partition_to_json(part))
    assert doc["n"] == str(n)
    assert doc["cosets"][0]["representative"] == str(2**59)
    assert partition_from_json(partition_to_json(part)) == part


def test_csv_json_same_records(capsys):
    _, json_out, _ = run(capsys, "enumerate", "--q", "5", "--n", "3888", "--format", "json")
    _, csv_out, _ = run(capsys, "enumerate", "--q", "5", "--n", "3888", "--format", "csv")
    from_json = sorted(
        (int(r["representative"]), int(r["size"])) for r in json.loads(json_out)["cosets"]
    )
    from_csv = sorted(
        tuple(int(v) for v in ln.split(","))
        for ln in csv_out.strip().splitlines()[1:]
        if not ln.startswith("#")
    )
    assert from_json == from_csv


def test_enumerate_with_leaders(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--q", "5", "--n", "16", "--format", "csv", "--with-leaders"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "representative,size,leader"
    leaders = [int(ln.split(",")[2]) for ln in lines[1:] if not ln.startswith("#")]
    assert leaders == sorted(leaders)


def test_p_e_form(capsys):
    _, out_q, _ = run(capsys, "enumerate", "--q", "4", "--n", "9", "--format", "csv")
    _, out_pe, _ = run(capsys, "enumerate", "--p", "2", "--e", "2", "--n", "9", "--format", "csv")
    assert out_q == out_pe


def test_conflicting_q_forms(capsys):
    code, _, err = run(capsys, "enumerate", "--q", "4", "--p", "2", "--n", "9")
    assert code == 2
    assert "not both" in err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--q", "5", "--n", "3888")
    assert code == 0
    assert "match=yes" in out
    assert "cosets=68" in out


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n-max", "200")
    assert code == 0
    assert "all match" in out


def test_verify_n_and_n_max_conflict(capsys):
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "16", "--n-max", "3")
    assert code == 2
    assert out == ""
    assert err == "error: give either --n or --n-max, not both\n"


def test_verify_bad_input(capsys):
    code, _, err = run(capsys, "verify", "--q", "4", "--n", "6")
    assert code == 2
    assert "error" in err


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    import cycloset.cli as cli_mod

    class FakeReport:
        q, n, coset_count = 5, 16, 8
        match = False
        mismatches = ((0, 1, 1, 2),)
        naive_seconds = structured_seconds = 0.0

    monkeypatch.setattr(cli_mod, "verify", lambda q, n, oracle_cap: FakeReport())
    code, out, err = run(capsys, "verify", "--q", "5", "--n", "16")
    assert code == 1
    assert "match=NO" in out
    assert "divergence" in err


def test_not_prime_power_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--q", "6", "--n", "7")
    assert code == 2
    assert "prime power" in err


def test_tree_dot(capsys):
    code, out, _ = run(capsys, "tree", "--ell", "3", "--q", "5", "--n", "16", "--depth", "2")
    assert code == 0
    assert out.startswith("digraph")
    root_rank_line = next(ln for ln in out.splitlines() if "rank=same" in ln)
    assert root_rank_line.count('"N0_') == 8
    assert '"N2_' in out


def test_tree_depth_zero(capsys):
    code, out, _ = run(capsys, "tree", "--ell", "3", "--q", "5", "--n", "16", "--depth", "0")
    assert code == 0
    assert '"N1_' not in out


def test_tree_huge_depth_is_a_capacity_error(capsys):
    code, out, err = run(capsys, "tree", "--ell", "3", "--q", "5", "--n", "16", "--depth", "100000")
    assert code == 2
    assert out == ""
    assert "exceeds the 2**63 working range" in err


def test_enumerate_huge_q_fails_fast(capsys):
    # p**e is never formed: 3**10**7 alone takes seconds to build
    t0 = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--p", "3", "--e", "10000000", "--n", "5")
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert out == ""
    assert "q exceeds the 2**63 working range" in err


def test_with_leaders_past_the_oracle_cap_fails_fast(capsys):
    # the orbit of 1 mod 2**60 has 2**58 elements: refused, not walked
    t0 = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--q", "3", "--n", str(2**60), "--with-leaders")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "oracle cap" in err
    with pytest.raises(CapacityError, match="oracle cap"):
        partition_to_json(enumerate_cosets(3, 2**60), with_leaders=True)


def test_tree_arities_two_adic(capsys):
    code, out, _ = run(capsys, "tree", "--ell", "2", "--q", "5", "--n", "243", "--depth", "3")
    assert code == 0
    # every parent has 1 or 2 outgoing edges
    from collections import Counter

    tails = Counter(
        line.split("->")[0].strip() for line in out.splitlines() if "->" in line
    )
    assert set(tails.values()) <= {1, 2}


def test_phi_output(capsys):
    code, out, _ = run(capsys, "phi", "--ell", "3", "--n", "16", "--gamma", "1", "--digits", "5")
    assert code == 0
    assert out.strip() == "2 1 0 0 2"

    code, out, _ = run(capsys, "phi", "--ell", "3", "--n", "16", "--gamma", "0", "--digits", "5")
    assert out.strip() == "0 0 0 0 0"

    code, out, _ = run(capsys, "phi", "--ell", "3", "--n", "16", "--gamma", "12", "--digits", "5")
    assert out.strip() == "0 2 0 2 0"


def test_phi_bad_digits(capsys):
    code, _, err = run(capsys, "phi", "--ell", "3", "--n", "16", "--gamma", "1", "--digits", "0")
    assert code == 2


def _enumerate_out(q, n, fmt, *extra):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["enumerate", "--q", str(q), "--n", str(n), "--format", fmt, *extra])
    assert code == 0
    return buf.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 49, 97, 101, 125]),
    st.integers(1, 10**5),
)
def test_output_matches_reference_encoders(q, n):
    if math.gcd(q, n) != 1:
        return
    for fmt in FORMATS:
        assert _enumerate_out(q, n, fmt) == reference_enumerate(q, n, fmt), fmt


@pytest.mark.parametrize(
    "q, n",
    [
        (5, 1),  # a single coset
        (3, 2**60),  # reps and sizes on both sides of 2**53
        (3, 2**53),  # every value at most 2**53: nothing quoted
        (5, 3888),  # the widest size is not in the last row
    ],
)
def test_fixed_cases_match_reference_encoders(q, n):
    for fmt in FORMATS:
        assert _enumerate_out(q, n, fmt) == reference_enumerate(q, n, fmt), fmt


def test_fixed_cases_have_their_property():
    big = enumerate_cosets(3, 2**60).cosets
    for values in ([c.rep for c in big], [c.size for c in big]):
        assert min(values) <= 2**53 < max(values)
    sizes = [c.size for c in enumerate_cosets(5, 3888).cosets]
    assert len(str(sizes[-1])) < max(len(str(s)) for s in sizes)


def test_hand_built_partitions_match_reference_encoder():
    n = 2**53 + 2
    edge = CosetPartition(3, n, (CyclotomicCoset(3, n, 2**53, 2), CyclotomicCoset(3, n, n - 1, 1)))
    assert '"representative": 9007199254740992,' in partition_to_json(edge)
    for part in (edge, CosetPartition(5, 16, ())):
        assert partition_to_json(part) == reference_json(part)


@pytest.mark.parametrize("q, n", [(5, 16), (2, 9), (5, 3888), (7, 1)])
def test_with_leaders_matches_reference_encoders(q, n):
    for fmt in FORMATS:
        out = _enumerate_out(q, n, fmt, "--with-leaders")
        assert out == reference_enumerate(q, n, fmt, with_leaders=True), fmt
    part = enumerate_cosets(q, n)
    assert partition_to_json(part, with_leaders=True) == reference_json(part, with_leaders=True)


def test_memory_error_exit_code(capsys, monkeypatch):
    import cycloset.cli as cli_mod

    def exhausted(q, n):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "_enumerate_pairs", exhausted)
    code, out, err = run(capsys, "enumerate", "--q", "3", "--n", "9223372036854775783")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


_DIGESTS = json.loads((Path(__file__).parent.parent / "bench" / "cli_digests.json").read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("workload", sorted(_DIGESTS["cases"]))
def test_cli_output_matches_recorded_digest(capsys, workload, fmt):
    # the benchmark holds every run of the CLI to these bytes; tier-1 does too
    case = _DIGESTS["cases"][workload]
    assert main(["enumerate", "--q", str(case["q"]), "--n", str(case["n"]), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == case[fmt]
