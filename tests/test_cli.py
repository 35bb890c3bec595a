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


def test_missing_q_is_refused(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "5")
    assert code == 2
    assert out == ""
    assert err == "error: one of --q or --p is required\n"


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


def test_verify_without_n_or_n_max_is_refused(capsys):
    code, out, err = run(capsys, "verify", "--q", "5")
    assert code == 2
    assert out == ""
    assert err == "error: one of --n or --n-max is required\n"


def test_verify_n_max_below_one_is_refused(capsys):
    for n_max in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--q", "5", "--n-max", n_max)
        assert code == 2
        assert out == ""
        assert err == "error: --n-max must be at least 1\n"


def test_verify_n_max_past_the_oracle_cap_is_refused_before_any_verify(capsys, monkeypatch):
    import cycloset.cli as cli_mod

    def no_verify(q, n, oracle_cap):
        raise AssertionError(f"verified n={n}")

    monkeypatch.setattr(cli_mod, "verify", no_verify)
    t0 = time.perf_counter()
    # the odd n up to 102 walk 1 + 3 + ... + 101 = 2601 residues in all,
    # one past a cap of 2600, though each n alone lies within it
    for q, n_max, cap in (
        ("5", "20000000", "10000000"),
        ("2", "102", "100"),
        ("2", "101", "100"),
        ("2", "102", "2600"),
        ("2", "10000000", "10000000"),
    ):
        code, out, err = run(capsys, "verify", "--q", q, "--n-max", n_max, "--oracle-cap", cap)
        assert code == 2
        assert out == ""
        assert err == f"error: n exceeds the oracle cap {cap}\n"
    code, _, err = run(capsys, "verify", "--q", "5", "--n-max", "20000000")
    assert code == 2
    assert err == "error: n exceeds the oracle cap 10000000\n"
    assert time.perf_counter() - t0 < 1.0


def test_verify_n_max_stops_at_the_last_coprime_n(capsys):
    # 102 is even, so q=2 verifies the odd n up to 101, whose sum 2601
    # is within the cap
    code, out, err = run(capsys, "verify", "--q", "2", "--n-max", "102", "--oracle-cap", "2601")
    assert code == 0
    assert out == "verified q=2 for 51 moduli up to 102: all match\n"
    assert err == ""


def test_verify_n_max_mismatch_reports_once(capsys, monkeypatch):
    import cycloset.cli as cli_mod

    class FakeReport:
        q, coset_count = 5, 8
        mismatches = ((0, 1, 1, 2),)
        naive_seconds = structured_seconds = 0.0

        def __init__(self, n):
            self.n = n
            self.match = n < 4

    monkeypatch.setattr(cli_mod, "verify", lambda q, n, oracle_cap: FakeReport(n))
    code, out, err = run(capsys, "verify", "--q", "5", "--n-max", "9")
    assert code == 1
    assert out.splitlines() == [cli_mod._report_line(FakeReport(4))]
    assert err == "first divergence: (0, 1, 1, 2)\n"


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


def test_tree_zero_modulus_is_named(capsys):
    # gcd(5, 0) = 5: the message names the modulus, not q
    code, out, err = run(capsys, "tree", "--ell", "2", "--q", "5", "--n", "0", "--depth", "1")
    assert code == 2
    assert out == ""
    assert "modulus must be positive" in err


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


def test_with_leaders_past_the_oracle_cap_is_refused_before_enumerating(capsys):
    # every orbit of 3 mod 11 * 909091 is short, but leaders would walk all
    # n residues, and enumerating first would scan Z/909091
    t0 = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--q", "3", "--n", "10000001", "--with-leaders")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "oracle cap" in err


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


# sha256 of `enumerate --with-leaders`, recorded before the leader search
# became a label scan: long orbits' leaders must stay byte-identical
_LEADER_DIGESTS = {
    (5, 2667168): {
        "csv": "f05c8ec77c3b065d37848a8aa58b94b5c9f4f820464f7d604074480f0da1fe7e",
        "json": "fb11d0ec58cb7056f36ea1ba123159f3c049c065313c82aa9db51a87982decec",
        "table": "e88a4e27a16707d733c4d9a342a9d3abba26774b0314b02ea91ebfb4cb5de0b9",
    },
    (2, 3113787): {
        "csv": "e0349746f840b3be2b1999a5f531917ab8ac79655c5974326c20f7077923d4af",
        "json": "8aef00a92c80b6b4697d4defcb39695d280203ae61fd792de1626685cdf21793",
        "table": "04989153bfb84c5e840aeba2e14ca7abed4fb7dbf3b7f428acba0481a78f1121",
    },
    (31, 2750000): {
        "csv": "e29a60679d02b6fbf8b920380253b8243224a8d0e64e53416ee8fd7ef0531ffa",
        "json": "5cf918374f90ec3d9a78b18f232738414259b29e8e54324f61f769658bb6cbe8",
        "table": "e914ad9e4f0be5351e5c6da55e7673c344bfe566759dd69564fec5be8b7dab7f",
    },
    (7, 8388608): {
        "csv": "f048208006765e78bd517cee8e64d71966695be5c947a011fc6a8e70274f26dd",
        "json": "6c8498407fc150ca5480edfa23c8faee482406140a3399b2594e0d4a448ff1ac",
        "table": "a4f5af2a6727ab422903a5a4025b3c561a16534bc89b98ab396b3a6aa3f3e07d",
    },
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("q, n", sorted(_LEADER_DIGESTS))
def test_with_leaders_output_matches_recorded_digest(q, n, fmt):
    out = _enumerate_out(q, n, fmt, "--with-leaders").encode()
    assert hashlib.sha256(out).hexdigest() == _LEADER_DIGESTS[q, n][fmt]
