"""Command-line surface: enumerate, verify, tree, and phi subcommands.

Exit codes: 0 on success, 1 when a verification finds a divergence,
2 on bad usage, invalid input, or an input too large for memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from operator import itemgetter

from . import orbits
from .arith import PrimePowerQ, phi_prefix
from .cosets import ORACLE_CAP, CosetPartition, CyclotomicCoset, _check_total_walk
from .cosets import _partition_leaders
from .tower import _enumerate_pairs, splitting_tree, verify

_JSON_INT_MAX = 2**53
_COLUMNS = ("representative", "size", "leader")


def _jtext(v: int) -> str:
    # decimal strings above 2**53 so JSON consumers cannot lose precision
    return str(v) if -_JSON_INT_MAX <= v <= _JSON_INT_MAX else f'"{v}"'


def _leader_rows(pairs, leaders) -> list[tuple[int, int, int]]:
    rows = ((rep, size, lead) for (rep, size), lead in zip(pairs, leaders))
    return sorted(rows, key=itemgetter(2))


def _render(fmt: str, q: int, n: int, rows: list[tuple[int, ...]], with_leaders: bool) -> str:
    """The whole `enumerate` output for `rows`, newline-terminated.

    Each row is (representative, size), or (representative, size, leader)
    with leaders, and becomes one record of a single string.
    """
    header = _COLUMNS if with_leaders else _COLUMNS[:2]
    total = sum(map(itemgetter(1), rows))
    if fmt == "json":
        fields = ",\n".join(f'      "{h}": %s' for h in header)
        record = "    {\n" + fields + "\n    }"
        # a partition mod n has every rep, size and leader in [0, n]
        if n > _JSON_INT_MAX:
            rows = [tuple(map(_jtext, row)) for row in rows]
        cosets = "[\n" + ",\n".join(map(record.__mod__, rows)) + "\n  ]" if rows else "[]"
        return '{\n  "q": %s,\n  "n": %s,\n  "cosets": %s,\n  "total": %s\n}\n' % (
            _jtext(q), _jtext(n), cosets, _jtext(total),
        )
    if fmt == "csv":
        record = ",".join(["%s"] * len(header)) + "\n"
        return ",".join(header) + "\n" + "".join(map(record.__mod__, rows)) + f"# total={total}\n"
    # every rep, size and leader is >= 0, so the largest value is the widest
    widths = [max(len(h), len(str(max(col)))) for h, col in zip(header, zip(*rows))]
    record = "  ".join(f"%-{w}s" for w in widths) + "\n"
    return (
        "  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n"
        + "".join(map(record.__mod__, rows))
        + f"total: {len(rows)} cosets, {total} elements\n"
    )


def partition_to_json(part: CosetPartition, with_leaders: bool = False) -> str:
    rows = [(c.rep, c.size) for c in part.cosets]
    if with_leaders:
        rows = _leader_rows(rows, _partition_leaders(part))
    return _render("json", part.q, part.n, rows, with_leaders)[:-1]


def partition_from_json(text: str) -> CosetPartition:
    doc = json.loads(text)
    q = int(doc["q"])
    n = int(doc["n"])
    cosets = tuple(
        CyclotomicCoset(q, n, int(rec["representative"]), int(rec["size"]))
        for rec in sorted(doc["cosets"], key=lambda r: int(r["representative"]))
    )
    return CosetPartition(q, n, cosets)


def _resolve_q(args) -> int:
    if args.q is not None:
        if args.p is not None or args.e is not None:
            raise ValueError("give either --q or --p/--e, not both")
        return PrimePowerQ.from_value(args.q).q
    if args.p is None:
        raise ValueError("one of --q or --p is required")
    return PrimePowerQ(args.p, args.e if args.e is not None else 1).q


def cmd_enumerate(args) -> int:
    q = _resolve_q(args)
    if args.with_leaders:
        _check_total_walk(args.n)
    rows = _enumerate_pairs(q, args.n)
    if args.with_leaders:
        rows = _leader_rows(rows, map(itemgetter(0), orbits._leaders(q, args.n, rows)))
    sys.stdout.write(_render(args.format, q, args.n, rows, args.with_leaders))
    return 0


def _report_line(rep) -> str:
    return (
        f"q={rep.q} n={rep.n} cosets={rep.coset_count} "
        f"match={'yes' if rep.match else 'NO'} "
        f"naive={rep.naive_seconds * 1000:.2f}ms "
        f"structured={rep.structured_seconds * 1000:.2f}ms"
    )


def cmd_verify(args) -> int:
    q = _resolve_q(args)
    if args.n is not None and args.n_max is not None:
        raise ValueError("give either --n or --n-max, not both")
    if args.n_max is not None:
        if args.n_max < 1:
            raise ValueError("--n-max must be at least 1")
        # each verify walks n residues, and q = p**e: the n <= n_max coprime
        # to q walk T(n_max) - p * T(n_max // p) in all, T(x) = x(x+1)/2,
        # so a sweep past the cap is refused before its first verify
        n_max, p = args.n_max, PrimePowerQ.from_value(q).p
        k = n_max // p
        _check_total_walk((n_max * (n_max + 1) - p * k * (k + 1)) // 2, args.oracle_cap)
        moduli = (n for n in range(1, args.n_max + 1) if math.gcd(q, n) == 1)
    elif args.n is None:
        raise ValueError("one of --n or --n-max is required")
    else:
        moduli = (args.n,)
    checked = 0
    for n in moduli:
        rep = verify(q, n, oracle_cap=args.oracle_cap)
        checked += 1
        if args.n_max is None or not rep.match:
            print(_report_line(rep))
        if not rep.match:
            print(f"first divergence: {rep.mismatches[0]}", file=sys.stderr)
            return 1
    if args.n_max is not None:
        print(f"verified q={q} for {checked} moduli up to {args.n_max}: all match")
    return 0


def cmd_tree(args) -> int:
    q = _resolve_q(args)
    tree = splitting_tree(args.ell, q, args.n, args.depth)
    sys.stdout.write(tree.to_dot())
    return 0


def cmd_phi(args) -> int:
    if args.digits < 1:
        raise ValueError("--digits must be at least 1")
    prefix = phi_prefix(args.ell, args.n, args.gamma, args.digits - 1)
    print(" ".join(str(d) for d in prefix.digits))
    return 0


def _add_q_options(sub) -> None:
    sub.add_argument("--q", type=int, help="prime power q")
    sub.add_argument("--p", type=int, help="prime base of q (with --e)")
    sub.add_argument("--e", type=int, help="exponent of q (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloset",
        description="Enumerate q-cyclotomic cosets modulo n exactly, "
        "verify against a brute-force orbit oracle, and render splitting trees.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_enum = subs.add_parser("enumerate", help="list all cosets modulo n")
    _add_q_options(p_enum)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p_enum.add_argument("--with-leaders", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = subs.add_parser("verify", help="compare against the orbit oracle")
    _add_q_options(p_verify)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument(
        "--n-max", type=int, help="verify each coprime n <= N_MAX if their sum is within the cap"
    )
    p_verify.add_argument("--oracle-cap", type=int, default=ORACLE_CAP)
    p_verify.set_defaults(func=cmd_verify)

    p_tree = subs.add_parser("tree", help="emit the splitting tree as DOT")
    _add_q_options(p_tree)
    p_tree.add_argument("--ell", type=int, required=True)
    p_tree.add_argument("--n", type=int, required=True)
    p_tree.add_argument("--depth", type=int, required=True)
    p_tree.add_argument("--format", choices=["dot"], default="dot")
    p_tree.set_defaults(func=cmd_tree)

    p_phi = subs.add_parser("phi", help="digits of -gamma/n as an ell-adic integer")
    p_phi.add_argument("--ell", type=int, required=True)
    p_phi.add_argument("--n", type=int, required=True)
    p_phi.add_argument("--gamma", type=int, required=True)
    p_phi.add_argument("--digits", type=int, required=True)
    p_phi.set_defaults(func=cmd_phi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
