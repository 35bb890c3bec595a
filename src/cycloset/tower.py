"""End-to-end enumeration: factor the modulus, then lift the partition
of Z/1Z through one prime-power tower per prime factor.

`enumerate_cosets` never walks an orbit; every representative and size
comes from the closed-form branch slices. `verify` runs the structured
path first, then holds its (rep, size) pairs against the true orbits
with the oracle's one whole-ring check (`cosets._orbit_mismatches`).
`splitting_tree` draws the one-step splits of every coset down an
ell-power tower.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from operator import itemgetter

from .arith import CapacityError, as_prime_power, check_capacity, factorize
from .cosets import ORACLE_CAP, CosetPartition, CyclotomicCoset, _orbit_mismatches
from .system import (
    SplitKind,
    _check_tower,
    _classify_with_tau,
    _decompose_with_tau,
    _depth_slice,
)


@dataclass(frozen=True)
class FactorizationPlan:
    """Prime-power schedule (ell_1, f_1), ..., primes strictly ascending."""

    factors: tuple[tuple[int, int], ...]

    @property
    def modulus(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def factorization_plan(n: int) -> FactorizationPlan:
    return FactorizationPlan(factorize(n))


def _lift_pairs(ell: int, q: int, n: int, pairs, f: int) -> list[tuple[int, int]]:
    """(rep, size) of every coset mod ell**f * n over the given cosets mod n.

    Unsorted: the depth-f slices of the base cosets, one after another.
    Planning is split from expansion: the branch plan of each distinct
    base size tau is built once, in a dict that lives for this call
    only, and each base coset then just expands its digits against it
    (`system._depth_slice`).
    """
    plans: dict = {}
    out: list[tuple[int, int]] = []
    for rep, size in pairs:
        out += _depth_slice(ell, q, n, rep, size, f, plans)
    return out


def _partition(q: int, n: int, pairs) -> CosetPartition:
    return CosetPartition(q, n, tuple(CyclotomicCoset(q, n, rep, size) for rep, size in pairs))


def lift_partition(ell: int, q: int, base: CosetPartition, f: int) -> CosetPartition:
    """Lift a partition at an ell-free modulus n to ell**f * n.

    Emits the depth-f slice of every branch over every base coset;
    sizes are analytic throughout. f = 0 returns the base unchanged.
    """
    if base.q != q:
        raise ValueError(f"base partition is for q={base.q}, not q={q}")
    _check_tower(ell, q, base.n, f)
    if f == 0:
        return base
    pairs = _lift_pairs(ell, q, base.n, [(c.rep, c.size) for c in base.cosets], f)
    pairs.sort(key=itemgetter(0))
    return _partition(q, ell**f * base.n, pairs)


def _check_qn(q: int, n: int) -> None:
    as_prime_power(q)
    if n < 1:
        raise ValueError("n must be positive")
    check_capacity(n)
    if math.gcd(q, n) != 1:
        raise ValueError(f"gcd(q={q}, n={n}) must be 1")


def _enumerate_pairs(q: int, n: int) -> list[tuple[int, int]]:
    """(rep, size) of every q-cyclotomic coset modulo n, ascending by rep.

    Starts from the single coset {0} modulo 1 and lifts it through the
    prime factorization of n in ascending prime order, sorting once at
    the end.
    """
    _check_qn(q, n)
    pairs = [(0, 1)]
    m = 1
    for ell, f in factorization_plan(n).factors:
        pairs = _lift_pairs(ell, q, m, pairs, f)
        m *= ell**f
    pairs.sort(key=itemgetter(0))
    return pairs


def enumerate_cosets(q: int, n: int) -> CosetPartition:
    """All q-cyclotomic cosets modulo n, by chained prime-power lifts,
    sorted by representative."""
    return _partition(q, n, _enumerate_pairs(q, n))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one structured-vs-oracle comparison.

    `mismatches` holds (oracle leader, structured rep, oracle size,
    structured size) tuples, with None on the side that lacks the coset:
    first the structured cosets whose rep repeats an earlier coset's orbit
    or whose size is wrong, in partition order, then the orbits no rep
    reached, ascending by leader (`cosets._orbit_mismatches`).
    `structured_seconds` times `enumerate_cosets`; `naive_seconds` times
    the oracle walk and comparison.
    """

    q: int
    n: int
    match: bool
    mismatches: tuple[tuple, ...]
    naive_seconds: float
    structured_seconds: float
    coset_count: int


def verify(q: int, n: int, oracle_cap: int = ORACLE_CAP) -> VerificationReport:
    """Compare enumerate_cosets against the orbit oracle as partitions.

    The structured path runs first. Then `cosets._orbit_mismatches`
    walks the true orbit of each structured rep once, in partition
    order, and the residues still unvisited after that.
    """
    _check_qn(q, n)
    if n > oracle_cap:
        raise CapacityError(f"n = {n} exceeds the oracle cap {oracle_cap}")

    t0 = time.perf_counter()
    part = enumerate_cosets(q, n)
    structured_seconds = time.perf_counter() - t0

    pairs = [(c.rep, c.size) for c in part.cosets]
    t0 = time.perf_counter()
    mismatches = _orbit_mismatches(q, n, pairs)
    naive_seconds = time.perf_counter() - t0
    return VerificationReport(
        q,
        n,
        not mismatches,
        tuple(mismatches),
        naive_seconds,
        structured_seconds,
        len(pairs),
    )


@dataclass(frozen=True)
class TreeNode:
    depth: int
    rep: int
    size: int
    kind: SplitKind
    parent: int | None


@dataclass(frozen=True)
class SplittingTree:
    """The depth-f preimage tree of all base cosets under extension by ell."""

    ell: int
    q: int
    n: int
    depth: int
    levels: tuple[tuple[TreeNode, ...], ...]

    def to_dot(self) -> str:
        lines = [
            "digraph splitting_tree {",
            "  rankdir=LR;",
            "  node [shape=box];",
        ]
        for level in self.levels:
            ids = " ".join(f'"N{nd.depth}_{nd.rep}";' for nd in level)
            lines.append(f"  {{ rank=same; {ids} }}")
        for level in self.levels:
            for nd in level:
                lines.append(f'  "N{nd.depth}_{nd.rep}" [label="{nd.rep}/{nd.size}"];')
                if nd.parent is not None:
                    lines.append(
                        f'  "N{nd.depth - 1}_{nd.parent}" -> "N{nd.depth}_{nd.rep}";'
                    )
        lines.append("}")
        return "\n".join(lines) + "\n"


def splitting_tree(ell: int, q: int, n: int, f: int) -> SplittingTree:
    """Preimage tree of every coset mod n down to depth f, annotated with
    sizes and one-step split kinds."""
    _check_tower(ell, q, n, f)
    levels = [
        tuple(
            TreeNode(0, rep, size, _classify_with_tau(ell, q, n, rep, size), None)
            for rep, size in _enumerate_pairs(q, n)
        )
    ]
    mod = n
    for depth in range(1, f + 1):
        row = []
        for node in levels[-1]:
            for child in _decompose_with_tau(ell, q, mod, node.rep, node.size):
                kind = _classify_with_tau(ell, q, mod * ell, child.rep, child.size)
                row.append(TreeNode(depth, child.rep, child.size, kind, node.rep))
        levels.append(tuple(row))
        mod *= ell
    return SplittingTree(ell, q, n, f, tuple(levels))
