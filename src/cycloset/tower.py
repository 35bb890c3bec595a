"""End-to-end enumeration: factor the modulus, then lift the partition
of Z/1Z through one prime-power tower per prime factor.

`enumerate_cosets` never walks an orbit; every representative and size
comes from the closed-form branch slices. `verify` replays the same
modulus with the brute-force sweep and compares the two partitions by
leader keys.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .arith import CapacityError, as_prime_power, check_capacity, factorize, is_prime
from .cosets import (
    ORACLE_CAP,
    CosetPartition,
    CyclotomicCoset,
    _orbit_sweep,
)
from .system import _depth_slice


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
    """
    out: list[tuple[int, int]] = []
    for rep, size in pairs:
        out += _depth_slice(ell, q, n, rep, size, f)
    return out


def _partition(q: int, n: int, pairs) -> CosetPartition:
    return CosetPartition(q, n, tuple(CyclotomicCoset(q, n, rep, size) for rep, size in pairs))


def lift_partition(ell: int, q: int, base: CosetPartition, f: int) -> CosetPartition:
    """Lift a partition at an ell-free modulus n to ell**f * n.

    Emits the depth-f slice of every branch over every base coset;
    sizes are analytic throughout. f = 0 returns the base unchanged.
    """
    if f < 0:
        raise ValueError("tower height must be nonnegative")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if math.gcd(ell, base.n) != 1:
        raise ValueError("base modulus must be coprime to ell")
    if math.gcd(ell, q) != 1:
        raise ValueError("ell must be a prime not dividing q")
    if f == 0:
        return base
    mod = ell**f * base.n
    check_capacity(mod)
    pairs = _lift_pairs(ell, q, base.n, [(c.rep, c.size) for c in base.cosets], f)
    pairs.sort()
    return _partition(q, mod, pairs)


def _enumerate_pairs(q: int, n: int) -> list[tuple[int, int]]:
    """(rep, size) of every q-cyclotomic coset modulo n, ascending by rep.

    Starts from the single coset {0} modulo 1 and lifts it through the
    prime factorization of n in ascending prime order, sorting once at
    the end.
    """
    as_prime_power(q)
    if n < 1:
        raise ValueError("n must be positive")
    check_capacity(n)
    if math.gcd(q, n) != 1:
        raise ValueError(f"gcd(q={q}, n={n}) must be 1")
    pairs = [(0, 1)]
    m = 1
    for ell, f in factorization_plan(n).factors:
        pairs = _lift_pairs(ell, q, m, pairs, f)
        m *= ell**f
    pairs.sort()
    return pairs


def enumerate_cosets(q: int, n: int) -> CosetPartition:
    """All q-cyclotomic cosets modulo n, by chained prime-power lifts,
    sorted by representative."""
    return _partition(q, n, _enumerate_pairs(q, n))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one structured-vs-oracle comparison.

    `mismatches` holds (oracle leader, structured rep, oracle size,
    structured size) tuples, with None on the side that lacks the coset.
    """

    q: int
    n: int
    match: bool
    mismatches: tuple[tuple, ...]
    naive_seconds: float
    structured_seconds: float
    coset_count: int


def verify(q: int, n: int, oracle_cap: int = ORACLE_CAP) -> VerificationReport:
    """Compare enumerate_cosets against the orbit sweep as partitions.

    The sweep labels every residue with its orbit leader, so each
    structured coset is checked to land on a distinct true orbit of the
    claimed size, and all true orbits must be hit.
    """
    if n < 1 or math.gcd(q, n) != 1:
        raise ValueError(f"gcd(q={q}, n={n}) must be 1")
    check_capacity(n)
    if n > oracle_cap:
        raise CapacityError(f"n = {n} exceeds the oracle cap {oracle_cap}")

    t0 = time.perf_counter()
    leaders_list, sizes, leader_of = _orbit_sweep(q, n, leader_map=True)
    naive_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    part = enumerate_cosets(q, n)
    structured_seconds = time.perf_counter() - t0

    oracle = dict(zip(leaders_list, sizes))
    mismatches = []
    seen = set()
    for c in part.cosets:
        lead = leader_of[c.rep]
        true_size = oracle[lead]
        if c.size != true_size or lead in seen:
            mismatches.append((lead, c.rep, true_size, c.size))
        seen.add(lead)
    for lead in sorted(oracle.keys() - seen):
        mismatches.append((lead, None, oracle[lead], None))
    return VerificationReport(
        q,
        n,
        not mismatches,
        tuple(mismatches),
        naive_seconds,
        structured_seconds,
        len(part.cosets),
    )
