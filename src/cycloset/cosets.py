"""The coset types, and the orbit oracle's answers as coset objects.

`CyclotomicCoset` and `CosetPartition` hold (rep, size) pairs of the
orbits of multiplication by q on Z/nZ. `enumerate_naive` sweeps all of
Z/nZ, `coset_of` and `project` materialize one orbit, `leader` and
`CosetPartition.leader_map` find orbit leaders, and
`CosetPartition.validate` holds a partition against the true orbits.
Each calls the plain-int walks and proof of `orbits`, whose docstring
states the orbit structure they rest on. What needs more than `orbits`
may import stays here: the caps that refuse a walk before its first step
(`_check_walk`, `_check_total_walk`), and `size_of`, an orbit length from
`mul_order` with no walk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields

from . import orbits
from .arith import CapacityError, check_capacity, mul_order

ORACLE_CAP = 10**7


def _check_walk(q: int, n: int, start: int) -> None:
    """Refuse an orbit walk before its first step: `ValueError` unless q
    is coprime to n, `CapacityError` when the orbit has more than
    ORACLE_CAP elements (only a modulus above the cap can have one)."""
    orbits._require_coprime(q, n)
    if n > ORACLE_CAP and size_of(q, n, start) > ORACLE_CAP:
        raise CapacityError(f"orbit exceeds the oracle cap {ORACLE_CAP}")


def _check_total_walk(n: int, cap: int = ORACLE_CAP) -> None:
    """Refuse, before the first step, to walk every orbit mod n: that is
    n steps in all, however short each orbit is. The one test of n
    against an oracle cap; the message leaves n out, as `check_capacity`
    does."""
    if n > cap:
        raise CapacityError(f"n exceeds the oracle cap {cap}")


@dataclass(frozen=True, slots=True, init=False)
class CyclotomicCoset:
    """One orbit of multiplication by q on Z/nZ.

    `rep` is whatever representative the constructing code supplied; it
    is stored as given, so that code must supply one in [0, n). It need
    not be the leader. `elements` is only filled when the orbit was
    actually walked.
    """

    q: int
    n: int
    rep: int
    size: int
    elements: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    # Hand-written so that each field goes straight into its slot: the
    # generated __init__ of a frozen dataclass sets every field through
    # object.__setattr__ by name, which dominates the cost of the many
    # cosets a partition returns.
    def __init__(
        self,
        q: int,
        n: int,
        rep: int,
        size: int,
        elements: tuple[int, ...] | None = None,
    ) -> None:
        _set_q(self, q)
        _set_n(self, n)
        _set_rep(self, rep)
        _set_size(self, size)
        _set_elements(self, elements)

    def materialize(self) -> tuple[int, ...]:
        if self.elements is not None:
            return self.elements
        _check_walk(self.q, self.n, self.rep)
        return tuple(orbits._orbit(self.q, self.n, self.rep))

    def leader(self) -> int:
        """Smallest element of the orbit, streamed from one walk on demand;
        the walk is counted when `size` is certified
        (`orbits._orbit_leader`)."""
        if self.elements is not None:
            return min(self.elements)
        _check_walk(self.q, self.n, self.rep)
        return orbits._orbit_leader(self.q, self.n, self.rep % self.n, self.size)[0]


# the slots' member descriptors, which set a field and bypass the frozen
# __setattr__; bound once here because the class must exist first
_set_q, _set_n, _set_rep, _set_size, _set_elements = (
    CyclotomicCoset.__dict__[f.name].__set__ for f in fields(CyclotomicCoset)
)


def leader(coset: CyclotomicCoset) -> int:
    return coset.leader()


@dataclass(frozen=True)
class CosetPartition:
    """The complete set of q-cyclotomic cosets modulo n, sorted by rep."""

    q: int
    n: int
    cosets: tuple[CyclotomicCoset, ...]

    def total(self) -> int:
        return sum(c.size for c in self.cosets)

    def size_counter(self) -> Counter:
        return Counter(c.size for c in self.cosets)

    def reps(self) -> list[int]:
        return [c.rep for c in self.cosets]

    def leader_map(self) -> dict[int, int]:
        """leader -> size for every coset: {c.leader(): c.size for c in
        self.cosets}. A coset with `elements` gives their minimum; the
        others' leaders come together from `orbits._leaders`. n is capped
        at ORACLE_CAP before the first step."""
        return dict(zip(_partition_leaders(self), (c.size for c in self.cosets)))

    def validate(self) -> None:
        """Hold every (rep, size) against the true orbits with the check
        `verify` uses (`orbits._orbit_mismatches`), then check the sort;
        `elements` is not read. Each coset must carry the partition's q
        and n. A matching partition is proved without walking any orbit,
        but a mismatch may walk every orbit, n steps in all, so n is
        capped at ORACLE_CAP."""
        _check_total_walk(self.n)
        orbits._require_coprime(self.q, self.n)
        for c in self.cosets:
            if c.q != self.q or c.n != self.n:
                raise AssertionError(f"{c!r} is not a coset of q={self.q} mod {self.n}")
            if not 0 <= c.rep < self.n:
                raise AssertionError(f"rep {c.rep} lies outside [0, {self.n})")
        reps = self.reps()
        pairs = [(c.rep, c.size) for c in self.cosets]
        mismatches = orbits._orbit_mismatches(self.q, self.n, pairs)
        if mismatches:
            raise AssertionError(f"coset disagrees with the orbits mod {self.n}: {mismatches[0]}")
        if reps != sorted(reps):
            raise AssertionError("cosets are not sorted by representative")


def _partition_leaders(part: CosetPartition) -> list[int]:
    """`c.leader()` for every coset c of `part`, in order.

    A coset with stored `elements` gives their minimum, and one that
    carries another q or n its own `leader()`. The rest go to one
    `orbits._leaders` call, after n is capped at ORACLE_CAP and q is checked
    coprime to n, as `leader()` would.
    """
    q, n = part.q, part.n
    _check_total_walk(n)
    grouped = [c.elements is None and c.q == q and c.n == n for c in part.cosets]
    if any(grouped):
        orbits._require_coprime(q, n)
    pairs = [(c.rep % n, c.size) for c, g in zip(part.cosets, grouped) if g]
    found = iter(orbits._leaders(q, n, pairs))
    return [next(found)[0] if g else c.leader() for c, g in zip(part.cosets, grouped)]


def coset_of(q: int, n: int, gamma: int) -> CyclotomicCoset:
    """The materialized orbit of gamma mod n under multiplication by q,
    refused (`CapacityError`) when it has more than ORACLE_CAP elements."""
    _check_walk(q, n, gamma)
    elems = orbits._orbit(q, n, gamma)
    return CyclotomicCoset(q, n, gamma % n, len(elems), tuple(elems))


def size_of(q: int, n: int, gamma: int) -> int:
    """Orbit length of gamma mod n, with no orbit walk.

    The orbit of gamma has length ord(q) modulo n/gcd(n, gamma); the
    gcd convention gcd(n, 0) = n makes the zero orbit come out as 1.
    """
    orbits._require_coprime(q, n)
    check_capacity(n)
    return mul_order(q, n // math.gcd(n, gamma % n))


def project(coset: CyclotomicCoset, n_prime: int) -> CyclotomicCoset:
    """Image of a coset under reduction to a divisor modulus."""
    orbits._require_coprime(coset.q, coset.n)
    if n_prime < 1 or coset.n % n_prime != 0:
        raise ValueError(f"{n_prime} does not divide the modulus {coset.n}")
    return coset_of(coset.q, n_prime, coset.rep % n_prime)


def enumerate_naive(
    q: int, n: int, cap: int = ORACLE_CAP, materialize: bool = False
) -> CosetPartition:
    """Brute-force partition of Z/nZ by a single sweep with a visited mask.

    O(n) time and O(n) bytes; refuses n above `cap` so a typo cannot
    allocate an absurd mask. Representatives are the orbit leaders.
    """
    orbits._require_coprime(q, n)
    check_capacity(n)
    _check_total_walk(n, cap)
    reps, sizes = orbits._orbit_sweep(q, n)
    cosets = tuple(
        CyclotomicCoset(q, n, r, s, tuple(orbits._orbit(q, n, r)) if materialize else None)
        for r, s in zip(reps, sizes)
    )
    return CosetPartition(q, n, cosets)
