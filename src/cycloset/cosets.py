"""Ground-truth coset arithmetic on Z/nZ under multiplication by q.

Orbit walks here are the oracle for everything the structured machinery
claims: `enumerate_naive` sweeps all of Z/nZ, `coset_of` materializes a
single orbit, and `size_of` gives the orbit length without walking.
`_orbit_mismatches` holds claimed (rep, size) pairs against the true
orbits; `CosetPartition.validate` and `tower.verify` both rest on it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import chain

from .arith import CapacityError, check_capacity, mul_order

ORACLE_CAP = 10**7


def _require_coprime(q: int, n: int) -> None:
    if n < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(q, n) != 1:
        raise ValueError(f"gcd(q={q}, n={n}) must be 1")


def _orbit(q: int, n: int, start: int) -> list[int]:
    first = start % n
    out = [first]
    x = first * q % n
    while x != first:
        out.append(x)
        x = x * q % n
    return out


def _capped_orbit(q: int, n: int, start: int) -> list[int]:
    """`_orbit`, refused before the walk when it would pass ORACLE_CAP
    elements; only a modulus above the cap can have such an orbit."""
    if n > ORACLE_CAP and size_of(q, n, start) > ORACLE_CAP:
        raise CapacityError(f"orbit exceeds the oracle cap {ORACLE_CAP}")
    return _orbit(q, n, start)


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
        return tuple(_capped_orbit(self.q, self.n, self.rep))

    def leader(self) -> int:
        """Smallest element of the orbit, walking it on demand."""
        return min(self.materialize())


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
        """leader -> size for every coset (walks each orbit once, so
        `CapacityError` past ORACLE_CAP)."""
        return {c.leader(): c.size for c in self.cosets}

    def validate(self) -> None:
        """Hold every (rep, size) against the true orbits with the sweep
        `verify` uses, then check the sort; `elements` is not read. O(n)
        memory, so n is capped at ORACLE_CAP."""
        if self.n > ORACLE_CAP:
            raise CapacityError(f"n exceeds the oracle cap {ORACLE_CAP}")
        _require_coprime(self.q, self.n)
        reps = self.reps()
        for rep in reps:
            # a negative rep would index the visited bytes from the end
            if not 0 <= rep < self.n:
                raise AssertionError(f"rep {rep} lies outside [0, {self.n})")
        mismatches = _orbit_mismatches(self.q, self.n, [(c.rep, c.size) for c in self.cosets])
        if mismatches:
            raise AssertionError(f"coset disagrees with the orbits mod {self.n}: {mismatches[0]}")
        if reps != sorted(reps):
            raise AssertionError("cosets are not sorted by representative")


def coset_of(q: int, n: int, gamma: int) -> CyclotomicCoset:
    """The materialized orbit of gamma mod n under multiplication by q,
    refused (`CapacityError`) when it has more than ORACLE_CAP elements."""
    _require_coprime(q, n)
    check_capacity(n)
    elems = _capped_orbit(q, n, gamma)
    return CyclotomicCoset(q, n, gamma % n, len(elems), tuple(elems))


def size_of(q: int, n: int, gamma: int) -> int:
    """Orbit length of gamma mod n, with no orbit walk.

    The orbit of gamma has length ord(q) modulo n/gcd(n, gamma); the
    gcd convention gcd(n, 0) = n makes the zero orbit come out as 1.
    """
    _require_coprime(q, n)
    check_capacity(n)
    return mul_order(q, n // math.gcd(n, gamma % n))


def project(coset: CyclotomicCoset, n_prime: int) -> CyclotomicCoset:
    """Image of a coset under reduction to a divisor modulus."""
    if n_prime < 1 or coset.n % n_prime != 0:
        raise ValueError(f"{n_prime} does not divide the modulus {coset.n}")
    return coset_of(coset.q, n_prime, coset.rep % n_prime)


def _unvisited(visited: bytearray):
    """The least unvisited residue, again each time the caller has
    walked the orbit of the last one."""
    g = visited.find(0)
    while g >= 0:
        yield g
        g = visited.find(0, g)


def _orbit_sweep(q, n, starts=()):
    """One pass over Z/nZ: returns (reps, sizes) of every orbit walk.

    The orbit of each start is walked first, in the order given; a start
    whose orbit an earlier start already walked gets size 0. Then every
    orbit that no start reached is walked from its least residue, in
    ascending order. reps is the starts followed by those leaders. Each
    residue is stepped through with x -> q*x mod n exactly once.
    """
    visited = bytearray(n)
    reps: list[int] = []
    sizes: list[int] = []
    for x in chain(starts, _unvisited(visited)):
        reps.append(x)
        size = 0
        while not visited[x]:
            visited[x] = 1
            x = x * q % n
            size += 1
        sizes.append(size)
    return reps, sizes


def _orbit_mismatches(q, n, pairs) -> list[tuple]:
    """Mismatches of (rep, size) pairs, reps in [0, n), against the true
    orbits, as `tower.VerificationReport.mismatches` defines them.

    One `_orbit_sweep` walks the orbit of each rep in the order given,
    then the orbits no rep reached. A rep walked with 0 steps lies in an
    earlier rep's orbit; leaders are only computed for mismatched reps.
    """
    reps, sizes = _orbit_sweep(q, n, [rep for rep, _ in pairs])
    out = []
    for (rep, claimed), size in zip(pairs, sizes):
        if not size or size != claimed:
            orbit = _orbit(q, n, rep)
            out.append((min(orbit), rep, len(orbit), claimed))
    k = len(pairs)
    out += ((lead, None, size, None) for lead, size in zip(reps[k:], sizes[k:]))
    return out


def enumerate_naive(
    q: int, n: int, cap: int = ORACLE_CAP, materialize: bool = False
) -> CosetPartition:
    """Brute-force partition of Z/nZ by a single sweep with a visited mask.

    O(n) time and O(n) bytes; refuses n above `cap` so a typo cannot
    allocate an absurd mask. Representatives are the orbit leaders.
    """
    _require_coprime(q, n)
    check_capacity(n)
    if n > cap:
        raise CapacityError(f"n = {n} exceeds the oracle cap {cap}")
    reps, sizes = _orbit_sweep(q, n)
    cosets = tuple(
        CyclotomicCoset(q, n, r, s, tuple(_orbit(q, n, r)) if materialize else None)
        for r, s in zip(reps, sizes)
    )
    return CosetPartition(q, n, cosets)
