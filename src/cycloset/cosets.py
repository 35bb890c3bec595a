"""Ground-truth coset arithmetic on Z/nZ under multiplication by q.

Orbit walks here are the oracle for everything the structured machinery
claims: `enumerate_naive` sweeps all of Z/nZ, `coset_of` materializes a
single orbit, `_orbit_leader` streams one orbit for its least element and
length, and `size_of` gives the orbit length without walking.
`_orbit_mismatches` holds claimed (rep, size) pairs against the true
orbits; `CosetPartition.validate` and `tower.verify` both rest on it.
It first asks `_is_partition`, which proves a matching partition without
finding any leader: the orbit of x = g*u, g = gcd(x, n), is
g*(u*<q> mod m) with m = n/g and gcd(u, m) = 1, so every rep with that m
has an orbit of ord_m(q) elements, certified by `_exact_order` (a few
`pow`s and the factorization of the claim, never `mul_order`, cached like
`mul_order`); the claims must add up to n; and no two reps of one m may
share an orbit, which a baby-step giant-step search decides in about
2*sqrt(c) steps per rep for orbits of c elements (`_shares_an_orbit`).
Only when that fails are leaders found, to report what is wrong.
`_leaders` gives what `_orbit_leader` gives for many reps at once, and
the mismatch report and `leader_map` read it. Given a claimed length,
`_orbit_leader` first certifies it: a certified claim is the true length,
so the walk is a counted loop with no return test; any other claim gets
the open walk. For long orbits `_leaders` scans instead of walking: the
orbit g*(u*<q> mod m) is g times a coset of the subgroup <q> of (Z/m)*,
so its leader is g*r for the least r >= 1 with r*u^-1 mod m in <q>. One
bitmap of <q> mod m, at most n/8 bytes, serves every rep with that m.
Every walk needs gcd(q, n) = 1, since x -> q*x is no permutation of Z/nZ
otherwise and a walk from x may never come back to x; each caller checks
that before the first step.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import chain, repeat

from .arith import CACHE_SIZE, CapacityError, check_capacity, factorize, mul_order

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


def _orbit_leader(q: int, n: int, x: int, claimed: int = 0) -> tuple[int, int]:
    """(least element, length) of the orbit of x in [0, n), q coprime to n.

    The orbit of x has length ord(q) modulo m = n/gcd(x, n). When the
    claim is an int and q has order exactly `claimed` modulo m
    (`_exact_order`), the walk takes exactly that many steps with no
    return test and no counter. Any other claim, the default 0 included,
    takes the open walk (`_open_walk`). Either way only a running minimum
    is kept: no element list and no visited bytes.
    """
    if not 0 <= x < n:
        raise ValueError(f"{x} lies outside [0, {n})")
    if type(claimed) is not int or not _exact_order(q, n // math.gcd(x, n), claimed):
        return _open_walk(q, n, x)
    return _counted_leader(q, n, x, claimed), claimed


def _counted_leader(q: int, n: int, x: int, c: int) -> int:
    """Least element of the orbit of x mod n, which has exactly c
    elements: c - 1 steps with no return test."""
    lead = x
    for _ in repeat(None, c - 1):
        x = x * q % n
        if x < lead:
            lead = x
    return lead


@lru_cache(maxsize=CACHE_SIZE)
def _exact_order(q: int, m: int, c: int) -> bool:
    """Whether q has multiplicative order exactly c modulo m: q**c = 1,
    and q**(c/r) != 1 for each prime r dividing c. Uses only `pow` and the
    factorization of c, never `mul_order`, so it stays independent of the
    structured path. An order modulo m never exceeds m, so a larger
    claim, or one below 1, fails without factoring. A correct partition
    has few distinct (m, c), so the answers are cached across calls."""
    if not 0 < c <= m:
        return False
    one = 1 % m
    return pow(q, c, m) == one and all(pow(q, c // r, m) != one for r, _ in factorize(c))


def _open_walk(q: int, n: int, x: int) -> tuple[int, int]:
    """(least element, length) of the orbit of x: steps x -> q*x mod n
    until it returns to x, keeping a running minimum and a count."""
    lead = x
    length = 1
    y = x * q % n
    while y != x:
        if y < lead:
            lead = y
        y = y * q % n
        length += 1
    return lead, length


def _leaders(q: int, n: int, pairs) -> list[tuple[int, int]]:
    """`_orbit_leader(q, n, rep, claimed)` for every pair of a list, in
    order.

    The orbit of a rep x = g*u, g = gcd(x, n), is g*(u*<q> mod m) with
    m = n/g and gcd(u, m) = 1, since x*q**k mod n = g*(u*q**k mod m). The
    pairs whose claim c is an int that `_exact_order` certifies are
    grouped by (m, c); a group of two or more reps with c*c > m is
    scanned (`_scan_group`), about m/c steps per rep against the walk's
    c. Every other pair is walked by `_orbit_leader`.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (rep, claimed) in enumerate(pairs):
        if not 0 <= rep < n:
            raise ValueError(f"{rep} lies outside [0, {n})")
        m = n // math.gcd(rep, n)
        if type(claimed) is int and claimed * claimed > m and _exact_order(q, m, claimed):
            groups.setdefault((m, claimed), []).append(i)
    out: list = [None] * len(pairs)
    for (m, c), group in groups.items():
        if len(group) > 1:
            for i, found in zip(group, _scan_group(q, n, m, c, [pairs[i][0] for i in group])):
                out[i] = found
    return [
        found or _orbit_leader(q, n, rep, claimed)
        for found, (rep, claimed) in zip(out, pairs)
    ]


def _scan_group(q: int, n: int, m: int, c: int, reps) -> list[tuple[int, int]]:
    """(leader, c) of each rep g*u, g = n/m, whose orbit has exactly c
    elements mod n.

    The orbit is g times the coset u*H of H = <q> in (Z/m)*, so its
    leader is g*r for the least r >= 1 with r*u^-1 mod m in H. H is
    marked in a bitmap of m bits, c steps from 1; the bitmap lives for
    this call only, so at most n/8 bytes are held. The scan steps
    x = r*u^-1 mod m for r = 1, 2, ... until x lies in H. A scan that
    passes c steps with no hit falls back to the counted walk.
    """
    bits = bytearray((m >> 3) + 1)
    h = 1
    for _ in repeat(None, c):
        bits[h >> 3] |= 1 << (h & 7)
        h = h * q % m
    g = n // m
    out = []
    for rep in reps:
        v = pow(rep // g, -1, m)
        x = 0
        for r in range(1, c + 1):
            x += v
            if x >= m:
                x -= m
            if bits[x >> 3] >> (x & 7) & 1:
                out.append((g * r, c))
                break
        else:
            out.append(_orbit_leader(q, n, rep, c))
    return out


def _check_walk(q: int, n: int, start: int) -> None:
    """Refuse an orbit walk before its first step: `ValueError` unless q
    is coprime to n, `CapacityError` when the orbit has more than
    ORACLE_CAP elements (only a modulus above the cap can have one)."""
    _require_coprime(q, n)
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
        return tuple(_orbit(self.q, self.n, self.rep))

    def leader(self) -> int:
        """Smallest element of the orbit, streamed from one walk on demand;
        the walk is counted when `size` is certified (`_orbit_leader`)."""
        if self.elements is not None:
            return min(self.elements)
        _check_walk(self.q, self.n, self.rep)
        return _orbit_leader(self.q, self.n, self.rep % self.n, self.size)[0]


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
        others' leaders come together from `_leaders`, by a scan of <q>
        mod m, m = n/gcd(rep, n), for long orbits and a walk for the rest.
        The scan is exact because gcd(u, m) = 1 for a rep g*u and its
        orbit is g*(u*<q> mod m). n is capped at ORACLE_CAP before the
        first step."""
        return dict(zip(_partition_leaders(self), (c.size for c in self.cosets)))

    def validate(self) -> None:
        """Hold every (rep, size) against the true orbits with the check
        `verify` uses, then check the sort; `elements` is not read. Each
        coset must carry the partition's q and n. O(n) time, so n is
        capped at ORACLE_CAP."""
        _check_total_walk(self.n)
        _require_coprime(self.q, self.n)
        for c in self.cosets:
            if c.q != self.q or c.n != self.n:
                raise AssertionError(f"{c!r} is not a coset of q={self.q} mod {self.n}")
            if not 0 <= c.rep < self.n:
                raise AssertionError(f"rep {c.rep} lies outside [0, {self.n})")
        reps = self.reps()
        mismatches = _orbit_mismatches(self.q, self.n, [(c.rep, c.size) for c in self.cosets])
        if mismatches:
            raise AssertionError(f"coset disagrees with the orbits mod {self.n}: {mismatches[0]}")
        if reps != sorted(reps):
            raise AssertionError("cosets are not sorted by representative")


def _partition_leaders(part: CosetPartition) -> list[int]:
    """`c.leader()` for every coset c of `part`, in order.

    A coset with stored `elements` gives their minimum, and one that
    carries another q or n its own `leader()`. The rest go to one
    `_leaders` call, after n is capped at ORACLE_CAP and q is checked
    coprime to n, as `leader()` would.
    """
    q, n = part.q, part.n
    _check_total_walk(n)
    grouped = [c.elements is None and c.q == q and c.n == n for c in part.cosets]
    if any(grouped):
        _require_coprime(q, n)
    pairs = [(c.rep % n, c.size) for c, g in zip(part.cosets, grouped) if g]
    found = iter(_leaders(q, n, pairs))
    return [next(found)[0] if g else c.leader() for c, g in zip(part.cosets, grouped)]


def coset_of(q: int, n: int, gamma: int) -> CyclotomicCoset:
    """The materialized orbit of gamma mod n under multiplication by q,
    refused (`CapacityError`) when it has more than ORACLE_CAP elements."""
    _check_walk(q, n, gamma)
    elems = _orbit(q, n, gamma)
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
    _require_coprime(coset.q, coset.n)
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
    residue is stepped through with x -> q*x mod n exactly once, at the
    cost of one visited byte per residue. `enumerate_naive` and the
    missed-orbit report of `_orbit_mismatches` use it.
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


def _is_partition(q: int, n: int, pairs) -> bool:
    """Whether the (rep, size) pairs are exactly the orbits mod n, one
    pair per orbit, decided without finding any leader. True only if:

    1. every claim is an int that `_exact_order` certifies, once per
       distinct m = n/gcd(rep, n): every rep g*u of that m has an orbit
       of ord_m(q) elements, so a second, different claim for m is wrong;
    2. the claims add up to n;
    3. no two reps of one m share an orbit (`_shares_an_orbit`).

    Reps of different m never share an orbit, since gcd(x, n) is the same
    for every x in one, so 1 and 3 make the orbits reached distinct and of
    the claimed lengths, and 2 makes them cover Z/nZ. False says only that
    the check failed; a rep outside [0, n) gives False, and the caller
    finds out what is wrong.
    """
    claims: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    total = 0
    for rep, claimed in pairs:
        if not 0 <= rep < n or type(claimed) is not int:
            return False
        m = n // math.gcd(rep, n)
        if claims.setdefault(m, claimed) != claimed:
            return False
        groups.setdefault(m, []).append(rep)
        total += claimed
    if total != n or not all(_exact_order(q, m, c) for m, c in claims.items()):
        return False
    return not any(
        _shares_an_orbit(q, n, claims[m], reps) for m, reps in groups.items() if len(reps) > 1
    )


_BSGS_ENTRIES = 4096  # most baby steps `_shares_an_orbit` holds at once


def _shares_an_orbit(q: int, n: int, c: int, reps) -> bool:
    """Whether two of the reps, whose orbits mod n all have exactly c
    elements, lie in one orbit.

    Shanks' baby-step giant-step: the first b elements x*q**i of every
    rep's orbit go into one dict {element: index}, with b about sqrt(c)
    and at most _BSGS_ENTRIES entries in all. x' = x*q**t for some
    0 <= t < c exactly when some giant step x'*q**(-b*j),
    0 <= j <= (c-1)//b, is a baby step of x; j = 0 is x' itself, met on
    insert. A step that meets another rep's index is a shared orbit; one
    that meets its own rep's is not, since q**(b*j) may wrap round the
    orbit. When walking each orbit for its least element costs no more
    (c <= b + (c-1)//b), the leaders go into a set instead
    (`_leaders_collide`).
    """
    b = max(1, min(math.isqrt(c - 1) + 1, _BSGS_ENTRIES // len(reps)))
    giant = (c - 1) // b
    if c <= b + giant:
        return _leaders_collide(q, n, c, reps)
    baby: dict[int, int] = {}
    for i, x in enumerate(reps):
        for _ in repeat(None, b):
            if baby.setdefault(x, i) != i:
                return True
            x = x * q % n
    step = pow(q, -b, n)
    for i, x in enumerate(reps):
        for _ in repeat(None, giant):
            x = x * step % n
            if baby.get(x, i) != i:
                return True
    return False


def _leaders_collide(q: int, n: int, c: int, reps) -> bool:
    """Whether two of the reps, whose orbits mod n all have exactly c
    elements, have the same least element: a counted walk per rep."""
    return len({_counted_leader(q, n, x, c) for x in reps}) < len(reps)


def _orbit_mismatches(q, n, pairs) -> list[tuple]:
    """Mismatches of (rep, size) pairs, reps in [0, n), against the true
    orbits, as `tower.VerificationReport.mismatches` defines them.

    When `_is_partition` holds there are none, and no leader is found: a
    matching partition costs a certificate per m and an orbit-collision
    test per m, with at most _BSGS_ENTRIES baby steps held. Otherwise
    `_leaders` finds the leader and true length of each rep's orbit, and
    every mismatch comes from them: a claimed size that q's exact order
    certifies is that length, and the leader comes from a scan of <q>
    mod m shared by the reps of the same m = n/gcd(rep, n) when the orbit
    is long, else from a counted walk; any other claim is walked open, so
    its true length is what gets reported. The scan is exact: gcd(u, m) = 1
    for the rep g*u, and its orbit is g*(u*<q> mod m).
    A rep whose leader an earlier rep already reached lies in that rep's
    orbit. Distinct orbits are disjoint, so when the lengths of the
    orbits reached add up to n, no orbit was missed; only when they fall
    short does one `_orbit_sweep` find the missed orbits. A mismatching
    partition holds O(number of pairs) plus one bitmap of at most n/8
    bytes unless an orbit was missed.
    """
    _require_coprime(q, n)
    if _is_partition(q, n, pairs):
        return []
    leaders: set[int] = set()
    total = 0
    out = []
    for (rep, claimed), (lead, length) in zip(pairs, _leaders(q, n, pairs)):
        seen = lead in leaders
        if seen or length != claimed:
            out.append((lead, rep, length, claimed))
        if not seen:
            leaders.add(lead)
            total += length
    if total < n:
        reps, sizes = _orbit_sweep(q, n, leaders)
        k = len(leaders)
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
    _check_total_walk(n, cap)
    reps, sizes = _orbit_sweep(q, n)
    cosets = tuple(
        CyclotomicCoset(q, n, r, s, tuple(_orbit(q, n, r)) if materialize else None)
        for r, s in zip(reps, sizes)
    )
    return CosetPartition(q, n, cosets)
