"""The orbit oracle: multiplication by q on Z/nZ, walked and proved on
plain ints.

It checks what the structured path claims, so it imports only
`CACHE_SIZE` and `factorize` from `arith`, never `mul_order` or
`carmichael`, and nothing above it (`tests/test_layering.py`).

Every walk needs gcd(q, n) = 1, since x -> q*x is no permutation of Z/nZ
otherwise and a walk from x may never come back to x; each caller checks
that before the first step (`_require_coprime`). Write x = g*u with
g = gcd(x, n), m = n/g and gcd(u, m) = 1. Then x*q**k mod n =
g*(u*q**k mod m), so the orbit of x is g times the coset u*H of
H = <q> in (Z/m)*: it has ord_m(q) elements, and no orbit holds x's of
two different m. So:

- a claimed length c that `_exact_order` certifies as ord_m(q) (a few
  `pow`s and the factorization of c, cached like `mul_order`) is the
  true length, and the walk for the least element, the leader, is a
  counted loop (`_counted_leader`); any other claim is walked until the
  orbit returns (`_open_walk`). `_orbit_leader` picks between the two.
- The leader of g*u is g*r for the least r >= 1 with r*u^-1 mod m in H,
  so `_leaders` scans one bitmap of H mod m, at most n/8 bytes, for the
  long orbits of one m (`_scan_group`) and walks the rest.
- (rep, size) pairs are exactly the orbits mod n, one pair per orbit,
  when every claim is an int certified once per m, so that every rep of
  that m has an orbit of the claimed length c; the claims add up to n;
  and no two reps of one m share an orbit. The orbits reached are then
  distinct, of the claimed lengths, and cover Z/nZ. Two reps g*u, g*u'
  share an orbit exactly when u' = u*q**t for some 0 < t < c, and then
  u = u'*q**(c-t) with min(t, c-t) <= c//2. When (Z/m)* is cyclic
  (m = 1, 2, 4, p**e or 2*p**e, `_is_cyclic`), exactly c units solve
  v**c = 1, so H is that kernel and u*H is decided by the key u**c mod
  m: one `pow` per rep (`_keys_collide`). Otherwise a baby-step
  giant-step search from each rep over the c//2 steps ahead of it
  decides it in about sqrt(2c) steps per rep (`_shares_an_orbit`), and
  a group whose counted walks cost no more is walked for its leaders.
  `_is_partition` decides all this without finding any leader;
  `_orbit_mismatches` asks it first, finds leaders only to report what
  is wrong, and sweeps Z/nZ (`_orbit_sweep`) only when the orbits
  reached do not cover it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, repeat

from .arith import CACHE_SIZE, factorize


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
    """(least element, length) of the orbit of x in [0, n), q coprime to n:
    the counted walk when `claimed` is an int that `_exact_order`
    certifies, else, the default 0 included, the open walk. Either way
    only a running minimum is kept: no element list and no visited bytes.
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

    The pairs whose claim c is an int that `_exact_order` certifies are
    grouped by (m, c), m = n/gcd(rep, n); a group of two or more reps with
    c*c > m is scanned (`_scan_group`), about m/c steps per rep against
    the walk's c. Every other pair is walked by `_orbit_leader`.
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
    elements mod n, by the subgroup scan of the module docstring.

    H = <q> is marked in a bitmap of m bits, c steps from 1; the bitmap
    lives for this call only, so at most n/8 bytes are held. The scan
    steps x = r*u^-1 mod m for r = 1, 2, ... until x lies in H. A scan
    that passes c steps with no hit falls back to the counted walk.
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
    cost of one visited byte per residue. `cosets.enumerate_naive` and the
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
    pair per orbit, by the proof of the module docstring: no leader is
    found. False says only that the check failed; a rep outside [0, n)
    gives False, and the caller finds out what is wrong."""
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
    odd = [p for p, _ in factorize(n) if p > 2]
    return not any(
        _keys_collide(n, m, claims[m], reps)
        if _is_cyclic(m, odd)
        else _shares_an_orbit(q, n, claims[m], reps)
        for m, reps in groups.items()
        if len(reps) > 1
    )


def _is_cyclic(m: int, odd_primes) -> bool:
    """Whether (Z/m)* is cyclic, that is m = 1, 2, 4, p**e or 2*p**e for
    an odd prime p; odd_primes holds every odd prime of m, and may hold
    others."""
    odd = sum(m % p == 0 for p in odd_primes)
    return odd == 0 and m % 8 != 0 or odd == 1 and m % 4 != 0


def _keys_collide(n: int, m: int, c: int, reps) -> bool:
    """Whether two of the reps g*u, g = n/m, whose orbits mod n all have
    exactly c elements, share the key u**c mod m: when (Z/m)* is cyclic,
    whether they lie in one orbit (see the module docstring)."""
    g = n // m
    return len({pow(x // g, c, m) for x in reps}) < len(reps)


_BSGS_ENTRIES = 4096  # most baby steps `_shares_an_orbit` holds at once


def _shares_an_orbit(q: int, n: int, c: int, reps) -> bool:
    """Whether two of the reps, whose orbits mod n all have exactly c
    elements, lie in one orbit, by Shanks' baby-step giant-step over the
    half = c//2 steps ahead of each rep (see the module docstring).

    The first b elements x*q**i of every rep's orbit go into one dict
    {element: index}, with b about sqrt(half) and at most _BSGS_ENTRIES
    entries in all. x' = x*q**t for some 0 <= t <= half exactly when some
    giant step x'*q**(-b*j), 0 <= j <= half//b, is a baby step of x;
    j = 0 is x' itself, met on insert. A step that meets another rep's
    index is a shared orbit; one that meets its own rep's is not, since
    q**(b*j) may wrap round the orbit. When walking each orbit for its
    least element costs no more, a walk step costing about half a dict
    step (c <= 2*(b + half//b)), the leaders go into a set instead
    (`_leaders_collide`).
    """
    half = c // 2
    b = max(1, min(math.isqrt(half), _BSGS_ENTRIES // len(reps)))
    giant = half // b
    if c <= 2 * (b + giant):
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

    None when `_is_partition` holds, and then no leader is found.
    Otherwise each comes from the leader and true length of a rep's orbit
    (`_leaders`): a claim that is not the exact order is walked open, so
    its true length is what gets reported, and a rep whose leader an
    earlier rep already reached lies in that rep's orbit. Distinct orbits
    are disjoint, so only when the lengths of the orbits reached fall
    short of n does one `_orbit_sweep` find the missed orbits. A
    mismatching partition holds O(number of pairs) plus one bitmap of at
    most n/8 bytes unless an orbit was missed.
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
