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
- The leader of g*u is g*r for the least r >= 1 in u*H. The labels
  below agree exactly on one orbit, so `_scan_group` labels the reps of
  one m and then r = 1, 2, ... in one pass, and the first r to reach a
  rep's label is its leader. `_leaders` does so for the long orbits of
  each m and walks the rest.
- (rep, size) pairs are exactly the orbits mod n, one pair per orbit,
  when every claim is an int certified once per m, so that every rep of
  that m has an orbit of the claimed length c; the claims add up to n;
  and no two reps of one m share an orbit. The orbits reached are then
  distinct, of the claimed lengths, and cover Z/nZ. Two reps g*u, g*u'
  share an orbit exactly when u' = u*q**t for some 0 < t < c, and then
  u = u'*q**(c-t) with min(t, c-t) <= c//2.
- Labels decide that in every (Z/m)* (`_labels`). Let K be the c-torsion
  {v : v**c = 1} of (Z/m)*, which holds H. The key u**c mod m fixes the
  coset u*K. For each prime r, r**a || c, write e = c/r**a and let K_r
  be the r-part of K; from the cyclic factors of (Z/m)*, C_(p**(f-1)*(p-1))
  for each odd p**f || m and C_2 x C_(2**(f-2)) for 2**f || m, f >= 3,
  |K_r| is the product of gcd(r**a, o) over their orders o. For w in K,
  w**e lies in K_r, v -> v**e permutes K_r and kills every other part
  of K, and h = q**e generates H_r, the r-part of H of order r**a; so w
  lies in H exactly when w**e lies in <h> for each r. Where
  |K_r| = r**a (r is not free) that always holds. So two units with one
  key, and u0 the first rep with that key, share an orbit exactly when,
  for each free r, (u/u0)**e lies in one coset of <h>: the label is the
  key and the ids of those cosets (a cyclic (Z/m)* has no free prime).
- A coset y*<h> is known by one member of it, the one `_least_in_coset`
  picks: for j = a-1 down to 0 it multiplies y by the h**(d*r**(a-1-j)),
  d < r, that makes y**(r**j) mod m least. Two members y*h**t of one
  coset that agree in the a-1-j lowest base-r digits of t have r**j-th
  powers in one coset of <h**(r**(a-1))>, of order r, so step j fixes one
  more digit, and every member of y*<h> reaches the same one, in about 2a
  `pow`s and a*r products. Those members are numbered as they are met,
  and each y met keeps its id, so a y met again costs one lookup; for k
  reps that holds at most min(k, |K_r|) entries per free prime.
- A key's ids are the bits of one int mask. Ids lie below |K|/c and
  there are at most phi(m)/|K| keys, so all masks together hold at most
  phi(m)/c bits, one per orbit of that m.
  `_is_partition` decides all this without finding any leader;
  `_orbit_mismatches` asks it first, finds leaders only to report what
  is wrong, and sweeps Z/nZ (`_orbit_sweep`) only when the orbits
  reached do not cover it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, count, repeat

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
    c*c > m is scanned (`_scan_group`), one pass over the units mod m up
    to the group's largest leader against the walk's c steps per rep.
    Every other pair is walked by `_orbit_leader`.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (rep, claimed) in enumerate(pairs):
        if not 0 <= rep < n:
            raise ValueError(f"{rep} lies outside [0, {n})")
        m = n // math.gcd(rep, n)
        if type(claimed) is int and claimed * claimed > m and _exact_order(q, m, claimed):
            groups.setdefault((m, claimed), []).append(i)
    out: list = [None] * len(pairs)
    factors = factorize(n)
    for (m, c), group in groups.items():
        if len(group) > 1:
            reps = [pairs[i][0] for i in group]
            for i, found in zip(group, _scan_group(q, n, m, c, reps, factors)):
                out[i] = found
    return [
        found or _orbit_leader(q, n, rep, claimed)
        for found, (rep, claimed) in zip(out, pairs)
    ]


def _scan_group(q: int, n: int, m: int, c: int, reps, factors) -> list[tuple[int, int]]:
    """(leader, c) of each rep g*u, g = n/m, whose orbit mod n has exactly
    c elements: the first x = g*u', u' = 1, 2, ..., whose label
    (`_labels`) is the rep's. Labels agree exactly on one orbit, so the
    first x of the ascending scan to reach a label is its least element.
    The reps and the scan are labelled in one call, so that they share
    each key's u0 and each free prime's coset ids; only the u' whose key
    u'**c mod m is a rep's key are labelled (a non-unit has no unit key),
    and the scan stops once every rep's label is reached. factors is the
    factorization of n."""
    g = n // m
    keys = {pow(x // g, c, m) for x in reps}
    scan = (g * u for u in count(1) if pow(u, c, m) in keys)
    labels = _labels(n, m, c, chain(reps, scan), _free_primes(q, m, c, factors))
    own = [(key, i) for _, (_, key, i) in zip(range(len(reps)), labels)]
    left = set(own)
    leader = {}
    for x, key, i in labels:
        if (key, i) in left:
            left.remove((key, i))
            leader[key, i] = x
            if not left:
                break
    return [(leader[label], c) for label in own]


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
    found, and the reps of each m with two or more are told apart by
    their labels (`_collide`). False says only that the check failed; a
    rep outside [0, n) gives False, and the caller finds out what is
    wrong."""
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
    factors = factorize(n)
    return not any(
        _collide(q, n, m, claims[m], reps, factors) for m, reps in groups.items() if len(reps) > 1
    )


def _collide(q: int, n: int, m: int, c: int, reps, factors) -> bool:
    """Whether two of the reps g*u, g = n/m, whose orbits mod n all have
    exactly c elements, share an orbit: whether two of their labels
    (`_labels`) agree. A key's ids are bits of one int, so the labels of a
    matching partition take one dict entry per key, not per rep."""
    seen: dict[int, int] = {}  # key -> bit mask of the ids met under it
    for _, key, i in _labels(n, m, c, reps, _free_primes(q, m, c, factors)):
        mask = seen.get(key, 0)
        if mask >> i & 1:
            return True
        seen[key] = mask | 1 << i
    return False


def _free_primes(q: int, m: int, c: int, factors) -> list[tuple[int, int, int, int, int]]:
    """(c/r**a, r, a, s, q**(c/r**a) mod m) for each free prime r of c,
    r**a || c: the r-part K_r of the c-torsion of (Z/m)* has s*r**a > r**a
    elements (see the module docstring). factors is the factorization of
    a multiple of m."""
    orders = []  # of the cyclic factors of (Z/m)*; 1 for a prime not in m
    for p, e in factors:
        pe = math.gcd(m, p**e)
        orders += [pe - pe // p] if p > 2 else [2, pe // 4] if pe > 2 else []
    free = []
    for r, a in factorize(c):
        ra = r**a
        s = math.prod(math.gcd(ra, o) for o in orders) // ra
        if s > 1:
            free.append((c // ra, r, a, s, pow(q, c // ra, m)))
    return free


def _labels(n: int, m: int, c: int, reps, free):
    """(x, key, id) for each x = g*u of reps, g = n/m, in order: the key
    u**c mod m and, packed in one int below the product of the s of
    `_free_primes`, the id of the coset of (u/u0)**(c/r**a) under
    <q**(c/r**a)> for each free prime r, u0 the first x with the same key.
    Two reps share an orbit exactly when their labels agree (see the
    module docstring). Each free prime numbers the members
    `_least_in_coset` picks as they are met, and keeps the id of each
    (u/u0)**(c/r**a) it met."""
    g = n // m
    inverses: dict[int, int] = {}
    plans = [(e, r, a, s, h, {}, {}) for e, r, a, s, h in free]  # + ids by y met and by member
    for x in reps:
        u = x // g
        key = pow(u, c, m)
        i = 0
        if plans:
            w = u * (inverses.get(key) or inverses.setdefault(key, pow(u, -1, m))) % m
            for e, r, a, s, h, met, ids in plans:
                y = pow(w, e, m)
                j = met.get(y)
                if j is None:
                    j = met[y] = ids.setdefault(_least_in_coset(y, m, r, a, h), len(ids))
                i = i * s + j
        yield x, key, i


def _least_in_coset(y: int, m: int, r: int, a: int, h: int) -> int:
    """The member of the coset y*<h> mod m, h of order r**a, that every
    member of it reaches: for j = a-1 down to 0, y times the
    h**(d*r**(a-1-j)), d < r, that makes y**(r**j) mod m least (see the
    module docstring). For a = 1 it is the least member; for a > 1 it
    need not be."""
    g = pow(h, r ** (a - 1), m)
    for j in range(a - 1, -1, -1):
        z = least = pow(y, r**j, m)
        d = 0
        for t in range(1, r):
            z = z * g % m
            if z < least:
                least, d = z, t
        if d:
            y = y * pow(h, d * r ** (a - 1 - j), m) % m
    return y


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
    mismatching partition holds O(number of pairs) plus the labels of one
    leader scan unless an orbit was missed.
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
