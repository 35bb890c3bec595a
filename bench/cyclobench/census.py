"""Number theory of its own for the benchmark's output checks.

The census of q-cyclotomic cosets modulo n counts them by size: an
element x has orbit size ord_d(q) with d = n / gcd(n, x), and phi(d)
elements share each d, so there are sum over d | n of phi(d) / ord_d(q)
cosets (Lidl & Niederreiter, Finite Fields, section 2.4).

None of this calls cycloset. A defect in the library's arithmetic cannot
vouch for itself, and checks made between timed calls do not warm the
library's caches for the calls that follow.
"""

from __future__ import annotations

import math


def factor(m: int) -> dict[int, int]:
    """Prime factorization by trial division; inputs here stay below 10**13."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_prime(m: int) -> bool:
    return m >= 2 and factor(m) == {m: 1}


def order_mod_prime_power(q: int, p: int, k: int) -> int:
    """Multiplicative order of q modulo p**k, for p not dividing q."""
    if k == 0:
        return 1
    m = p**k
    if p == 2:
        t = 1 if k == 1 else 2 if k == 2 else 1 << (k - 2)
    else:
        t = (p - 1) * p ** (k - 1)
    for r in set(factor(p - 1)) | {p}:
        while t % r == 0 and pow(q, t // r, m) == 1:
            t //= r
    return t


def order(q: int, factors: dict[int, int]) -> int:
    """Order of q modulo the integer with the given factorization."""
    out = 1
    for p, k in factors.items():
        out = math.lcm(out, order_mod_prime_power(q, p, k))
    return out


def size_census(q: int, factors: dict[int, int]) -> dict[int, int]:
    """Coset size -> number of cosets of that size, for n = prod p**e."""
    elements = {1: 1}  # orbit size -> number of residues with that size
    for p, e in factors.items():
        steps = [(1, 1)] + [
            (order_mod_prime_power(q, p, k), (p - 1) * p ** (k - 1)) for k in range(1, e + 1)
        ]
        grown: dict[int, int] = {}
        for o, c in elements.items():
            for o2, c2 in steps:
                key = math.lcm(o, o2)
                grown[key] = grown.get(key, 0) + c * c2
        elements = grown
    return {o: c // o for o, c in elements.items()}


def coset_count(q: int, factors: dict[int, int]) -> int:
    return sum(size_census(q, factors).values())


def orbit_size(q: int, n: int, factors: dict[int, int], x: int) -> int:
    """Orbit length of x mod n: the order of q modulo n / gcd(n, x)."""
    g = math.gcd(n, x % n)
    return order(q, {p: e - _val(p, g, e) for p, e in factors.items()})


def _val(p: int, m: int, cap: int) -> int:
    v = 0
    while v < cap and m % p == 0:
        m //= p
        v += 1
    return v


def smooth_numbers(primes: tuple[int, ...], limit: int) -> dict[int, dict[int, int]]:
    """Every integer in [1, limit] with all prime factors in `primes`, factored."""
    out = {1: {}}
    for p in primes:
        for m, fac in list(out.items()):
            k, v = 1, m * p
            while v <= limit:
                out[v] = {**fac, p: k}
                k += 1
                v *= p
    return out
