"""The four workloads: seeded input streams, screened by the census.

Each workload yields rounds of cases from `random.Random(f"{name}:{seed}")`,
so one seed always gives the same stream. A round is stratified: slot i
of every round is drawn from the same band (of coset count, of the large
prime, or of the modulus), so the mix of costs in a run does not depend
on the seed and per-run medians stay steady; the seed moves the inputs
within each band. Every case carries its factorization, known by
construction, which the census checks use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .census import coset_count, factor, is_prime, order_mod_prime_power, smooth_numbers

Q_CHOICES = tuple(q for q in range(2, 65) if len(factor(q)) == 1)

# smooth-wide: the ROADMAP anchor plus one modulus per coset-count band.
# The bands stay below the anchor's 79,485 cosets, so the anchor sets the
# run's peak memory whatever the seed.
ANCHOR = (7, {2: 12, 3: 10, 5: 6})
SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)
SMOOTH_TARGETS = tuple(range(40_000, 75_000, 5_000))
SMOOTH_WINDOW = 0.04

# large-prime: n = ell * s with ell in one of eight strata of [1e6, 2e6],
# the cheap end of [1e6, 5e6], so a run holds enough calls for a steady
# median. q = -1 mod s makes every base coset size 1 or 2, and q a
# primitive root mod ell makes each base coset's transversal a single
# class, so the census is fixed by s (4 cosets for s = 2, 5 for s = 3)
# and the run time is the O(ell) scans alone.
LP_LOW, LP_HIGH, LP_STRATA = 10**6, 2 * 10**6, 8
LP_COFACTORS = (2, 3)
LP_MAX_COSETS = 1000

# many-small: (q, n) pairs with n <= 1e5 and every prime factor <= 31.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SMALL_LIMIT = 10**5
SMALL_ROUND = 250

# oracle-verify: one 13-smooth modulus near each target, with a census in
# a fixed band, so the sweep and the structured path each do about the
# same work in every run. The targets sit at the low end of [2e6, 1e7]
# so that a run holds enough calls for a steady median.
ORACLE_TARGETS = tuple(range(2_000_000, 3_400_001, 200_000))
ORACLE_WINDOW = 0.02
ORACLE_COSETS = (2_000, 3_000)


@dataclass(frozen=True)
class Case:
    q: int
    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def factor_map(self) -> dict[int, int]:
        return dict(self.factors)


def make_case(q: int, factors: dict[int, int]) -> Case:
    n = math.prod(p**e for p, e in factors.items())
    if math.gcd(q, n) != 1:
        raise ValueError(f"q={q} is not coprime to n={n}")
    return Case(q, n, tuple(sorted(factors.items())))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    call: str  # "enumerate" or "verify"
    round_of: Callable[[random.Random], list[Case]]
    cli_case: Case  # fixed, so its CLI output digests can be recorded once
    cli_share: float  # of a run's measured time spent in CLI children
    trace_calls: int  # cases of the first round replayed in a traced run


def rounds(workload: Workload, seed: int) -> Iterator[list[Case]]:
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.round_of(rng)


def spread_order(k: int) -> list[int]:
    """0..k-1 ordered so that every prefix spreads evenly over the range.

    Slot i of a stratified round is band i; visiting bands in this order
    (0, k/2, k/4, 3k/4, ... as a base-2 van der Corput sequence) means a
    run cut off part way through a round still samples every part of it.
    """
    order: list[int] = []
    j = 0
    while len(order) < k:
        x, denom, v = j, 1.0, 0.0
        while x:
            denom *= 2
            v += (x & 1) / denom
            x >>= 1
        slot = int(v * k)
        if slot not in order:
            order.append(slot)
        j += 1
    return order


def _coprime_qs(n: int) -> list[int]:
    return [q for q in Q_CHOICES if math.gcd(q, n) == 1]


def _smooth_case(rng: random.Random, target: int) -> Case:
    # Grow n one random prime at a time until the census reaches the band;
    # start over when it jumps past it.
    lo, hi = target * (1 - SMOOTH_WINDOW), target * (1 + SMOOTH_WINDOW)
    while True:
        q = rng.choice(Q_CHOICES)
        primes = [p for p in SMOOTH_PRIMES if q % p]
        factors: dict[int, int] = {}
        n, count = 1, 1
        while count < lo and n < 2**50:
            p = rng.choice(primes)
            factors[p] = factors.get(p, 0) + 1
            n *= p
            count = coset_count(q, factors)
        if lo <= count <= hi:
            return make_case(q, factors)


def _smooth_wide_round(rng: random.Random) -> list[Case]:
    return [make_case(*ANCHOR)] + [_smooth_case(rng, SMOOTH_TARGETS[i]) for i in spread_order(len(SMOOTH_TARGETS))]


def _next_prime(m: int) -> int:
    while not is_prime(m):
        m += 1
    return m


def _is_primitive_root(q: int, ell: int) -> bool:
    return order_mod_prime_power(q, ell, 1) == ell - 1


def _large_prime_case(rng: random.Random, slot: int) -> Case:
    width = (LP_HIGH - LP_LOW) // LP_STRATA
    s = LP_COFACTORS[slot % len(LP_COFACTORS)]
    qs = [q for q in Q_CHOICES if q % s == s - 1]
    while True:
        ell = _next_prime(LP_LOW + slot * width + rng.randrange(width))
        for q in rng.sample(qs, len(qs)):
            if q % ell and _is_primitive_root(q, ell):
                factors = {**factor(s), ell: 1}
                if coset_count(q, factors) <= LP_MAX_COSETS:
                    return make_case(q, factors)


def _large_prime_round(rng: random.Random) -> list[Case]:
    return [_large_prime_case(rng, slot) for slot in spread_order(LP_STRATA)]


@lru_cache(maxsize=None)
def _smooth_pool(primes: tuple[int, ...], limit: int) -> tuple[tuple[int, dict[int, int]], ...]:
    return tuple(sorted(smooth_numbers(primes, limit).items()))


def _many_small_round(rng: random.Random) -> list[Case]:
    pool = [(n, fac) for n, fac in _smooth_pool(SMALL_PRIMES, SMALL_LIMIT) if n > 1]
    out = []
    for _ in range(SMALL_ROUND):
        n, fac = rng.choice(pool)
        out.append(make_case(rng.choice(_coprime_qs(n)), fac))
    return out


def _oracle_case(rng: random.Random, target: int) -> Case:
    lo, hi = target * (1 - ORACLE_WINDOW), target * (1 + ORACLE_WINDOW)
    pool = [(n, fac) for n, fac in _smooth_pool(SMOOTH_PRIMES, int(hi)) if lo <= n <= hi]
    while True:
        n, fac = rng.choice(pool)
        q = rng.choice(_coprime_qs(n))
        if ORACLE_COSETS[0] <= coset_count(q, fac) <= ORACLE_COSETS[1]:
            return make_case(q, fac)


def _oracle_round(rng: random.Random) -> list[Case]:
    return [_oracle_case(rng, ORACLE_TARGETS[i]) for i in spread_order(len(ORACLE_TARGETS))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "smooth-wide",
            "4e4-8e4 cosets of 13-smooth moduli plus the q=7, n=2^12*3^10*5^6 anchor: "
            "per-coset lift, sort and coset objects, and CLI encoding, dominate",
            "enumerate",
            _smooth_wide_round,
            make_case(*ANCHOR),
            0.65,  # an anchor CLI run costs about three library calls
            1 + len(SMOOTH_TARGETS),
        ),
        Workload(
            "large-prime",
            "n = ell*s with a prime ell in [1e6, 2e6] and at most 1000 cosets: "
            "tiny output, so the O(ell) transversal scans set the time",
            "enumerate",
            _large_prime_round,
            make_case(2, {3: 1, 1_000_003: 1}),
            0.4,
            4,
        ),
        Workload(
            "many-small",
            "thousands of (q, n) with n <= 1e5 and primes <= 31: per-call fixed cost "
            "(argument checks, factorize, mul_order, per-step partitions) dominates",
            "enumerate",
            _many_small_round,
            make_case(5, {2: 4, 3: 5}),
            0.3,
            250,
        ),
        Workload(
            "oracle-verify",
            "verify on 13-smooth n in [2e6, 3.4e6], within [2e6, 1e7]: the only workload "
            "where the O(n) orbit sweep of the cosets oracle does the work",
            "verify",
            _oracle_round,
            make_case(5, {2: 5, 3: 5, 7: 3}),
            0.3,
            len(ORACLE_TARGETS),
        ),
    )
}
