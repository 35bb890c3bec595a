"""Exact integer utilities: valuations, multiplicative orders, exponent
lifting, and ell-adic digit streams of -gamma/n.

Everything here is a pure function of its arguments. Moduli are capped at
2**63 so that results stay in the machine-word range of typical consumers;
Python integers keep every intermediate exact regardless.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

CAPACITY = 1 << 63
TRIAL_LIMIT = 10**4
# entries kept by each of the two caches: mul_order's, which nearly every
# call hits, and orbits._exact_order's, the oracle's order certificates;
# factorize is not cached, as such a cache saved no time on the benchmark
# workloads and only raised peak memory
CACHE_SIZE = 4096

# Witnesses making Miller-Rabin deterministic for everything below 3.3e24,
# which comfortably covers the 2**63 working range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class CapacityError(ValueError):
    """Raised when an input exceeds the 2**63 working range."""


def check_capacity(value: int, what: str = "modulus") -> None:
    # the value stays out of the message: a huge one cannot even be printed
    if value >= CAPACITY:
        raise CapacityError(f"{what} exceeds the 2**63 working range")


def check_power(base: int, exp: int, cofactor: int, what: str) -> None:
    """`check_capacity` of base**exp * cofactor, for base, cofactor >= 1.

    The product is at least 2**(exp * (bits(base) - 1) + bits(cofactor) - 1),
    so an exponent that is surely too large fails before base**exp is formed.
    """
    too_big = exp * (base.bit_length() - 1) + cofactor.bit_length() > 63
    check_capacity(CAPACITY if too_big else base**exp * cofactor, what)


def val(ell: int, x: int) -> int:
    """The ell-adic valuation of x: the largest k with ell**k dividing x."""
    if ell < 2:
        raise ValueError("ell must be a prime (at least 2)")
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    x = abs(x)
    k = 0
    while x % ell == 0:
        x //= ell
        k += 1
    return k


def mulmod(a: int, b: int, modulus: int) -> int:
    """a*b mod modulus, exact for any operands below the capacity bound."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    check_capacity(modulus)
    return a * b % modulus


def powmod(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus by square-and-multiply."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if exp < 0:
        raise ValueError("exponent must be nonnegative")
    check_capacity(modulus)
    return pow(base, exp, modulus)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 2**64)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle-finding variant. n is odd, composite, and free of
    # factors below the trial-division bound. Seeded by n: deterministic.
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((p1, e1), ...) with p1 < p2 < ...

    Trial division up to TRIAL_LIMIT, then Pollard rho for whatever survives.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_capacity(n, "integer")
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f <= TRIAL_LIMIT:
        while n % f == 0:
            counts[f] = counts.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) & 7
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(counts.items()))


def as_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with p prime and q = p**e, or raise ValueError."""
    if q < 2:
        raise ValueError("q must be at least 2")
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0]


def carmichael(n: int) -> int:
    """Carmichael's lambda: the exponent of the unit group mod n."""
    lam = 1
    for p, e in factorize(n):
        if p == 2:
            block = 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
        else:
            block = (p - 1) * p ** (e - 1)
        lam = lam * block // math.gcd(lam, block)
    return lam


@lru_cache(maxsize=CACHE_SIZE)
def mul_order(m: int, n: int) -> int:
    """Multiplicative order of m modulo n.

    Starts from Carmichael's lambda and strips prime factors while the
    power still fixes 1, so no linear scan over exponents ever happens.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    check_capacity(n)
    if n == 1:
        return 1
    m %= n
    if math.gcd(m, n) != 1:
        raise ValueError(f"{m} is not invertible modulo {n}")
    t = carmichael(n)
    for r, _ in factorize(t):
        while t % r == 0 and pow(m, t // r, n) == 1:
            t //= r
    return t


def lte_odd(ell: int, m: int, d: int) -> int:
    """v_ell(m**d - 1) for odd prime ell dividing m - 1, without forming m**d.

    Equals v_ell(m - 1) + v_ell(d).
    """
    if ell < 3 or ell % 2 == 0:
        raise ValueError("ell must be an odd prime")
    if d < 1:
        raise ValueError("d must be positive")
    if m == 1:
        raise ValueError("m = 1 gives m**d - 1 = 0, valuation undefined")
    if (m - 1) % ell != 0:
        raise ValueError(f"{ell} does not divide m - 1 = {m - 1}")
    return val(ell, m - 1) + val(ell, d)


def lte_two(m: int, d: int) -> tuple[int, int]:
    """(v_2(m**d - 1), v_2(m**d + 1)) for odd m, by the three-case rule.

    m = 1 mod 4:          (v_2(m-1) + v_2(d), 1)
    m = 3 mod 4, d odd:   (1, v_2(m+1))
    m = 3 mod 4, d even:  (v_2(m+1) + v_2(d), 1)
    """
    if m % 2 == 0:
        raise ValueError("m must be odd")
    if d < 1:
        raise ValueError("d must be positive")
    if m == 1 or m == -1:
        raise ValueError("|m| = 1 makes one of m**d -/+ 1 vanish")
    if m % 4 == 1:
        return val(2, m - 1) + val(2, d), 1
    if d % 2 == 1:
        return 1, val(2, m + 1)
    return val(2, m + 1) + val(2, d), 1


def val_pow_minus_one(ell: int, q: int, d: int) -> int:
    """v_ell(q**d - 1) via order reduction and exponent lifting.

    Returns 0 when ell does not divide q**d - 1. Never forms q**d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if ell == 2:
        return lte_two(q, d)[0]
    if q % ell == 0:
        return 0
    o = mul_order(q, ell)
    if d % o != 0:
        return 0
    if abs(q) == 1:
        raise ValueError(f"q**d - 1 = 0 for q = {q}, d = {d}: valuation undefined")
    # base valuation v_ell(q**o - 1), probed against growing powers of ell
    k = 1
    while pow(q, o, ell ** (k + 1)) == 1:
        k += 1
    return k + val(ell, d // o)


@dataclass(frozen=True)
class PrimePowerQ:
    """A validated prime power q = p**e."""

    p: int
    e: int

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError("exponent must be positive")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        check_power(self.p, self.e, 1, "q")

    @property
    def q(self) -> int:
        return self.p**self.e

    @classmethod
    def from_value(cls, q: int) -> "PrimePowerQ":
        p, e = as_prime_power(q)
        return cls(p, e)


@dataclass(frozen=True)
class LadicPrefix:
    """The first N+1 digits of -gamma/n viewed as an ell-adic integer.

    The digits d_0..d_N are the unique ones in [0, ell) with
    ell**(N+1) dividing gamma + n * sum(d_k * ell**k).
    """

    ell: int
    n: int
    gamma: int
    digits: tuple[int, ...]

    @property
    def value(self) -> int:
        return digits_value(self.ell, self.digits)


def digits_value(ell: int, digits) -> int:
    """The integer sum(d_k * ell**k) spelled by little-endian base-ell digits."""
    total = 0
    for d in reversed(digits):
        total = total * ell + d
    return total


def phi_digits(ell: int, n: int, gamma: int, count: int) -> list[int]:
    """First `count` digits of -gamma/n in the ell-adic integers.

    Digit k is solved from the divisibility condition
    ell**(k+1) | gamma + n*(partial sum), one position at a time, which
    makes longer expansions extend shorter ones without rewriting them.
    """
    if count < 0:
        raise ValueError("digit count must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if n % ell == 0:
        raise ValueError("n must be coprime to ell")
    ninv = pow(n, -1, ell)
    a = gamma
    out = []
    for _ in range(count):
        d = (-a * ninv) % ell
        out.append(d)
        a = (a + n * d) // ell
    return out


def phi_prefix(ell: int, n: int, gamma: int, N: int) -> LadicPrefix:
    """Digits d_0..d_N of -gamma/n in Z_ell, as a LadicPrefix."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return LadicPrefix(ell, n, gamma, tuple(phi_digits(ell, n, gamma, N + 1)))
