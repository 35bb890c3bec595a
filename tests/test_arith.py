import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloset import (
    CAPACITY,
    CapacityError,
    PrimePowerQ,
    as_prime_power,
    carmichael,
    factorize,
    is_prime,
    lte_odd,
    lte_two,
    mul_order,
    mulmod,
    phi_digits,
    phi_prefix,
    powmod,
    val,
    val_pow_minus_one,
)
from cycloset.arith import check_power


def test_val_golden():
    assert val(3, 3888) == 5
    assert val(2, 3888) == 4
    assert val(5, 7) == 0
    assert val(2, -12) == 2


def test_val_errors():
    with pytest.raises(ValueError):
        val(3, 0)
    with pytest.raises(ValueError):
        val(1, 6)


def test_mulmod_double_width():
    assert mulmod(2**62, 2, 2**63 - 1) == 1
    assert mulmod(-3, 5, 7) == (-15) % 7


def test_powmod_golden():
    assert powmod(5, 4, 16) == 1
    assert powmod(9, 0, 7) == 1
    assert powmod(9, 0, 1) == 0


def test_modular_errors():
    with pytest.raises(ValueError):
        mulmod(1, 1, 0)
    with pytest.raises(ValueError):
        powmod(2, 3, 0)
    with pytest.raises(ValueError):
        powmod(2, -1, 5)
    with pytest.raises(CapacityError):
        mulmod(1, 1, CAPACITY)
    with pytest.raises(CapacityError):
        powmod(2, 3, CAPACITY)


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert is_prime(2**61 - 1)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(2**61 + 1)


def test_factorize_golden():
    assert factorize(3888) == ((2, 4), (3, 5))
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def test_factorize_beyond_trial_division():
    # both primes above the trial-division bound, so rho has to split it
    n = 1000003 * 1000033
    assert factorize(n) == ((1000003, 1), (1000033, 1))


def _best_ms(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def test_factorize_hands_large_cofactors_to_rho_early():
    # no factor below the trial bound: rho takes over at 10**4, so neither
    # call pays a wheel to 10**6 (about 60 ms each with that bound)
    assert as_prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert _best_ms(lambda: as_prime_power(2**61 - 1)) < 15
    assert _best_ms(lambda: factorize(1000003 * 1000033)) < 15


def _primes_below(bound):
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return [p for p in range(bound) if sieve[p]]


def _factor_by_trial(n, primes):
    # trial division to sqrt(n); every prime factor of n is in `primes`
    counts = {}
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    if n > 1:
        counts[n] = counts.get(n, 0) + 1
    return tuple(sorted(counts.items()))


def test_factorize_matches_trial_division_around_the_trial_bound():
    primes = _primes_below(10**6)
    small = [p for p in primes if p < 10**4]
    large = [p for p in primes if p > 10**4]
    rng = random.Random(23)
    cases = [10007**2, 9973 * 10007, 10007**3, 999983**3, 10007 * 999983**2]
    while len(cases) < 150:
        n = 1
        for _ in range(rng.randrange(1, 4)):
            n *= rng.choice(large) ** rng.randrange(1, 4)  # squares and cubes too
        for _ in range(rng.randrange(0, 4)):
            n *= rng.choice(small)
        if n < CAPACITY:
            cases.append(n)
    for n in cases:
        assert factorize(n) == _factor_by_trial(n, primes), n


def test_factorize_errors():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(CapacityError):
        factorize(CAPACITY)


def test_as_prime_power():
    assert as_prime_power(16) == (2, 4)
    assert as_prime_power(7) == (7, 1)
    assert as_prime_power(27) == (3, 3)
    with pytest.raises(ValueError):
        as_prime_power(12)
    with pytest.raises(ValueError):
        as_prime_power(1)


def test_prime_power_q():
    assert PrimePowerQ.from_value(25) == PrimePowerQ(5, 2)
    assert PrimePowerQ(2, 4).q == 16
    with pytest.raises(ValueError):
        PrimePowerQ(4, 2)
    with pytest.raises(ValueError):
        PrimePowerQ(5, 0)


def test_prime_power_q_capacity_edges():
    # the bit-length pre-check must not move the exact 2**63 boundary
    assert PrimePowerQ(2, 62).q == 2**62
    assert PrimePowerQ(3, 39).q == 3**39
    for p, e in ((2, 63), (3, 40), (3, 10**7), (2**61 - 1, 2)):
        with pytest.raises(CapacityError, match="q exceeds the 2\\*\\*63 working range"):
            PrimePowerQ(p, e)


def test_check_power_keeps_the_exact_bound():
    # the bit-length pre-check may skip forming base**exp only when the
    # product surely reaches 2**63
    for base in (2, 3, 7, 127, 2**31 - 1):
        for exp in range(70):
            for cofactor in (1, 2, 3, 1000, 2**40 + 1):
                if base**exp * cofactor < 2**63:
                    check_power(base, exp, cofactor, "x")
                else:
                    with pytest.raises(CapacityError, match="^x exceeds the 2\\*\\*63 working range$"):
                        check_power(base, exp, cofactor, "x")


def test_carmichael():
    assert carmichael(1) == 1
    assert carmichael(2) == 1
    assert carmichael(8) == 2
    assert carmichael(16) == 4
    assert carmichael(243) == 162
    assert carmichael(3888) == 324


def test_mul_order_golden():
    assert mul_order(5, 16) == 4
    assert mul_order(7, 1) == 1
    assert mul_order(2, 7) == 3
    assert mul_order(5, 3888) == 324


def test_mul_order_bad_modulus():
    with pytest.raises(ValueError):
        mul_order(2, 0)


def test_mul_order_not_invertible():
    with pytest.raises(ValueError):
        mul_order(4, 6)
    with pytest.raises(ValueError):
        mul_order(0, 5)


def test_mul_order_matches_scan():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 2000)
        m = rng.randrange(1, n)
        if math.gcd(m, n) != 1:
            continue
        t = 1
        x = m % n
        while x != 1:
            x = x * m % n
            t += 1
        assert mul_order(m, n) == t


@given(st.integers(2, 5000), st.integers(2, 5000))
def test_mul_order_divides_carmichael(m, n):
    if math.gcd(m, n) != 1:
        return
    t = mul_order(m, n)
    assert carmichael(n) % t == 0
    assert pow(m, t, n) == 1
    for r, _ in factorize(t):
        assert pow(m, t // r, n) != 1


def test_lte_odd_golden():
    assert lte_odd(3, 4, 1) == 1
    assert lte_odd(3, 25, 3) == 2
    assert lte_odd(3, 25, 1) == 1


def test_lte_odd_errors():
    with pytest.raises(ValueError):
        lte_odd(3, 5, 2)  # 3 does not divide 4
    with pytest.raises(ValueError):
        lte_odd(2, 5, 2)
    with pytest.raises(ValueError):
        lte_odd(3, 4, 0)
    with pytest.raises(ValueError):
        lte_odd(3, 1, 2)


def test_lte_two_golden():
    assert lte_two(5, 4) == (4, 1)
    assert lte_two(3, 1) == (1, 2)
    assert lte_two(7, 2) == (4, 1)


def test_lte_two_errors():
    with pytest.raises(ValueError):
        lte_two(4, 3)
    with pytest.raises(ValueError):
        lte_two(1, 3)
    with pytest.raises(ValueError):
        lte_two(5, 0)


def test_lte_odd_matches_direct_valuation():
    for ell in (3, 5, 7, 11):
        for m in range(2, 400):
            if (m - 1) % ell != 0:
                continue
            power = 1
            for d in range(1, 9):
                power *= m
                assert lte_odd(ell, m, d) == val(ell, power - 1)


def test_lte_two_matches_direct_valuation():
    for m in range(3, 400, 2):
        power = 1
        for d in range(1, 9):
            power *= m
            assert lte_two(m, d) == (val(2, power - 1), val(2, power + 1))


def test_val_pow_minus_one_matches_direct():
    rng = random.Random(11)
    for _ in range(400):
        ell = rng.choice([2, 3, 5, 7, 13])
        q = rng.randrange(2, 500)
        if q % ell == 0:
            continue
        d = rng.randrange(1, 40)
        assert val_pow_minus_one(ell, q, d) == _direct_val(ell, q**d - 1)


def test_val_pow_minus_one_edges():
    assert val_pow_minus_one(3, 6, 2) == 0  # ell divides q, so never q**d - 1
    with pytest.raises(ValueError):
        val_pow_minus_one(3, 2, 0)


def test_val_pow_minus_one_vanishing_power():
    # q**d = 1 has no valuation; this used to loop forever
    for ell, q, d in ((3, 1, 1), (7, 1, 5), (3, -1, 2), (5, -1, 4)):
        with pytest.raises(ValueError):
            val_pow_minus_one(ell, q, d)
    assert val_pow_minus_one(3, -1, 3) == _direct_val(3, -2)


def _direct_val(ell, x):
    if x == 0:
        raise AssertionError("q**d - 1 vanished")
    k = 0
    while x % ell == 0:
        x //= ell
        k += 1
    return k


def test_phi_prefix_golden():
    assert phi_prefix(3, 16, 1, 4).digits == (2, 1, 0, 0, 2)
    assert phi_prefix(3, 16, 0, 4).digits == (0, 0, 0, 0, 0)
    assert phi_prefix(3, 16, 8, 4).digits == (1, 1, 1, 1, 1)
    assert phi_prefix(3, 16, 2, 4).digits == (1, 0, 1, 0, 1)
    assert phi_prefix(3, 16, 3, 4).digits == (0, 2, 1, 0, 0)
    assert phi_prefix(3, 16, 4, 4).digits == (2, 0, 2, 0, 2)
    assert phi_prefix(3, 16, 6, 4).digits == (0, 1, 0, 1, 0)
    assert phi_prefix(3, 16, 12, 4).digits == (0, 2, 0, 2, 0)


def test_phi_prefix_value():
    p = phi_prefix(3, 16, 1, 4)
    assert p.value == 2 + 1 * 3 + 2 * 81


def test_phi_prefix_errors():
    with pytest.raises(ValueError):
        phi_prefix(3, 9, 1, 2)  # ell divides n
    with pytest.raises(ValueError):
        phi_prefix(4, 5, 1, 2)  # ell not prime
    with pytest.raises(ValueError):
        phi_prefix(3, 5, 1, -1)
    with pytest.raises(ValueError):
        phi_digits(3, 5, 1, -1)
    with pytest.raises(ValueError):
        phi_digits(3, 0, 1, 2)  # n not positive


@settings(max_examples=300)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(1, 10**6),
    st.integers(-(10**9), 10**9),
    st.integers(0, 40),
)
def test_phi_prefix_divisibility_and_stability(ell, n, gamma, N):
    if n % ell == 0:
        return
    prefix = phi_prefix(ell, n, gamma, N)
    assert all(0 <= d < ell for d in prefix.digits)
    assert (gamma + n * prefix.value) % ell ** (N + 1) == 0
    longer = phi_prefix(ell, n, gamma, N + 3)
    assert longer.digits[: N + 1] == prefix.digits


def test_arith_caches_are_bounded():
    from cycloset.arith import CACHE_SIZE

    for n in range(3, 3 + 2 * CACHE_SIZE + 200, 2):  # distinct odd moduli
        mul_order(2, n)
    info = mul_order.cache_info()
    assert info.maxsize == CACHE_SIZE
    assert info.currsize == CACHE_SIZE  # full, and no larger
