import hashlib
import math
import random
import time
import tracemalloc
from itertools import product

import pytest

from cycloset import (
    CapacityError,
    CosetPartition,
    Regime,
    SplitKind,
    classify,
    component_size,
    coset_of,
    degrees,
    digit_complement_S,
    enumerate_branch,
    enumerate_cosets,
    enumerate_naive,
    generating_series,
    lift_partition,
    lift_representative,
    preimage_decompose,
    size_of,
    splitting_tree,
    transversal_R,
    val,
    val_pow_minus_one,
)
from cycloset.arith import digits_value, factorize, phi_digits
from cycloset.system import (
    PRINCIPAL,
    STABLE,
    _base_params,
    _branch_plan,
    _check_tower,
    _depth_slice,
    _stable_size,
)

# Depth-5 slices over every coset mod 16 for q = 5, ell = 3, in descriptor
# order (principal first, then departure position / substitution index).
# Frozen from the orbit oracle at modulus 3888.
DEPTH5_BRANCHES = {
    0: ([0, 16, 48, 144, 432, 1296], [1, 162, 54, 18, 6, 2]),
    1: ([2673, 1, 17, 33, 129, 225, 369, 513, 945, 81, 1377],
        [4, 324, 324, 108, 108, 36, 36, 12, 12, 4, 4]),
    2: ([1458, 2, 34, 66, 114, 18, 306, 594, 1026, 162, 2754],
        [2, 162, 162, 54, 54, 18, 18, 6, 6, 2, 2]),
    3: ([243, 19, 35, 3, 51, 99, 387, 675, 1107, 1539, 2835],
        [4, 324, 324, 108, 108, 36, 36, 12, 12, 4, 4]),
    4: ([2916, 4, 84, 36, 756, 324], [1, 162, 54, 18, 6, 2]),
    6: ([486, 22, 38, 6, 102, 198, 342, 54, 918, 1782, 3078],
        [2, 162, 162, 54, 54, 18, 18, 6, 6, 2, 2]),
    8: ([1944, 40, 120, 360, 1080, 3240], [1, 162, 54, 18, 6, 2]),
    12: ([972, 28, 12, 252, 108, 2268], [1, 162, 54, 18, 6, 2]),
}


def test_classify_golden():
    assert classify(3, 5, 16, 0) is SplitKind.SEMI_SPLITTING
    assert classify(3, 5, 48, 16) is SplitKind.STABLE
    assert classify(3, 5, 48, 3) is SplitKind.SPLITTING
    # zero counts as infinitely divisible in the dividing regime
    assert classify(3, 7, 9, 0) is SplitKind.SPLITTING
    # ell = 2 never semi-splits
    assert classify(2, 5, 243, 0) is SplitKind.SPLITTING
    assert classify(2, 7, 1, 0) is SplitKind.SPLITTING


def test_classify_errors():
    with pytest.raises(ValueError):
        classify(3, 3, 8, 1)  # ell divides q
    with pytest.raises(ValueError):
        classify(3, 5, 10, 1)  # gcd(q, m) != 1
    with pytest.raises(ValueError):
        classify(4, 5, 9, 1)  # ell not prime


@pytest.mark.parametrize(
    "call",
    [
        lambda: classify(3, 5, 0, 1),
        lambda: classify(3, 5, -4, 1),
        lambda: preimage_decompose(3, 5, 0, 1),
        lambda: generating_series(3, 5, 0, 1, 0),
        lambda: enumerate_branch(3, 5, 0, 1, 1),
        lambda: splitting_tree(2, 5, 0, 1),
        lambda: lift_partition(3, 5, CosetPartition(5, 0, ()), 1),
    ],
    ids=[
        "classify",
        "classify-negative",
        "preimage_decompose",
        "generating_series",
        "enumerate_branch",
        "splitting_tree",
        "lift_partition",
    ],
)
def test_nonpositive_modulus_is_named_before_the_gcd(call):
    # gcd(5, 0) = 5, so a gcd test alone would blame q instead
    with pytest.raises(ValueError, match="modulus must be positive"):
        call()


def _paper_kind(ell, q, m, gamma):
    # the paper's valuation rule for the kinds, which the branch plan
    # carries: a reference that shares no formula with classify's
    # orbit-closure test
    gamma %= m
    tau = size_of(q, m, gamma)
    if ell != 2 and pow(q, tau, ell) != 1:
        return SplitKind.SEMI_SPLITTING
    if gamma == 0:
        return SplitKind.SPLITTING
    if val(ell, gamma) + val_pow_minus_one(ell, q, tau) >= val(ell, m) + 1:
        return SplitKind.SPLITTING
    return SplitKind.STABLE


def test_classify_matches_the_paper_rule_on_every_gamma():
    # every gamma mod m < 120 (ell**k up to 2**6, 3**4, 5**2, 7**2, 11, 13),
    # then m = ell**k * m' up to ell**7 at random gammas, weighted to
    # multiples of ell**j so that every valuation case is reached
    seen = set()
    for ell in (2, 3, 5, 7, 11, 13):
        for q in (2, 3, 4, 5, 7, 8, 9, 17, 25, 49):
            if q % ell == 0:
                continue
            for m in range(1, 120):
                if math.gcd(q, m) != 1:
                    continue
                for gamma in range(m):
                    kind = classify(ell, q, m, gamma)
                    assert kind is _paper_kind(ell, q, m, gamma), (ell, q, m, gamma)
                    seen.add((ell == 2, kind))
    assert len(seen) == 5  # every kind, and ell = 2 both splits and is stable
    rng = random.Random(23)
    for _ in range(3000):
        ell = rng.choice((2, 3, 5, 7))
        q = rng.choice((2, 3, 5, 7, 9, 11, 13, 17, 31, 49, 125))
        m = ell ** rng.randrange(0, 8) * rng.choice((1, 2, 3, 7, 11, 13, 29, 97))
        if math.gcd(q, ell * m) != 1:
            continue
        gamma = ell ** rng.randrange(0, 9) * rng.randrange(0, m)
        assert classify(ell, q, m, gamma) is _paper_kind(ell, q, m, gamma), (ell, q, m, gamma)


def test_classify_matches_oracle_arity():
    # stable <-> one child, and the child count is the preimage coset count
    rng = random.Random(17)
    for _ in range(60):
        ell = rng.choice([2, 3, 5])
        q = rng.choice([2, 3, 5, 7, 9, 11])
        if math.gcd(q, ell) != 1:
            continue
        m = rng.randrange(1, 400)
        if math.gcd(q, m) != 1:
            continue
        gamma = rng.randrange(0, m)
        kind = classify(ell, q, m, gamma)
        parent = set(coset_of(q, m, gamma).elements)
        lifted = {x for x in range(ell * m) if x % m in parent}
        count = 0
        seen = set()
        for x in sorted(lifted):
            if x not in seen:
                seen |= set(coset_of(q, ell * m, x).elements)
                count += 1
        if kind is SplitKind.STABLE:
            assert count == 1
        elif kind is SplitKind.SPLITTING:
            assert count == ell
        else:
            tau = size_of(q, m, gamma)
            assert count == 1 + (ell - 1) // mul_order_mod_ell(q, tau, ell)


def mul_order_mod_ell(q, tau, ell):
    b = pow(q, tau, ell)
    t = 1
    x = b
    while x != 1:
        x = x * b % ell
        t += 1
    return t


def test_lift_representative_golden():
    assert lift_representative(3, 16, 0) == 0
    # scan oracle: smallest d in [0, ell) with enough valuation gained
    assert lift_representative(3, 16, 8) == 24
    assert lift_representative(3, 48, 12) == 108


def test_lift_representative_properties():
    rng = random.Random(23)
    for _ in range(300):
        ell = rng.choice([2, 3, 5, 7])
        v = rng.randrange(0, 3)
        cofactor = rng.randrange(1, 50)
        if cofactor % ell == 0:
            continue
        m = ell**v * cofactor
        # choose gamma with valuation at least v so a lift exists
        gamma = (ell**v * rng.randrange(0, max(1, cofactor))) % m
        g0 = lift_representative(ell, m, gamma)
        assert g0 % m == gamma
        assert 0 <= g0 < ell * m
        assert g0 == 0 or val(ell, g0) >= val(ell, m) + 1


def test_lift_representative_bad_arguments():
    with pytest.raises(ValueError):
        lift_representative(4, 9, 0)  # ell not prime
    with pytest.raises(ValueError):
        lift_representative(3, 0, 0)  # modulus not positive


def test_lift_representative_no_lift():
    with pytest.raises(ValueError):
        lift_representative(3, 9, 1)


def _lift_by_scan(ell, m, gamma):
    # reference: the smallest of the ell candidate lifts that gains valuation
    gamma %= m
    need = val(ell, m) + 1
    for d in range(ell):
        cand = gamma + d * m
        if cand == 0 or val(ell, cand) >= need:
            return cand
    raise ValueError(f"no lift of {gamma} mod {m} reaches ell-valuation {need}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return repr(exc)


def test_lift_representative_matches_scan():
    raised = 0
    for ell in (2, 3, 5, 7, 11):
        for m in range(1, 201):
            for gamma in range(m):
                expected = _outcome(_lift_by_scan, ell, m, gamma)
                assert _outcome(lift_representative, ell, m, gamma) == expected
                raised += isinstance(expected, str)
    assert raised > 0  # the no-lift branch was compared too


def test_lift_representative_large_ell():
    ell = 1_000_003
    for m, gamma in ((6 * ell, 5 * ell), (7 * ell * ell, 3 * ell * ell), (999_983, 999_982)):
        g0 = lift_representative(ell, m, gamma)
        assert g0 == _lift_by_scan(ell, m, gamma)
        assert g0 % m == gamma % m and 0 <= g0 < ell * m
        assert val(ell, g0) > val(ell, m)
    m, gamma = ell * ell, 123 * ell
    assert _outcome(lift_representative, ell, m, gamma) == _outcome(_lift_by_scan, ell, m, gamma)


def test_transversal_golden():
    assert transversal_R(3, 5, 1) == [1]
    assert transversal_R(7, 2, 1) == [1, 3]
    # q**tau generates everything: single class
    assert transversal_R(5, 2, 1) == [1]
    with pytest.raises(ValueError):
        transversal_R(3, 5, 2)  # 3 divides 5**2 - 1


@pytest.mark.parametrize("tau", [0, -1])
def test_transversal_refuses_a_nonpositive_tau(tau):
    # pow would read tau = -1 as an inverse and tau = 0 as q**0 = 1
    with pytest.raises(ValueError, match="tau must be positive"):
        transversal_R(5, 2, tau)


def test_transversal_covers_all_classes():
    rng = random.Random(31)
    for _ in range(200):
        ell = rng.choice([3, 5, 7, 11, 13])
        q = rng.randrange(2, 100)
        tau = rng.randrange(1, 12)
        if pow(q, tau, ell) in (0, 1):
            continue
        reps = transversal_R(ell, q, tau)
        b = pow(q, tau, ell)
        subgroup = {1}
        x = b
        while x != 1:
            subgroup.add(x)
            x = x * b % ell
        classes = [{d * h % ell for h in subgroup} for d in reps]
        union = set().union(*classes)
        assert union == set(range(1, ell))
        assert sum(len(c) for c in classes) == ell - 1
        assert reps == sorted(min(c) for c in classes)


def test_digit_complement():
    assert digit_complement_S(3, 1) == [0, 2]
    assert digit_complement_S(3, 0) == [1, 2]
    assert digit_complement_S(2, 1) == [0]
    with pytest.raises(ValueError):
        digit_complement_S(3, 3)


def test_preimage_decompose_golden():
    kids = preimage_decompose(3, 5, 16, 0)
    assert [(c.rep, c.size) for c in kids] == [(0, 1), (16, 2)]

    kids = preimage_decompose(3, 5, 48, 16)
    assert [(c.rep, c.size) for c in kids] == [(16, 6)]

    kids = preimage_decompose(2, 5, 243, 0)
    assert [(c.rep, c.size) for c in kids] == [(0, 1), (243, 1)]


def test_preimage_exact_cover_and_arity():
    grid = [
        (5, 3, 16), (5, 3, 48), (5, 3, 144), (5, 2, 243), (5, 2, 486),
        (2, 3, 35), (2, 5, 63), (2, 7, 45), (7, 2, 55), (7, 3, 100),
        (9, 2, 35), (3, 5, 112), (11, 3, 28), (5, 7, 36),
    ]
    for q, ell, m in grid:
        oracle = enumerate_naive(q, m, materialize=True)
        for parent in oracle.cosets:
            kids = preimage_decompose(ell, q, m, parent.rep)
            kind = classify(ell, q, m, parent.rep)
            if kind is SplitKind.SEMI_SPLITTING:
                o = mul_order_mod_ell(q, parent.size, ell)
                assert len(kids) == 1 + (ell - 1) // o
            elif kind is SplitKind.SPLITTING:
                assert len(kids) == ell
            else:
                assert len(kids) == 1
            assert sum(k.size for k in kids) == ell * parent.size
            covered = set()
            for kid in kids:
                orbit = set(coset_of(q, ell * m, kid.rep).elements)
                assert len(orbit) == kid.size  # analytic size is the true size
                assert not (orbit & covered)  # pairwise disjoint
                covered |= orbit
            expected = {x for x in range(ell * m) if x % m in set(parent.elements)}
            assert covered == expected


def test_generating_series_golden():
    series = generating_series(3, 5, 16, 0, 2)
    assert [(s.degree, s.index, s.digits) for s in series] == [(2, 1, (0, 0, 1))]
    assert series[0].value == 9
    assert (0 + 16 * series[0].value) % (27 * 16) == 144

    series = generating_series(3, 5, 16, 2, 0)
    assert [s.value for s in series] == [0, 2]
    assert [(2 + 16 * s.value) for s in series] == [2, 34]

    series = generating_series(2, 5, 243, 0, 3)
    assert [s.digits for s in series] == [(0, 0, 0, 1)]
    assert series[0].value == 8


def test_negative_degree_and_depth_are_refused():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        generating_series(3, 5, 16, 0, -1)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        enumerate_branch(3, 5, 16, 0, -1)


def test_generating_series_reads_a_one_step_plan():
    # v_2(65537 - 1) = 16: a depth-19 plan would hold 2**15 tails per position
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        series = generating_series(2, 65537, 1, 0, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 0.05
    assert peak < 2**20
    assert [(s.index, s.digits) for s in series] == [(1, (0,) * 18 + (1,))]


def test_branch_depth_capacity():
    # ell**(m+1) * n must fit the working range, as for enumerate_branch
    with pytest.raises(CapacityError):
        generating_series(3, 5, 16, 0, 45)
    with pytest.raises(CapacityError):
        enumerate_branch(3, 5, 16, 0, 46)
    assert len(generating_series(3, 5, 16, 0, 36)) == 1


def test_huge_depth_fails_fast_with_capacity_error():
    # ell**f * n has far more than 4300 digits: no str() of it may happen
    with pytest.raises(CapacityError, match="exceeds the 2[*][*]63 working range"):
        enumerate_branch(3, 5, 16, 0, 10**5)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        _check_tower(3, 5, 16, 10**7)
    assert time.perf_counter() - t0 < 0.1
    # just inside and just outside the range
    _check_tower(2, 3, 1, 62)
    with pytest.raises(CapacityError):
        _check_tower(2, 3, 1, 63)
    _check_tower(2, 7, 3, 61)
    with pytest.raises(CapacityError):
        _check_tower(2, 3, 5, 61)
    _check_tower(3, 2, 1, 39)
    with pytest.raises(CapacityError):
        _check_tower(3, 2, 1, 40)


def test_generating_series_against_phi():
    from cycloset import phi_digits

    rng = random.Random(41)
    for _ in range(200):
        ell = rng.choice([2, 3, 5, 7])
        q = rng.choice([2, 3, 5, 7, 9, 16])
        n = rng.randrange(1, 60)
        if math.gcd(q * ell, n) != 1 or math.gcd(q, ell) != 1:
            continue
        gamma = rng.randrange(0, n)
        m = rng.randrange(0, 6)
        phi = phi_digits(ell, n, gamma, m + 1)
        for s in generating_series(ell, q, n, gamma, m):
            assert len(s.digits) == m + 1
            assert list(s.digits[:m]) == phi[:m]  # agrees below the degree
            assert s.digits[m] != phi[m]  # differs exactly at the degree


@pytest.mark.parametrize("gamma", sorted(DEPTH5_BRANCHES))
def test_enumerate_branch_worked_values(gamma):
    reps, sizes = DEPTH5_BRANCHES[gamma]
    descriptors = enumerate_branch(3, 5, 16, gamma, 5)
    assert [d.components[-1][1] for d in descriptors] == reps
    assert [d.components[-1][2] for d in descriptors] == sizes
    assert descriptors[0].kind == PRINCIPAL
    assert all(d.kind == STABLE for d in descriptors[1:])


@pytest.mark.parametrize("ell, q, n", [(3, 109, 2), (2, 17, 3), (2, 31, 5)])
def test_stable_tails_are_the_digits_above_the_departure(ell, q, n):
    # v >= 3 in all three regimes, so tails have two or more digits
    f = 5
    for gamma in range(n):
        descriptors = enumerate_branch(ell, q, n, gamma, f)
        assert max(len(d.t) for d in descriptors) >= 2
        for d in descriptors[1:]:
            value = (d.components[-1][1] - gamma) // n
            digits = [value // ell**k % ell for k in range(f)]
            start = d.m + (2 if d.regime is Regime.TWO_ADIC_THREE else 1)
            assert digits[d.m] == d.digit
            assert tuple(digits[start : start + len(d.t)]) == d.t


def test_enumerate_branch_depth_zero():
    descriptors = enumerate_branch(3, 5, 16, 2, 0)
    assert len(descriptors) == 1
    assert descriptors[0].components == ((0, 2, 2),)


def test_enumerate_branch_components_project():
    for gamma in (0, 1, 2, 7):
        for d in enumerate_branch(3, 5, 16, gamma, 5):
            for (n1, r1, _), (n2, r2, _) in zip(d.components, d.components[1:]):
                assert r2 % (3**n1 * 16) == r1


def test_enumerate_branch_matches_oracle():
    rng = random.Random(47)
    done = 0
    while done < 60:
        ell = rng.choice([2, 3, 5])
        q = rng.choice([2, 3, 4, 5, 7, 9, 11, 25])
        n = rng.randrange(1, 40)
        f = rng.randrange(0, 7)
        if math.gcd(q, ell * n) != 1 or n % ell == 0 or ell**f * n > 100_000:
            continue
        base = enumerate_naive(q, n)
        got = {}
        for c in base.cosets:
            for d in enumerate_branch(ell, q, n, c.rep, f):
                _, rep, size = d.components[-1]
                lead = coset_of(q, ell**f * n, rep).leader()
                assert lead not in got
                got[lead] = size
        assert got == enumerate_naive(q, ell**f * n).leader_map()
        done += 1


# SHA-256 of one repr line per descriptor of enumerate_branch over the grid
# below: every field a branch derives is pinned, in descriptor order, so
# any restatement of the branch families must reproduce them byte for byte
BRANCH_GRID_ROWS = 22_201
BRANCH_GRID_DIGEST = "1133977b4c40c7ff8e3fcb8700fc65b5b71e8fc57234086b19c79065b1977d79"


def test_enumerate_branch_matches_recorded_digest():
    digest = hashlib.sha256()
    rows = 0
    regimes = set()
    longest_tail = 0
    for ell, q, n in product((2, 3, 5, 7), (2, 3, 5, 7, 17, 31, 257), (1, 3, 5, 7, 8, 9, 16, 21)):
        if q % ell == 0 or n % ell == 0 or math.gcd(q, n) > 1:
            continue
        depths = [f for f in range(6) if ell**f * n <= 200_000]
        for c in enumerate_cosets(q, n).cosets:
            for f in depths:
                for d in enumerate_branch(ell, q, n, c.rep, f):
                    row = (
                        d.regime.value, d.order_factor, d.v, d.kind, d.m, d.index,
                        d.digit, d.t, d.qs, d.s, d.components,
                    )
                    digest.update((repr(row) + "\n").encode())
                    rows += 1
                    regimes.add(d.regime)
                    longest_tail = max(longest_tail, len(d.t))
    assert regimes == set(Regime)
    assert longest_tail >= 2
    assert (rows, digest.hexdigest()) == (BRANCH_GRID_ROWS, BRANCH_GRID_DIGEST)


# (ell, q, n) whose base cosets reach all four regimes between them:
# odd ell semi-splitting and splitting (q**tau = 1 mod ell only for some
# tau, and v >= 2 for q = 19, 251), and ell = 2 with q**tau = 1 or 3 mod 4.
REGIME_GRID = [
    (3, 5, 16), (3, 5, 26), (7, 2, 9), (7, 2, 15), (5, 2, 13), (3, 7, 10),
    (3, 19, 8), (5, 251, 3), (2, 5, 9), (2, 17, 3), (2, 3, 5), (2, 7, 15),
    (2, 31, 3), (2, 9, 35),
]


def _stable_size_reference(ell, regime, tau, o, v, m, N):
    # the depth-N size of a family departing at m, one formula per regime
    if regime is Regime.SEMI_SPLITTING:
        if N <= m:
            return tau
        return ell ** max(0, N - m - v) * o * tau
    if regime is Regime.TWO_ADIC_THREE:
        if N <= m + 1:
            return tau
        if N <= m + v + 1:
            return 2 * tau
        return (1 << (N - m - v)) * tau
    return ell ** max(0, N - m - v) * tau


def test_stable_size_law_matches_the_regime_formulas():
    # the one law in (o, v, lift) against one formula per regime, with
    # lift read from the branch plan
    prime_powers = [q for q in range(2, 50) if len(factorize(q)) == 1]
    regimes = set()
    for ell in (2, 3, 5, 7, 11, 13, 17, 31):
        for q in prime_powers:
            if q % ell == 0:
                continue
            for tau in range(1, 13):
                regime, o, v = _base_params(ell, q, tau)
                lift = _branch_plan(ell, q, 1, tau, 0).lift
                regimes.add(regime)
                for m, N in product(range(6), range(16)):
                    expected = _stable_size_reference(ell, regime, tau, o, v, m, N)
                    assert _stable_size(ell, tau, o, v, lift, m, N) == expected
    assert regimes == set(Regime)


def _depth_slice_reference(ell, q, n, gamma, tau, f):
    # the kernel before plans: every rule recomputed for each base coset
    gamma %= n
    if f == 0:
        return [(gamma, tau)]
    regime, o, v = _base_params(ell, q, tau)
    phi = phi_digits(ell, n, gamma, f)
    mod = ell**f * n
    offset = 1 if regime is Regime.TWO_ADIC_THREE else 0
    shifts = transversal_R(ell, q, tau) if regime is Regime.SEMI_SPLITTING else None
    principal = digits_value(ell, phi)
    out = []
    power = 1
    for m in range(f):
        if shifts is None:
            subs = digit_complement_S(ell, phi[m])
        else:
            subs = [(phi[m] + d) % ell for d in shifts]
        t_len = min(v - 1, max(0, f - m - 1 - offset))
        tail_base = power * ell ** (1 + offset)
        tails = [tail_base * digits_value(ell, t) for t in product(range(ell), repeat=t_len)]
        size = _stable_size_reference(ell, regime, tau, o, v, m, f)
        for u in subs:
            head = principal % power + u * power
            for tail in tails:
                out.append(((gamma + n * (head + tail)) % mod, size))
        power *= ell
    out.append(((gamma + n * principal) % mod, tau))
    return out


def test_depth_slice_matches_reference():
    regimes = set()
    for ell, q, n in REGIME_GRID:
        base = enumerate_naive(q, n)
        for f in range(7):
            if ell**f * n > 200_000:
                break
            plans = {}  # one lift: shared by every base coset
            for c in base.cosets:
                expected = _depth_slice_reference(ell, q, n, c.rep, c.size, f)
                assert _depth_slice(ell, q, n, c.rep, c.size, f, plans) == expected
                regimes.add(_base_params(ell, q, c.size)[0])
            assert set(plans) == set(base.size_counter())
    assert regimes == set(Regime)


def test_depth_slice_matches_descriptors():
    # one (ell, q, n) per regime: semi-splitting and splitting cosets
    # mod 16, then v >= 2 splitting, and both 2-adic regimes; the
    # descriptors label `_depth_slice`'s own output, so they are held to
    # the reference kernel instead
    f = 5
    for ell, q, n in ((3, 5, 16), (3, 19, 8), (2, 17, 3), (2, 31, 3)):
        for c in enumerate_naive(q, n).cosets:
            slices = _depth_slice_reference(ell, q, n, c.rep, c.size, f)
            descriptors = enumerate_branch(ell, q, n, c.rep, f)
            expected = [(d.components[-1][1], d.components[-1][2]) for d in descriptors]
            assert sorted(slices) == sorted(expected)


def test_degrees_golden():
    descriptors = enumerate_branch(3, 5, 16, 0, 5)
    assert degrees(descriptors[0]) == (math.inf, math.inf)
    # v = 1 here, so quasi-stable and stable degrees coincide at m+1
    for d in descriptors[1:]:
        assert degrees(d) == (d.m + 1, d.m + 1)

    # 2-adic with q**tau = 3 mod 4: stable degree lags by v, not v-1
    descriptors = enumerate_branch(2, 3, 1, 0, 4)
    for d in descriptors[1:]:
        assert d.v == 2
        assert degrees(d) == (d.m + 1, d.m + 1 + 2)


def test_component_size_golden():
    descriptors = enumerate_branch(3, 5, 16, 0, 5)
    principal = descriptors[0]
    assert all(component_size(principal, N) == 1 for N in range(6))
    first = descriptors[1]
    assert (first.m, first.index) == (0, 1)
    assert component_size(first, 5) == 162

    descriptors = enumerate_branch(3, 5, 16, 2, 5)
    d = next(x for x in descriptors if x.m == 2 and x.index == 1)
    assert component_size(d, 5) == 18

    with pytest.raises(ValueError):
        component_size(first, 6)
    with pytest.raises(ValueError):
        component_size(first, -1)


def test_component_size_matches_components():
    for gamma in (0, 1, 2, 3):
        for d in enumerate_branch(3, 5, 16, gamma, 5):
            for N, _, size in d.components:
                assert component_size(d, N) == size


def test_splitting_tree_structure():
    tree = splitting_tree(3, 5, 16, 1)
    assert len(tree.levels) == 2
    assert len(tree.levels[0]) == 8
    children_of_zero = [nd for nd in tree.levels[1] if nd.parent == 0]
    assert len(children_of_zero) == 2

    roots_only = splitting_tree(3, 5, 16, 0)
    assert len(roots_only.levels) == 1


def test_splitting_tree_arities_and_sizes():
    tree = splitting_tree(2, 5, 243, 2)
    for depth in range(tree.depth):
        for node in tree.levels[depth]:
            kids = [nd for nd in tree.levels[depth + 1] if nd.parent == node.rep]
            if node.kind is SplitKind.STABLE:
                assert len(kids) == 1
            else:
                assert node.kind is SplitKind.SPLITTING
                assert len(kids) == 2
            assert sum(k.size for k in kids) == 2 * node.size


def test_splitting_tree_dot():
    dot = splitting_tree(3, 5, 16, 1).to_dot()
    assert dot.startswith("digraph")
    assert '"N0_0" [label="0/1"];' in dot
    assert '"N0_0" -> "N1_0";' in dot
    assert '"N0_0" -> "N1_16";' in dot
    # one edge per non-root node: 4 semi-splitting roots with 2 children
    # each, 4 splitting roots with 3 children each
    tree = splitting_tree(3, 5, 16, 1)
    assert dot.count("->") == len(tree.levels[1]) == 20


# SHA-256 of splitting_tree(ell, q, n, depth).to_dot(): the DOT bytes of
# `cycloset tree` are pinned, so every statement of the one-step rules that
# the tree reads must reproduce them
TREE_DOT_DIGESTS = {
    (3, 5, 16, 3): "bf5da19bfe8c01f88d79546cc0194596a76bdb13b693c17821c2f3278e6945a4",
    (7, 2, 15, 3): "7a1e3a417bc038c86eb8b62ba9f1348d1f89cc9d6aa04351acbd80a74711a4ea",
    (3, 19, 8, 3): "8166e1d08045a42eb3d99206d239af7f42a0c3e5bee724026117cd343d93e2dd",
    (2, 5, 243, 3): "dbb249642d9d00c4cc9259db42d9d59bfacab3de3bc919ee6fd65749f8dc5d21",
    (2, 7, 3, 4): "573f0a984d503d9eae741d55ed92c505f3e13422ccf70284981bbaf79fea91e9",
    (5, 2, 3, 3): "e317f2c4379579f45feb83f76a1c0bceef92d7d72cd2e7cffca8f1b79dca64fc",
    (3, 2, 5, 3): "3983a5c5c8ccfaddd604b2dc9f43c9989c0b05bddbe3fb942057b5af2a498951",
    (2, 3, 5, 4): "1a8bc1130bf7fc7dc725fdaf545f5bff9adf79b4583fde8168e9a1db07b83cc8",
    (5, 7, 6, 2): "0938a88e3b1ac0226a9622f71bbc75773d4b40efca893ae47cd73065a271d545",
    (13, 3, 4, 2): "cf0d9d9b3e98c2d7934f75384b661f378ba37d2664da3cc55e8d85086c7e8b4d",
}


@pytest.mark.parametrize("case", sorted(TREE_DOT_DIGESTS))
def test_splitting_tree_dot_matches_recorded_digest(case):
    dot = splitting_tree(*case).to_dot().encode()
    assert hashlib.sha256(dot).hexdigest() == TREE_DOT_DIGESTS[case]


def test_tree_digest_grid_covers_every_kind_past_the_base():
    # every one-step kind occurs at some modulus ell**k * n with k >= 1,
    # and ell = 2 is taken with q = 1 and q = 3 mod 4
    kinds = {
        node.kind
        for case in TREE_DOT_DIGESTS
        for level in splitting_tree(*case).levels[1:]
        for node in level
    }
    assert kinds == set(SplitKind)
    assert {q % 4 for ell, q, _n, _f in TREE_DOT_DIGESTS if ell == 2} == {1, 3}
