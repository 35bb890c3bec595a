import math
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest

import cycloset.orbits as orbits
import cycloset.tower as tower
from cycloset import (
    CapacityError,
    CosetPartition,
    CyclotomicCoset,
    SplitKind,
    classify,
    enumerate_cosets,
    enumerate_naive,
    factorization_plan,
    factorize,
    lift_partition,
    project,
    splitting_tree,
    verify,
)
from cycloset.arith import mul_order
from cycloset.cosets import ORACLE_CAP
from cycloset.orbits import _orbit, _orbit_mismatches, _orbit_sweep


def _seed(q):
    return CosetPartition(q, 1, (CyclotomicCoset(q, 1, 0, 1),))


def test_factorization_plan():
    assert factorization_plan(3888).factors == ((2, 4), (3, 5))
    assert factorization_plan(1).factors == ()
    assert factorization_plan(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorization_plan(3888).modulus == 3888


def test_lift_partition_identity():
    base = enumerate_cosets(5, 16)
    assert lift_partition(3, 5, base, 0) is base


def test_lift_partition_mod16():
    part = lift_partition(2, 5, _seed(5), 4)
    assert [(c.rep, c.size) for c in part.cosets] == [
        (0, 1), (1, 4), (2, 2), (3, 4), (4, 1), (6, 2), (8, 1), (12, 1),
    ]


def test_lift_partition_errors():
    base16 = enumerate_cosets(5, 16)
    with pytest.raises(ValueError):
        lift_partition(2, 5, base16, 1)  # base modulus not coprime to ell
    with pytest.raises(ValueError):
        lift_partition(5, 5, _seed(5), 1)  # ell divides q
    with pytest.raises(ValueError):
        lift_partition(4, 5, _seed(5), 1)  # ell not prime
    with pytest.raises(CapacityError):
        lift_partition(2, 5, _seed(5), 63)
    with pytest.raises(ValueError, match="q=7, not q=5"):
        lift_partition(3, 5, enumerate_cosets(7, 16), 1)  # base is for another q


def test_enumerate_cosets_golden():
    part = enumerate_cosets(5, 16)
    assert part.reps() == [0, 1, 2, 3, 4, 6, 8, 12]
    assert [c.size for c in part.cosets] == [1, 4, 2, 4, 1, 2, 1, 1]

    part = enumerate_cosets(7, 1)
    assert [(c.rep, c.size) for c in part.cosets] == [(0, 1)]

    part = enumerate_cosets(5, 3888)
    assert len(part.cosets) == 68
    assert part.total() == 3888
    assert part.size_counter() == enumerate_naive(5, 3888).size_counter()
    # fixed points are exactly the multiples of 972
    assert sorted(c.rep for c in part.cosets if c.size == 1) == [0, 972, 1944, 2916]


def test_enumerate_cosets_errors():
    with pytest.raises(ValueError):
        enumerate_cosets(6, 7)  # q not a prime power
    with pytest.raises(ValueError):
        enumerate_cosets(5, 10)  # gcd(q, n) != 1
    with pytest.raises(ValueError):
        enumerate_cosets(5, 0)


def test_prime_order_independence():
    # folding lift_partition smallest-prime-first gives enumerate_cosets
    # exactly; largest-prime-first relabels cosets but yields the same
    # partition
    for q, n in ((5, 3888), (7, 720), (2, 1575)):
        ascending = enumerate_cosets(q, n)
        part = _seed(q)
        for ell, f in factorization_plan(n).factors:
            part = lift_partition(ell, q, part, f)
        assert part == ascending
        part = _seed(q)
        for ell, f in reversed(factorization_plan(n).factors):
            part = lift_partition(ell, q, part, f)
        assert part.n == ascending.n
        assert part.leader_map() == ascending.leader_map()


def test_projection_refinement():
    part = enumerate_cosets(5, 3888)
    for n_prime in (16, 243, 48, 1296, 3888, 1):
        projected = {project(c, n_prime).leader() for c in part.cosets}
        assert projected == set(enumerate_cosets(5, n_prime).leader_map())


def test_verify_golden():
    report = verify(5, 3888)
    assert report.match
    assert report.coset_count == 68
    assert report.mismatches == ()

    report = verify(2, 7)
    assert report.match
    assert report.coset_count == 3

    assert verify(7, 1).match


def test_verify_checks_arguments_before_sweep(monkeypatch):
    # the structured path runs first, so it must not start either: it
    # repeats the (q, n) checks itself and would mask a missing one
    def no_work(*args, **kwargs):
        raise AssertionError("verify did work before the argument checks")

    with monkeypatch.context() as patch:
        patch.setattr(tower, "_enumerate_pairs", no_work)
        patch.setattr(tower, "_orbit_mismatches", no_work)
        with pytest.raises(ValueError, match="6 is not a prime power"):
            verify(6, 9999991)
        with pytest.raises(ValueError, match="n must be positive"):
            verify(5, 0)
        with pytest.raises(ValueError, match="must be 1"):
            verify(5, 10)
        with pytest.raises(CapacityError):
            verify(3, 2**63)


def test_verify_cap():
    with pytest.raises(CapacityError):
        verify(2, 1001, oracle_cap=1000)


def _reference_mismatches(part):
    """verify's comparison as it was first written: label every residue
    with its orbit leader, then look up each structured rep."""
    q, n = part.q, part.n
    leader_of = [None] * n
    oracle = {}
    for g in range(n):
        if leader_of[g] is None:
            orbit = _orbit(q, n, g)
            for x in orbit:
                leader_of[x] = g
            oracle[g] = len(orbit)
    mismatches = []
    seen = set()
    for c in part.cosets:
        lead = leader_of[c.rep]
        true_size = oracle[lead]
        if c.size != true_size or lead in seen:
            mismatches.append((lead, c.rep, true_size, c.size))
        seen.add(lead)
    for lead in sorted(oracle.keys() - seen):
        mismatches.append((lead, None, oracle[lead], None))
    return tuple(mismatches)


SIZE_UP, DROPPED, MOVED, RANDOM_REP = range(4)


def _corrupt(part, kind, i, rng):
    """part with coset i given a wrong size, dropped, given a rep from
    another coset's orbit, or given a random rep."""
    q, n = part.q, part.n
    cosets = list(part.cosets)
    c = cosets[i]
    if kind == SIZE_UP:
        cosets[i] = CyclotomicCoset(q, n, c.rep, c.size + 1)
    elif kind == DROPPED:
        del cosets[i]
    elif kind == MOVED:
        other = cosets[rng.randrange(len(cosets))]
        cosets[i] = CyclotomicCoset(q, n, rng.choice(_orbit(q, n, other.rep)), c.size)
    else:
        cosets[i] = CyclotomicCoset(q, n, rng.randrange(n), c.size)
    return CosetPartition(q, n, tuple(cosets))


def _sweep_mismatches(q, n, pairs):
    """`orbits._orbit_mismatches` as it was before the streaming walk:
    one visited byte per residue, a rep walked with 0 steps lies in an
    earlier rep's orbit, and the sweep then walks the orbits no rep
    reached."""
    reps, sizes = _orbit_sweep(q, n, [rep for rep, _ in pairs])
    out = []
    for (rep, claimed), size in zip(pairs, sizes):
        if not size or size != claimed:
            orbit = _orbit(q, n, rep)
            out.append((min(orbit), rep, len(orbit), claimed))
    k = len(pairs)
    out += ((lead, None, size, None) for lead, size in zip(reps[k:], sizes[k:]))
    return out


WITHIN, DUP_SIZED, EXTRA_DUP, LISTED_TWICE, SWAPPED, TWO_DROPPED = range(4, 10)
CLAIMS = (
    float,
    lambda s: 0,
    lambda s: 2 * s,  # a proper multiple of the size: q**size is still 1
    lambda s: 3 * s,
    lambda s: s // 2,
    lambda s: s // factorize(s)[-1][0] if s > 1 else s,  # the size over a prime factor
    lambda s: -s,
)


def _same_m_partner(q, n, pairs, i, rng):
    """Index of another pair whose rep has the same n/gcd(rep, n) as pair
    i, if there is one, else of any pair: a duplicate of it then passes
    the size certificates and often the total, so only the orbit
    collision test can refuse it."""
    m = n // math.gcd(pairs[i][0], n)
    same = [j for j, (rep, _) in enumerate(pairs) if j != i and n // math.gcd(rep, n) == m]
    return rng.choice(same) if same else rng.randrange(len(pairs))


def _corrupt_pairs(part, kind, rng):
    """(rep, size) pairs of part, unchanged for kind -1, else with one
    corruption of the given kind."""
    q, n = part.q, part.n
    pairs = [(c.rep, c.size) for c in part.cosets]
    i = rng.randrange(len(pairs))
    rep, size = pairs[i]
    if kind in (SIZE_UP, DROPPED, MOVED, RANDOM_REP):
        pairs = [(c.rep, c.size) for c in _corrupt(part, kind, i, rng).cosets]
    elif kind == WITHIN:  # another element of the same orbit: still a match
        pairs[i] = (rng.choice(_orbit(q, n, rep)), size)
    elif kind == DUP_SIZED:  # a rep of another orbit, with that orbit's size
        other, other_size = pairs[_same_m_partner(q, n, pairs, i, rng)]
        pairs[i] = (rng.choice(_orbit(q, n, other)), other_size)
    elif kind == EXTRA_DUP:  # one more rep of an orbit already listed
        other, other_size = pairs[_same_m_partner(q, n, pairs, i, rng)]
        pairs.insert(rng.randrange(len(pairs) + 1), (rng.choice(_orbit(q, n, other)), other_size))
    elif kind == LISTED_TWICE:
        pairs.insert(rng.randrange(len(pairs) + 1), pairs[i])
    elif kind == SWAPPED:  # two sizes traded: the total stays n
        j = rng.randrange(len(pairs))
        pairs[i], pairs[j] = (rep, pairs[j][1]), (pairs[j][0], size)
    elif kind == TWO_DROPPED:
        del pairs[i]
        if pairs:
            del pairs[rng.randrange(len(pairs))]
    elif kind > TWO_DROPPED:
        pairs[i] = (rep, CLAIMS[kind - TWO_DROPPED - 1](size))
    return pairs


def test_orbit_mismatches_match_the_sweep_reference():
    # the leader-free check in front of the report (`_is_partition`) is
    # never True on a mismatch and always True on a match with int claims
    rng = random.Random(9)
    qs = [q for q in range(2, 64) if len(factorize(q)) == 1]
    kinds = range(-1, TWO_DROPPED + 1 + len(CLAIMS))
    seen_kinds = set()
    cases = mismatched = 0
    while cases < 2_000:
        q, n = rng.choice(qs), rng.randrange(1, rng.choice((300, 3_000, 30_000)))
        if math.gcd(q, n) != 1:
            continue
        kind = rng.choice(kinds)
        pairs = _corrupt_pairs(enumerate_cosets(q, n), kind, rng)
        expected = _sweep_mismatches(q, n, pairs)
        int_claims = all(type(c) is int for _, c in pairs)
        verdict = orbits._is_partition(q, n, pairs)
        assert not (verdict and expected), (q, n, kind)
        assert verdict or expected or not int_claims, (q, n, kind)
        assert _orbit_mismatches(q, n, pairs) == expected, (q, n, kind)
        seen_kinds.add(kind)
        mismatched += bool(expected)
        cases += 1
    assert seen_kinds == set(kinds)
    assert 1_000 < mismatched < 1_700, mismatched


def test_every_collision_branch_runs_and_refuses_a_duplicate(monkeypatch):
    # each matching partition once as it is, once with a rep replaced by
    # another rep's orbit mate of the same m and size
    rng = random.Random(21)
    qs = [q for q in range(2, 64) if len(factorize(q)) == 1]
    grid = []
    dups = 0
    while len(grid) < 400:
        q, n = rng.choice(qs), rng.randrange(1, 30_000)
        if math.gcd(q, n) != 1:
            continue
        pairs = tower._enumerate_pairs(q, n)
        grid.append((q, n, pairs))
        i = rng.randrange(len(pairs))
        j = _same_m_partner(q, n, pairs, i, rng)
        if j != i and pairs[j][1] == pairs[i][1]:
            dup = list(pairs)
            dup[i] = (rng.choice(_orbit(q, n, pairs[j][0])), pairs[j][1])
            grid.append((q, n, dup))
            dups += 1
    # count the groups tested for a shared orbit by verdict, and by
    # whether a free prime adds coset ids to the keys
    counts = Counter()
    collide = orbits._collide

    def counted_collide(q, n, m, c, reps, factors):
        verdict = collide(q, n, m, c, reps, factors)
        counts[bool(orbits._free_primes(q, m, c, factors)), verdict] += 1
        return verdict

    monkeypatch.setattr(orbits, "_collide", counted_collide)
    for q, n, pairs in grid:
        orbits._is_partition(q, n, pairs)
    assert counts[False, False] > 100 and counts[True, False] > 100, counts
    assert counts[False, True] > 20 and counts[True, True] > 20, counts
    # each duplicate is refused by exactly one group, and no matching
    # partition is refused
    assert counts[False, True] + counts[True, True] == dups > 100, (dups, counts)


def _units_are_cyclic(m):
    """Whether (Z/m)* is cyclic: m = 1, 2, 4, p**e or 2*p**e for an odd
    prime p."""
    odd = [p for p, _ in factorize(m) if p > 2]
    return m in (1, 2, 4) or len(odd) == 1 and m % 4 != 0


def test_labels_decide_every_unit_group_exactly():
    # over every (Z/m)*, m < 600, cyclic or not, two units share a label
    # exactly when they share an orbit, with the units in a shuffled order
    # so that the first unit of a key is any of them; a cyclic group has
    # no free prime, so its labels are the keys u**c mod m alone
    rng = random.Random(600)
    free_ms = set()
    checked = 0
    for m in range(1, 600):
        factors = factorize(m)
        units = [u for u in range(m) if math.gcd(u, m) == 1]
        assert len(units) == math.prod((p - 1) * p ** (e - 1) for p, e in factorize(m))
        for q in (2, 3, 5, 7, m - 1, m + 1):
            if math.gcd(q, m) != 1:
                continue
            leader = {}
            for u in units:
                if u not in leader:
                    orbit = _orbit(q, m, u)
                    leader.update(dict.fromkeys(orbit, min(orbit)))
            c = len(_orbit(q, m, 1))
            free = orbits._free_primes(q, m, c, factors)
            assert not (free and _units_are_cyclic(m)), (q, m, free)
            if free:
                free_ms.add(m)
            rng.shuffle(units)
            by_label = {}
            for u, (x, key, i) in zip(units, orbits._labels(m, m, c, units, free)):
                assert x == u, (q, m)
                by_label.setdefault((key, i), set()).add(leader[u])
            assert all(len(leads) == 1 for leads in by_label.values()), (q, m)
            assert len(by_label) == len(set(leader.values())), (q, m)
            checked += 1
    assert {8, 12, 15, 16, 21, 24, 63, 100, 105, 256, 512, 585} <= free_ms
    assert len(free_ms) > 350 and checked > 2500, (len(free_ms), checked)


@pytest.mark.parametrize("m, r, a", [(17 * 41, 2, 3), (19 * 37, 3, 2), (2**6 * 17, 2, 3)])
def test_least_in_coset_picks_one_member_per_coset(m, r, a):
    # (Z/m)* is not cyclic: C_16 x C_40, C_18 x C_36 and C_2 x C_16 x C_16,
    # so it holds several subgroups <h> of order r**a; every member of
    # y*<h> must reach one member of it, and distinct cosets distinct ones
    assert not _units_are_cyclic(m)
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    hs = [h for h in units if pow(h, r**a, m) == 1 and pow(h, r ** (a - 1), m) != 1]
    assert len(hs) > r**a, len(hs)
    for h in random.Random(m).sample(hs, 6):
        subgroup = [pow(h, t, m) for t in range(r**a)]
        picked = {}
        for y in units:
            coset = frozenset(y * x % m for x in subgroup)
            least = orbits._least_in_coset(y, m, r, a, h)
            assert least in coset, (m, h, y)
            assert picked.setdefault(coset, least) == least, (m, h, y)
        assert len(set(picked.values())) == len(picked) == len(units) // r**a


@pytest.mark.parametrize("n", [4, 2 * 3**7, 3**9, 5**6, 2 * 7**4, 11**4, 2 * 101**2])
def test_keys_refuse_an_orbit_mate_when_units_are_cyclic(monkeypatch, n):
    # every m | n is cyclic, so no prime is free and the keys alone decide
    # every group
    labels = orbits._labels

    def keys_only(n_, m, c, reps, free):
        assert not free, (n_, m, c, free)
        return labels(n_, m, c, reps, free)

    monkeypatch.setattr(orbits, "_labels", keys_only)
    rng = random.Random(n)
    for q in (3, 5, 7, 9, 13, 17, 19, 27):
        if math.gcd(q, n) != 1:
            continue
        pairs = tower._enumerate_pairs(q, n)
        assert orbits._is_partition(q, n, pairs), (q, n)
        for i in rng.sample(range(len(pairs)), min(len(pairs), 12)):
            rep, size = pairs[i]
            orbit = _orbit(q, n, rep)
            if len(orbit) > 1:
                moved = list(pairs)
                moved[i] = (rng.choice(orbit[1:]), size)
                assert orbits._is_partition(q, n, moved), (q, n, rep)
            j = _same_m_partner(q, n, pairs, i, rng)
            if j != i and pairs[j][1] == size:
                dup = list(pairs)
                dup[i] = (rng.choice(_orbit(q, n, pairs[j][0])), size)
                assert not orbits._is_partition(q, n, dup), (q, n, rep)
                assert _orbit_mismatches(q, n, dup), (q, n, rep)


def test_keys_prove_a_large_prime_quickly():
    # 464 reps of one m with orbits of 19,413 elements: capped baby-step
    # giant-step took about 0.09 s (CPython 3.11, shared 2-vCPU machine),
    # one pow per rep about 0.7 ms
    q, n = 2, 9007633
    pairs = tower._enumerate_pairs(q, n)
    assert len(pairs) == 465
    best = math.inf
    for _ in range(3):
        orbits._exact_order.cache_clear()
        t0 = time.perf_counter()
        assert orbits._is_partition(q, n, pairs)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.02, best


@pytest.mark.parametrize("q, n", [(4, 4849845), (2, 3113787), (3, 2**5 * 7**2 * 13**3)])
def test_labels_refuse_an_orbit_mate_when_units_have_free_primes(monkeypatch, q, n):
    # (Z/m)* is not cyclic and <q> does not fill its c-torsion for most m;
    # an orbit mate of another rep in one of those groups is refused there,
    # while a rep moved within its own orbit still passes
    pairs = tower._enumerate_pairs(q, n)
    labels = orbits._labels
    labelled = set()

    def spy(n_, m, c, reps, free):
        if free:
            labelled.add(m)
        return labels(n_, m, c, reps, free)

    monkeypatch.setattr(orbits, "_labels", spy)
    assert orbits._is_partition(q, n, pairs)
    assert labelled
    rng = random.Random(n)
    of_m = {}
    for i, (rep, _) in enumerate(pairs):
        of_m.setdefault(n // math.gcd(rep, n), []).append(i)
    for m in rng.sample(sorted(labelled), min(len(labelled), 4)):
        i, j = rng.sample(of_m[m], 2)
        rep, size = pairs[i]
        dup = list(pairs)
        dup[i] = (rng.choice(_orbit(q, n, pairs[j][0])), size)
        assert not orbits._is_partition(q, n, dup), (q, n, m)
        moved = list(pairs)
        moved[i] = (rng.choice(_orbit(q, n, rep)), size)
        assert orbits._is_partition(q, n, moved), (q, n, m)


def test_labels_prove_a_non_cyclic_group_quickly():
    # n = 3*1037929: (Z/n)* = C_2 x C_1037928 is not cyclic, and 2 is a free
    # prime of the orbit length 4,398 of its 472 reps. Capped baby-step
    # giant-step took 13.7 ms (CPython 3.11, shared 2-vCPU machine), the
    # labels about 2 ms
    q, n = 2, 3113787
    pairs = tower._enumerate_pairs(q, n)
    best = math.inf
    for _ in range(3):
        orbits._exact_order.cache_clear()
        t0 = time.perf_counter()
        assert orbits._is_partition(q, n, pairs)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.008, best


@pytest.mark.parametrize(
    "q, n, cosets, large",
    [(7, 2**12 * 3**10 * 5**6, 79_485, 60), (5, 2**20 * 3**8 * 7**4, 14_328, 439)],
)
def test_labels_prove_a_partition_past_the_oracle_cap_quickly(q, n, cosets, large):
    # n is far above ORACLE_CAP, so `_is_partition` is called directly. In
    # the large groups, listing the cosets of <q**(c/r**a)> met for a free
    # prime r would take more than 4096 entries (up to 16*512 for orbits of
    # up to 6.3e9 elements mod 3.8e12, 8*2**18 mod 1.65e13): baby-step
    # giant-step search stepped them and did not finish either check in
    # 300 s; labels take about 0.6 s (CPython 3.11, shared 2-vCPU machine).
    # An orbit mate of another rep in a large group is refused, and a rep
    # moved within its own orbit still passes
    pairs = tower._enumerate_pairs(q, n)
    assert len(pairs) == cosets
    t0 = time.perf_counter()
    assert orbits._is_partition(q, n, pairs)
    assert time.perf_counter() - t0 < 10
    factors = factorize(n)
    of_m = {}
    for i, (rep, _) in enumerate(pairs):
        of_m.setdefault(n // math.gcd(rep, n), []).append(i)
    large_ms = [
        m
        for m, group in of_m.items()
        if any(
            min(len(group), s) * r**a > 4096
            for _, r, a, s, _ in orbits._free_primes(q, m, pairs[group[0]][1], factors)
        )
    ]
    assert len(large_ms) == large, len(large_ms)
    rng = random.Random(n)
    for m in rng.sample(large_ms, 2):
        i, j = rng.sample(of_m[m], 2)
        rep, size = pairs[i]
        dup = list(pairs)
        dup[i] = (pairs[j][0] * pow(q, rng.randrange(size), n) % n, size)
        assert not orbits._is_partition(q, n, dup), (q, n, m)
        moved = list(pairs)
        moved[i] = (rep * pow(q, rng.randrange(1, size), n) % n, size)
        assert orbits._is_partition(q, n, moved), (q, n, m)


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


def _trial_primes(m):
    """The prime factors of m, by trial division."""
    out = set()
    p = 2
    while p * p <= m:
        while m % p == 0:
            out.add(p)
            m //= p
        p += 1
    if m > 1:
        out.add(m)
    return out


def _order_mod_prime_power(q, p, k):
    # ord_{p**k}(q): the unit group's order (p - 1) * p**(k - 1), cut by
    # each prime r while q**(t/r) is still 1
    m, t = p**k, (p - 1) * p ** (k - 1)
    for r in _trial_primes(p - 1) | {p}:
        while t % r == 0 and pow(q, t // r, m) == 1:
            t //= r
    return t


def _size_census(q, factors):
    """{size: number of cosets} mod n = prod p**e: the sum over d | n of
    phi(d) / ord_d(q) cosets of size ord_d(q), with ord_d(q) the lcm of
    the orders mod the prime powers of d."""
    residues = {1: 1}  # orbit size -> residues mod the prime powers so far
    for p, e in factors:
        steps = [(1, 1)]
        steps += [(_order_mod_prime_power(q, p, k), (p - 1) * p ** (k - 1)) for k in range(1, e + 1)]
        grown = Counter()
        for o, c in residues.items():
            for o2, c2 in steps:
                grown[math.lcm(o, o2)] += c * c2
        residues = grown
    return {o: c // o for o, c in residues.items()}


def test_labels_prove_random_partitions_past_the_oracle_cap():
    # 30 seeded (q, n) with n in (1e7, 2**62), 2 to 5 distinct primes, each
    # prime below 2e5 (the transversal is O(ell)), and at most 60,000
    # cosets by a census of the test's own. Each is proved by the labels,
    # and four corruptions of it are refused: an orbit mate of another rep
    # of one m, a size off by one, a dropped coset, and a rep moved into
    # another m's orbits. A corrupted pair is listed first: the pairs are
    # unordered, and the proof then reaches its group first. About 7 s in
    # all (CPython 3.11, shared 2-vCPU machine).
    rng = random.Random(17)
    primes = _primes_below(200_000)
    qs = [q for q in range(2, 64) if len(_trial_primes(q)) == 1]
    cases = []
    while len(cases) < 30:
        chosen = set()
        for _ in range(rng.randrange(2, 6)):
            chosen.add(rng.choice(primes[:15] if rng.random() < 0.5 else primes))
        factors, n = [], 1
        for p in sorted(chosen):
            e = 1
            while rng.random() < 0.5 and n * p ** (e + 1) < 2**62:
                e += 1
            factors.append((p, e))
            n *= p**e
        q = rng.choice(qs)
        if not ORACLE_CAP < n < 2**62 or math.gcd(q, n) != 1:
            continue
        census = _size_census(q, factors)
        if sum(census.values()) <= 60_000:
            cases.append((q, n, census))
    mates = 0
    for q, n, census in cases:
        pairs = tower._enumerate_pairs(q, n)
        assert Counter(size for _, size in pairs) == census, (q, n)
        assert orbits._is_partition(q, n, pairs), (q, n)
        of_m = {}
        for i, (rep, _) in enumerate(pairs):
            of_m.setdefault(n // math.gcd(rep, n), []).append(i)

        def refused(i, pair):
            corrupt = [pair] + pairs[:i] + pairs[i + 1 :]
            return not orbits._is_partition(q, n, corrupt)

        groups = [group for group in of_m.values() if len(group) > 1]
        if groups:
            i, j = rng.sample(rng.choice(groups), 2)
            assert refused(i, (q * pairs[j][0] % n, pairs[j][1])), (q, n, i, j)
            mates += 1
        i = rng.randrange(len(pairs))
        rep, size = pairs[i]
        assert refused(i, (rep, size + 1)), (q, n, i)
        assert not orbits._is_partition(q, n, pairs[:i] + pairs[i + 1 :]), (q, n, i)
        # into an orbit of another m, of the same size when there is one,
        # so that only that m's labels can refuse it
        m = n // math.gcd(rep, n)
        others = [j for k, group in of_m.items() if k != m for j in group]
        same = [j for j in others if pairs[j][1] == size]
        j = rng.choice(same or others)
        assert refused(i, (q * pairs[j][0] % n, size)), (q, n, i, j)
    assert mates >= 25, mates


def test_labels_of_many_short_orbits_hold_one_entry_per_key():
    # 356,960 reps of m = n with orbits of 23 elements; 23 is a free prime,
    # and each key u**23 holds 23 reps. Walking them held one leader per
    # rep, a tracemalloc peak of 37.7 MB; the labels hold one bit mask per
    # key, 5.7 MB with the rep lists of `_is_partition`
    q, n = 2, 8388607
    pairs = tower._enumerate_pairs(q, n)
    tracemalloc.start()
    try:
        assert orbits._is_partition(q, n, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 * 1024, peak


def test_a_correct_partition_never_takes_the_open_walk(monkeypatch):
    # every claimed size of a correct partition is certified as the exact
    # order, so each orbit is walked by the counted loop alone
    def no_open_walk(q, n, x):
        raise AssertionError(f"open walk of {x} mod {n} under {q}")

    monkeypatch.setattr(orbits, "_open_walk", no_open_walk)
    assert verify(5, 3888).match
    rng = random.Random(12)
    qs = [q for q in range(2, 50) if len(factorize(q)) == 1]
    checked = 0
    for _ in range(300):
        q, n = rng.choice(qs), rng.randrange(1, 3000)
        if math.gcd(q, n) != 1:
            continue
        part = enumerate_cosets(q, n)
        assert verify(q, n).match, (q, n)
        part.validate()
        assert part.leader_map() == enumerate_naive(q, n).leader_map(), (q, n)
        checked += 1
    assert checked > 150


def _verify_with(monkeypatch, part):
    # scoped, or every later enumerate_cosets call in the same test would
    # return the injected pairs too
    with monkeypatch.context() as patch:
        pairs = [(c.rep, c.size) for c in part.cosets]
        patch.setattr(tower, "_enumerate_pairs", lambda q, n: pairs)
        return verify(part.q, part.n)


def test_verify_report_matches_leader_reference(monkeypatch):
    rng = random.Random(5)
    qs = [q for q in range(2, 50) if len(factorize(q)) == 1]
    mismatched = 0
    for _ in range(400):
        q, n = rng.choice(qs), rng.randrange(1, 3000)
        if math.gcd(q, n) != 1:
            continue
        part = enumerate_cosets(q, n)
        kind = rng.randrange(-1, 4)
        if kind >= 0:
            part = _corrupt(part, kind, rng.randrange(len(part.cosets)), rng)
        report = _verify_with(monkeypatch, part)
        expected = _reference_mismatches(part)
        assert report.mismatches == expected, (q, n, kind)
        assert report.match is (expected == ())
        assert report.coset_count == len(part.cosets)
        mismatched += not report.match
        # validate runs the same check and names the first mismatch; a
        # rep moved within its own orbit can leave only the sort broken
        if expected:
            with pytest.raises(AssertionError, match=re.escape(str(expected[0]))):
                part.validate()
        elif part.reps() == sorted(part.reps()):
            part.validate()
    assert mismatched > 100


def test_verify_pins_each_mismatch_kind(monkeypatch):
    # mod 16 under 5: {0} {1,5,9,13} {2,10} {3,7,11,15} {4} {6,14} {8} {12}
    good = enumerate_cosets(5, 16)
    assert [(c.rep, c.size) for c in good.cosets] == [
        (0, 1), (1, 4), (2, 2), (3, 4), (4, 1), (6, 2), (8, 1), (12, 1),
    ]

    def with_cosets(pairs):
        return CosetPartition(5, 16, tuple(CyclotomicCoset(5, 16, r, s) for r, s in pairs))

    def mismatches(pairs):
        report = _verify_with(monkeypatch, with_cosets(pairs))
        assert report.coset_count == len(pairs)
        assert report.match is (report.mismatches == ())
        return report.mismatches

    pairs = [(c.rep, c.size) for c in good.cosets]
    # wrong size
    assert mismatches(pairs[:2] + [(2, 3)] + pairs[3:]) == ((2, 2, 2, 3),)
    # dropped coset: its orbit is missed
    assert mismatches(pairs[:3] + pairs[4:]) == ((3, None, 4, None),)
    # rep moved into an earlier coset's orbit: a duplicate, and a missed orbit
    assert mismatches(pairs[:5] + [(10, 2)] + pairs[6:]) == (
        (2, 10, 2, 2),
        (6, None, 2, None),
    )
    # a rep that claims a later coset's orbit first: the later true rep is
    # the duplicate, and the orbit it replaced is missed
    assert mismatches(pairs[:1] + [(14, 4)] + pairs[2:]) == (
        (6, 14, 2, 4),
        (6, 6, 2, 2),
        (1, None, 4, None),
    )
    # a duplicate is reported even when its claimed size matches the 0
    # steps its walk took
    assert mismatches(pairs + [(5, 0)]) == ((1, 5, 4, 0),)
    # a non-leader rep of the right orbit and size is no mismatch
    assert mismatches(pairs[:3] + [(7, 4)] + pairs[4:]) == ()


def test_verify_memory_is_one_byte_per_residue():
    # the oracle keeps no per-residue leader label (8 bytes each): it
    # streams each orbit, and only a missed orbit would cost one visited
    # byte per residue; the rest is the structured partition
    n = 2**5 * 3**5 * 7
    verify(5, n)  # warm caches
    tracemalloc.start()
    try:
        assert verify(5, n).match
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n + 48 * 1024, peak


def test_verify_memory_is_independent_of_n():
    # 2 is a primitive root mod 3**k, so 3**12 has only 13 cosets: a
    # matching verify keeps a claim per m and a rep per coset, nothing per
    # residue (a visited byte per residue alone would be 531,441 B)
    verify(2, 3**12)  # warm caches
    tracemalloc.start()
    try:
        assert verify(2, 3**12).match
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, peak


def test_leader_map_scans_for_most_leaders_in_bounded_memory(monkeypatch):
    # most of the 1,386 orbits are long enough that their leaders come
    # from a label scan of the units mod m, m <= n; the peak holds a pair
    # and a leader per coset and the labels met, about 214 KiB, where one
    # bitmap of <q> mod m (m/8 bytes) made it 443 KiB
    n = 2**5 * 3**5 * 7**3
    part = enumerate_cosets(5, n)
    part.leader_map()  # warm caches
    walked = []
    orbit_leader = orbits._orbit_leader

    def counted(*args):
        walked.append(args[2])
        return orbit_leader(*args)

    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_orbit_leader", counted)
        leaders = part.leader_map()
    assert len(leaders) == 1386 and sum(leaders.values()) == n
    assert len(walked) < 1386 // 2, len(walked)
    tracemalloc.start()
    try:
        part.leader_map()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * 1024, peak


def test_a_matching_verify_finds_no_leader(monkeypatch):
    # certified sizes, their total and labels per m prove the partition,
    # so no orbit is walked and no leader is searched for
    def no_search(*args):
        raise AssertionError(f"verify searched for leaders: {args}")

    n = 2**5 * 3**5 * 7**3
    with monkeypatch.context() as patch:
        for name in (
            "_leaders",
            "_scan_group",
            "_orbit_leader",
            "_counted_leader",
            "_open_walk",
            "_orbit_sweep",
        ):
            patch.setattr(orbits, name, no_search)
        assert verify(5, n).match
        # 2 is a primitive root mod 3**k: one coset per m, so no group has
        # two reps to tell apart
        assert verify(2, 3**14).match
    # the leader-free check holds the partition and one bit mask per key,
    # about 90 KB, and nothing per residue of the n = 2,667,168
    tracemalloc.start()
    try:
        assert verify(5, n).match
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 480 * 1024, peak


def test_structured_path_is_fast():
    enumerate_cosets(5, 3888)  # warm caches
    t0 = time.perf_counter()
    part = enumerate_cosets(5, 3888)
    elapsed = time.perf_counter() - t0
    assert part.total() == 3888
    assert elapsed < 0.010


def test_large_smooth_modulus_without_orbits():
    # ~3.8e12: hopeless for any orbit walk, fine for the closed forms
    n = 2**12 * 3**10 * 5**6
    t0 = time.perf_counter()
    part = enumerate_cosets(7, n)
    elapsed = time.perf_counter() - t0
    assert part.total() == n
    assert all(0 <= c.rep < n for c in part.cosets)
    assert elapsed < 10.0


def test_verify_sweep_sample():
    for q in (2, 3, 4, 5):
        for n in range(1, 120):
            if math.gcd(q, n) != 1:
                continue
            assert verify(q, n).match, (q, n)


@pytest.mark.parametrize("q, n", [(5, 3888), (11, 2**4 * 3**3 * 5**2 * 7), (2, 3**4 * 5**2 * 7**2)])
def test_branch_plan_built_once_per_tau(monkeypatch, q, n):
    # per tower step: one _base_params per distinct base size tau, and one
    # transversal_R per distinct semi-splitting tau, however many cosets
    import cycloset.system as system

    calls = {"_base_params": [], "transversal_R": []}
    for name in calls:
        real = getattr(system, name)

        def counted(ell, q, tau, real=real, log=calls[name]):
            log.append((ell, tau))
            return real(ell, q, tau)

        monkeypatch.setattr(system, name, counted)
    expected = {"_base_params": [], "transversal_R": []}
    pairs, m = [(0, 1)], 1
    for ell, f in factorization_plan(n).factors:
        taus = sorted({size for _rep, size in pairs})
        expected["_base_params"] += [(ell, tau) for tau in taus]
        expected["transversal_R"] += [
            (ell, tau) for tau in taus if ell != 2 and pow(q, tau, ell) != 1
        ]
        pairs = tower._lift_pairs(ell, q, m, pairs, f)
        m *= ell**f
    assert len(pairs) > 2 * len(expected["_base_params"])  # cosets outnumber plans
    assert {k: sorted(v) for k, v in calls.items()} == {
        k: sorted(v) for k, v in expected.items()
    }
    assert sorted(pairs) == [(c.rep, c.size) for c in enumerate_cosets(q, n).cosets]


def _tree_grid(seed, count, cap=200_000):
    # seeded (ell, q, n, f) with n ell-free, q a prime power coprime to
    # ell*n, and ell**f * n <= cap
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.choice((2, 3, 5, 7, 11, 13))
        n = rng.randrange(1, 400)
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 49))
        if n % ell == 0 or math.gcd(q, ell * n) != 1:
            continue
        f = rng.randrange(0, 6)
        while ell**f * n > cap:
            f -= 1
        out.append((ell, q, n, f))
    return out


@pytest.mark.parametrize("case", [(11, 3, 59, 1)] + _tree_grid(1617, 60))
def test_splitting_tree_levels_match_the_oracle(case):
    # each level is the partition mod ell**d * n (orbits, not reps: the
    # tree's reps differ from the lift's when ell is not n's largest
    # prime), each kind is classify's, and each child reduces to its parent;
    # above the last level each kind also agrees with the node's child
    # count in the next, validated level
    ell, q, n, f = case
    tree = splitting_tree(ell, q, n, f)
    assert len(tree.levels) == f + 1
    for d, level in enumerate(tree.levels):
        m = ell**d * n
        nodes = sorted(level, key=lambda nd: nd.rep)
        CosetPartition(q, m, tuple(CyclotomicCoset(q, m, nd.rep, nd.size) for nd in nodes)).validate()
        assert len(level) == len(tower._enumerate_pairs(q, m))
        assert all(nd.depth == d and nd.kind is classify(ell, q, m, nd.rep) for nd in level)
        if d:
            assert all(nd.rep % (m // ell) == nd.parent for nd in level)
        else:
            assert all(nd.parent is None for nd in level)
    for level, below in zip(tree.levels, tree.levels[1:]):
        children = Counter(nd.parent for nd in below)
        for nd in level:
            arity = {
                SplitKind.SPLITTING: ell,
                SplitKind.STABLE: 1,
                SplitKind.SEMI_SPLITTING: 1 + (ell - 1) // mul_order(pow(q, nd.size, ell), ell),
            }
            assert children[nd.rep] == arity[nd.kind], nd


def test_splitting_tree_takes_no_valuation(monkeypatch):
    # kinds come from one power per node, not from the valuation rule,
    # and a 2-adic tree builds no branch plan, the one place that rule
    # lives; the roots' partition mod 5005 is lifted through odd primes'
    # plans, so it is made before the valuations are refused
    import cycloset.system as system

    def refused(*args):
        raise AssertionError("splitting_tree took a valuation")

    roots = tower._enumerate_pairs(3, 5005)
    monkeypatch.setattr(tower, "_enumerate_pairs", lambda q, n: roots)
    monkeypatch.setattr(system, "val", refused)
    monkeypatch.setattr(system, "val_pow_minus_one", refused)
    tree = splitting_tree(2, 3, 5005, 10)
    assert sum(nd.size for nd in tree.levels[-1]) == 2**10 * 5005


@pytest.mark.parametrize("case, taus", [((1000003, 2, 255, 1), 4), ((3, 5, 16, 6), 1)])
def test_splitting_tree_plans_once_per_tau(monkeypatch, case, taus):
    # every semi-splitting node of a tree over an ell-free n is ell**d
    # times a coset mod n, so one transversal per distinct tau serves them
    import cycloset.system as system

    ell = case[0]
    calls = []
    real = system.transversal_R

    def counted(p, q, tau):
        calls.append((p, tau))
        return real(p, q, tau)

    monkeypatch.setattr(system, "transversal_R", counted)
    tree = splitting_tree(*case)
    semi = {
        nd.size
        for level in tree.levels[:-1]
        for nd in level
        if nd.kind is SplitKind.SEMI_SPLITTING
    }
    assert len(semi) == taus
    assert sorted(tau for p, tau in calls if p == ell) == sorted(semi)


def test_splitting_tree_over_a_large_prime_is_fast():
    # 35 semi-splitting roots over 4 distinct tau: four O(ell) transversals
    t0 = time.perf_counter()
    tree = splitting_tree(1000003, 2, 255, 1)
    elapsed = time.perf_counter() - t0
    assert sum(nd.size for nd in tree.levels[1]) == 1000003 * 255
    assert elapsed < 2.5
