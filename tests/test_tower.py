import math
import random
import re
import time
import tracemalloc

import pytest

import cycloset.tower as tower
from cycloset import (
    CapacityError,
    CosetPartition,
    CyclotomicCoset,
    enumerate_cosets,
    enumerate_naive,
    factorization_plan,
    factorize,
    lift_partition,
    project,
    verify,
)
from cycloset.cosets import _orbit


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

    monkeypatch.setattr(tower, "enumerate_cosets", no_work)
    monkeypatch.setattr(tower, "_orbit_mismatches", no_work)
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


def _verify_with(monkeypatch, part):
    monkeypatch.setattr(tower, "enumerate_cosets", lambda q, n: part)
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
    # the oracle keeps one visited byte per residue and no per-residue
    # leader label (8 bytes each); the rest is the structured partition
    n = 2**5 * 3**5 * 7
    verify(5, n)  # warm caches
    tracemalloc.start()
    try:
        assert verify(5, n).match
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n + 48 * 1024, peak


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
