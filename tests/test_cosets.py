import copy
import dataclasses
import inspect
import math
import pickle
import random
import re
import signal
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from cycloset import (
    CapacityError,
    CosetPartition,
    CyclotomicCoset,
    coset_of,
    enumerate_cosets,
    enumerate_naive,
    factorize,
    leader,
    project,
    size_of,
)
import cycloset.orbits as orbits
from cycloset.arith import CACHE_SIZE
from cycloset.cosets import ORACLE_CAP
from cycloset.orbits import _orbit_leader, _orbit_mismatches, _orbit_sweep
from cycloset.tower import _enumerate_pairs


def test_coset_of_golden():
    c = coset_of(5, 16, 1)
    assert set(c.elements) == {1, 5, 9, 13}
    assert c.size == 4
    assert c.rep == 1

    z = coset_of(5, 16, 0)
    assert z.elements == (0,)
    assert z.size == 1

    assert coset_of(5, 3888, 1296).size == 2


def test_materialize_returns_stored_elements_without_walking(monkeypatch):
    c = coset_of(5, 16, 1)

    def no_walk(*args):
        raise AssertionError("walked an orbit that is already stored")

    monkeypatch.setattr(orbits, "_orbit", no_walk)
    assert c.materialize() is c.elements


def test_coset_of_reduces_rep():
    c = coset_of(5, 16, 21)
    assert c.rep == 5
    assert set(c.elements) == {1, 5, 9, 13}


def test_coset_of_errors():
    with pytest.raises(ValueError):
        coset_of(4, 6, 1)
    with pytest.raises(ValueError):
        coset_of(5, 0, 1)


def test_size_of_golden():
    assert size_of(5, 3888, 16) == 162
    assert size_of(5, 3888, 0) == 1
    assert size_of(5, 3888, 2) == 162
    assert size_of(5, 3888, 1) == 324


def test_size_of_matches_orbit_walk():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 3000)
        q = rng.randrange(2, 50)
        if math.gcd(q, n) != 1:
            continue
        gamma = rng.randrange(0, n)
        assert size_of(q, n, gamma) == coset_of(q, n, gamma).size


def test_leader_golden():
    assert coset_of(5, 16, 13).leader() == 1
    assert leader(coset_of(5, 16, 0)) == 0
    assert coset_of(5, 3888, 2673).leader() == 729


def test_leader_without_materialized_elements():
    from cycloset import CyclotomicCoset

    c = CyclotomicCoset(5, 16, 13, 4)
    assert c.elements is None
    assert c.leader() == 1
    assert set(c.materialize()) == {1, 5, 9, 13}


def test_enumerate_naive_golden():
    part = enumerate_naive(5, 16)
    assert part.reps() == [0, 1, 2, 3, 4, 6, 8, 12]
    assert sorted(part.size_counter().elements()) == [1, 1, 1, 1, 2, 2, 4, 4]

    part = enumerate_naive(2, 7, materialize=True)
    assert [set(c.elements) for c in part.cosets] == [{0}, {1, 2, 4}, {3, 5, 6}]

    part = enumerate_naive(7, 1)
    assert part.reps() == [0]
    assert part.total() == 1


def test_enumerate_naive_reps_are_leaders():
    part = enumerate_naive(3, 1000)
    for c in part.cosets:
        assert c.rep == c.leader()


def test_enumerate_naive_partition_axioms():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 1500)
        q = rng.randrange(2, 60)
        if math.gcd(q, n) != 1:
            continue
        part = enumerate_naive(q, n, materialize=True)
        part.validate()
        assert part.total() == n
        if len(factorize(q)) == 1:
            enumerate_cosets(q, n).validate()


def _partition(q, n, pairs, elements=None):
    elements = elements or [None] * len(pairs)
    return CosetPartition(
        q, n, tuple(CyclotomicCoset(q, n, r, s, e) for (r, s), e in zip(pairs, elements))
    )


def test_validate_holds_each_coset_against_its_orbit():
    # mod 16 under 5: {0} {1,5,9,13} {2,10} {3,7,11,15} {4} {6,14} {8} {12}
    good = [(0, 1), (1, 4), (2, 2), (3, 4), (4, 1), (6, 2), (8, 1), (12, 1)]
    _partition(5, 16, good).validate()
    # sizes permuted, the total still 16
    permuted = list(zip([r for r, _ in good], [1, 1, 2, 1, 4, 2, 4, 1]))
    with pytest.raises(AssertionError, match=re.escape("(1, 1, 4, 1)")):
        _partition(5, 16, permuted).validate()
    # elements that partition Z/4 but are not orbits of 5 (5 = 1 mod 4
    # fixes every residue): sizes are held against the true orbits
    with pytest.raises(AssertionError, match=re.escape("(0, 0, 1, 2)")):
        _partition(5, 4, [(0, 2), (1, 2)], [(0, 2), (1, 3)]).validate()
    # a rep listed twice
    with pytest.raises(AssertionError, match=re.escape("(1, 1, 4, 4)")):
        _partition(5, 16, good[:2] + good[1:]).validate()
    # reps outside [0, n), each still sorted and naming the right orbit
    with pytest.raises(AssertionError, match=re.escape("rep -1 lies outside [0, 16)")):
        _partition(5, 16, [(-1, 4)] + good[:3] + good[4:]).validate()
    with pytest.raises(AssertionError, match=re.escape("rep 19 lies outside [0, 16)")):
        _partition(5, 16, good[:3] + good[4:] + [(19, 4)]).validate()
    # right orbits, wrong order
    with pytest.raises(AssertionError, match="not sorted"):
        _partition(5, 16, good[1:] + good[:1]).validate()
    # q not coprime to n: x -> q*x is no permutation, so no walk may start
    with pytest.raises(ValueError, match="must be 1"):
        _partition(2, 4, [(0, 1), (1, 1)]).validate()


def test_validate_requires_the_partition_q_and_n():
    good = enumerate_cosets(5, 16)
    good.validate()
    for q, n in ((3, 16), (5, 32)):
        cosets = tuple(CyclotomicCoset(q, n, c.rep, c.size) for c in good.cosets)
        with pytest.raises(AssertionError, match=re.escape(f"{cosets[0]!r} is not a coset of")):
            CosetPartition(5, 16, cosets).validate()
    # only the last coset is foreign: it is the one named
    last = good.cosets[-1]
    stray = CyclotomicCoset(3, 16, last.rep, last.size)
    with pytest.raises(AssertionError, match=re.escape(repr(stray))):
        CosetPartition(5, 16, good.cosets[:-1] + (stray,)).validate()


@contextmanager
def _deadline(seconds):
    """Turn a walk that never ends into a failure instead of a hung run."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs signal.setitimer")

    def fire(signum, frame):
        raise TimeoutError(f"still walking after {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_walks_refuse_a_q_sharing_a_factor_with_n():
    # x -> 2x mod 4 sends 1 to 2 to 0 to 0: the walk from 1 never returns
    c = CyclotomicCoset(2, 4, 1, 1)
    calls = [c.leader, c.materialize, lambda: project(c, 4), lambda: project(c, 1)]
    calls += [lambda: _orbit_mismatches(2, 4, [(0, 1), (1, 1)])]
    calls += [lambda: CosetPartition(2, 4, (c,)).leader_map()]
    with _deadline(5):
        for call in calls:
            with pytest.raises(ValueError, match=re.escape("gcd(q=2, n=4) must be 1")):
                call()


def test_orbit_leader_refuses_a_start_outside_the_ring():
    # y stays in [0, n), so a walk from outside it would never return
    with _deadline(5):
        for x in (-1, 16, 21):
            with pytest.raises(ValueError, match=re.escape(f"{x} lies outside [0, 16)")):
                _orbit_leader(5, 16, x)
        with pytest.raises(ValueError, match=re.escape("19 lies outside [0, 16)")):
            _orbit_mismatches(5, 16, [(0, 1), (19, 4)])


def test_orbit_leader_streams_the_least_element_and_length():
    # mod 16 under 5: {0} {1,5,9,13} {2,10} {3,7,11,15} {4} {6,14} {8} {12}
    assert [_orbit_leader(5, 16, x) for x in (0, 13, 10, 15, 4)] == [
        (0, 1), (1, 4), (2, 2), (3, 4), (4, 1),
    ]
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 3000)
        q = rng.randrange(2, 50)
        if math.gcd(q, n) != 1:
            continue
        x = rng.randrange(n)
        orbit = coset_of(q, n, x).elements
        assert _orbit_leader(q, n, x) == (min(orbit), len(orbit))
        assert CyclotomicCoset(q, n, x, len(orbit)).leader() == min(orbit)


def test_claimed_sizes_certify_only_the_exact_orbit_length():
    # mod 7 under 2: {0} {1,2,4} {3,5,6}; 2**6 = 1 but so does 2**3, so a
    # claim of 6 for a 3-element orbit is no exact order and is walked open
    assert _orbit_mismatches(2, 7, [(0, 1), (1, 6), (3, 3)]) == [(1, 1, 3, 6)]
    assert _orbit_mismatches(2, 7, [(0, 1), (1, 2), (3, 3)]) == [(1, 1, 3, 2)]
    assert _orbit_mismatches(2, 7, [(0, 1), (1, 3), (5, 6)]) == [(3, 5, 3, 6)]
    assert CyclotomicCoset(2, 7, 1, 6).leader() == 1
    # a claim of 0, one above n, and a claim of 2 for the fixed point 0
    assert _orbit_mismatches(2, 7, [(0, 0), (1, 3), (3, 3)]) == [(0, 0, 1, 0)]
    assert _orbit_mismatches(2, 7, [(0, 1), (1, 8), (3, 3)]) == [(1, 1, 3, 8)]
    assert _orbit_mismatches(2, 7, [(0, 2), (1, 3), (3, 3)]) == [(0, 0, 1, 2)]
    assert [_orbit_leader(2, 7, x, c) for x, c in ((0, 2), (6, 0), (5, 9), (5, 6), (3, 1))] == [
        (0, 1), (3, 3), (3, 3), (3, 3), (3, 3),
    ]
    assert [CyclotomicCoset(2, 7, x, c).leader() for x, c in ((0, 2), (6, 0), (5, 9))] == [0, 3, 3]


def test_claims_that_are_no_int_are_walked_open():
    # 3.0 == 3 and hashes alike, and [3] cannot be hashed: neither may
    # reach the certificate, and each is reported by its true length
    part = _partition(2, 7, [(0, 1), (1, 3), (3, 3.0)])
    assert _orbit_mismatches(2, 7, [(0, 1), (1, 3), (3, 3.0)]) == []
    part.validate()
    assert part.leader_map() == {0: 1, 1: 3, 3: 3.0}
    assert CyclotomicCoset(2, 7, 1, [3]).leader() == 1
    assert _orbit_mismatches(2, 7, [(0, 1), (1, [3]), (3, 3)]) == [(1, 1, 3, [3])]
    assert _orbit_leader(2, 7, 1, True) == (1, 3)


def test_order_certificate_cache_is_bounded():
    for m in range(3, 3 + 2 * CACHE_SIZE + 200, 2):  # distinct odd moduli
        orbits._exact_order(2, m, 1)
    info = orbits._exact_order.cache_info()
    assert info.maxsize == CACHE_SIZE
    assert info.currsize == CACHE_SIZE  # full, and no larger


def test_a_certified_claim_is_walked_without_the_open_walk(monkeypatch):
    def no_open_walk(q, n, x):
        raise AssertionError(f"open walk of {x} mod {n}")

    monkeypatch.setattr(orbits, "_open_walk", no_open_walk)
    assert [_orbit_leader(5, 16, x, c) for x, c in ((0, 1), (13, 4), (10, 2), (15, 4))] == [
        (0, 1), (1, 4), (2, 2), (3, 4),
    ]
    assert CyclotomicCoset(5, 3888, 2673, 4).leader() == 729
    with pytest.raises(AssertionError, match="open walk of 1 mod 7"):
        _orbit_leader(2, 7, 1, 6)


def test_leader_map_refuses_past_the_oracle_cap_before_any_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(orbits, "_orbit_leader", no_walk)
    # every orbit here is short (61 elements at most), but there are
    # n = 2**61 - 1 residues to walk in all
    n = 2**61 - 1
    part = CosetPartition(2, n, (CyclotomicCoset(2, n, 0, 1), CyclotomicCoset(2, n, 1, 61)))
    with pytest.raises(CapacityError, match="oracle cap"):
        part.leader_map()
    cap = CosetPartition(2, ORACLE_CAP + 1, (CyclotomicCoset(2, ORACLE_CAP + 1, 0, 1),))
    with pytest.raises(CapacityError, match="oracle cap"):
        cap.leader_map()


def _grid(seed, count):
    """Seeded (q, n): q a prime power <= 49, n < 3000, q coprime to n."""
    rng = random.Random(seed)
    qs = [q for q in range(2, 50) if len(factorize(q)) == 1]
    out = []
    while len(out) < count:
        q, n = rng.choice(qs), rng.randrange(1, 3000)
        if math.gcd(q, n) == 1:
            out.append((q, n))
    return out


def test_leaders_match_the_orbit_walk_on_every_path(monkeypatch):
    # the walk stays the reference: every structured rep, then random reps
    # claiming their true length, twice or half of it, 0, 3.0 and [3]
    scan_group, orbit_leader = orbits._scan_group, orbits._orbit_leader
    calls = Counter()

    def counted_scan(q, n, m, c, reps, factors):
        calls["scanned"] += len(reps)
        return scan_group(q, n, m, c, reps, factors)

    def counted_walk(*args):
        calls["walks"] += 1
        return orbit_leader(*args)

    rng = random.Random(19)
    for q, n in _grid(19, 300):
        pairs = _enumerate_pairs(q, n)
        for _ in range(6):
            x = rng.randrange(n)
            size = size_of(q, n, x)
            pairs.append((x, rng.choice([size, 2 * size, size // 2, 0, 3.0, [3]])))
        expected = [orbit_leader(q, n, r, c) for r, c in pairs]
        with monkeypatch.context() as patch:
            patch.setattr(orbits, "_scan_group", counted_scan)
            patch.setattr(orbits, "_orbit_leader", counted_walk)
            assert orbits._leaders(q, n, pairs) == expected, (q, n)
    assert calls["scanned"] > 1_000 and calls["walks"] > 1_000, calls


def test_leaders_of_long_orbits_match_the_walk_quickly():
    # two to sixteen reps per m with orbits of up to 4,294,422 elements:
    # each group is one label scan up to its largest leader. Marking
    # <q> mod m in an m-bit bitmap took about 1.5 s for the four inputs
    # together, the scan about 5 ms (CPython 3.11, shared 2-vCPU machine)
    cases = [(3, 8991413), (7, 5243057), (11, 7298530), (7, 2**23)]
    cases = [(q, n, _enumerate_pairs(q, n)) for q, n in cases]
    for q, n, pairs in cases:
        expected = [_orbit_leader(q, n, r, c) for r, c in pairs]
        assert orbits._leaders(q, n, pairs) == expected, (q, n)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for q, n, pairs in cases:
            orbits._leaders(q, n, pairs)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.05, best


def test_leader_map_is_the_map_of_coset_leaders():
    for q, n in _grid(20, 150):
        parts = [enumerate_cosets(q, n), enumerate_naive(q, n, materialize=True)]
        # stored elements on every other coset of the structured partition
        mixed = [coset_of(q, n, c.rep) if i % 2 else c for i, c in enumerate(parts[0].cosets)]
        parts.append(CosetPartition(q, n, tuple(mixed)))
        for part in parts:
            assert part.leader_map() == {c.leader(): c.size for c in part.cosets}, (q, n)


def test_orbit_sweep_walks_starts_first():
    # mod 16 under 5: {0} {1,5,9,13} {2,10} {3,7,11,15} {4} {6,14} {8} {12}
    reps, sizes = _orbit_sweep(5, 16, [7, 3, 10])
    # 3 lies in the orbit 7 walked, so it takes 0 steps; the orbits no
    # start reached follow from their least residues
    assert reps == [7, 3, 10, 0, 1, 4, 6, 8, 12]
    assert sizes == [4, 0, 2, 1, 4, 1, 2, 1, 1]
    assert _orbit_sweep(5, 16) == ([0, 1, 2, 3, 4, 6, 8, 12], [1, 4, 2, 4, 1, 2, 1, 1])


def test_enumerate_naive_cap():
    with pytest.raises(CapacityError):
        enumerate_naive(2, 101, cap=100)
    enumerate_naive(2, 101, cap=101)


def test_project_golden():
    c = coset_of(5, 3888, 16)
    assert project(c, 16) == coset_of(5, 16, 0)

    c = coset_of(5, 48, 16)
    assert project(c, 16) == coset_of(5, 16, 0)

    c = coset_of(5, 16, 3)
    assert project(c, 16) == c


def test_project_errors():
    with pytest.raises(ValueError):
        project(coset_of(5, 16, 1), 5)


def test_project_functorial():
    rng = random.Random(9)
    for _ in range(100):
        n2 = rng.randrange(1, 40)
        n1 = n2 * rng.randrange(1, 20)
        n = n1 * rng.randrange(1, 20)
        q = rng.randrange(2, 30)
        if math.gcd(q, n) != 1:
            continue
        c = coset_of(q, n, rng.randrange(0, n))
        assert project(project(c, n1), n2) == project(c, n2)


def test_coset_is_frozen_and_pickles():
    c = coset_of(5, 16, 1)
    bare = CyclotomicCoset(5, 16, 1, 4)
    for clone in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c), copy.copy(c)):
        assert clone == c and clone.elements == c.elements
    assert c == bare and hash(c) == hash(bare)  # elements take no part
    assert hash(bare) == hash((5, 16, 1, 4))
    assert repr(bare) == "CyclotomicCoset(q=5, n=16, rep=1, size=4)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.rep = 3
    assert dataclasses.replace(bare, rep=3) == CyclotomicCoset(5, 16, 3, 4)
    assert dataclasses.replace(c, rep=3).elements == c.elements
    assert not hasattr(c, "__dict__")  # slots: no per-instance dict

    # the hand-written __init__ takes the fields as the generated one would
    assert bare.elements is None
    kw = CyclotomicCoset(q=5, n=16, rep=1, size=4, elements=(1, 5, 9, 13))
    positional = CyclotomicCoset(5, 16, 1, 4, (1, 5, 9, 13))
    for built in (kw, positional):
        assert built == c and built.elements == (1, 5, 9, 13)
        assert pickle.loads(pickle.dumps(built)).elements == (1, 5, 9, 13)
    params = inspect.signature(CyclotomicCoset).parameters
    names = [f.name for f in dataclasses.fields(CyclotomicCoset)]
    assert list(params) == names == ["q", "n", "rep", "size", "elements"]
    assert [p.default for p in params.values()] == [inspect.Parameter.empty] * 4 + [None]
    assert CyclotomicCoset.__match_args__ == tuple(names)
    match bare:
        case CyclotomicCoset(q, n, rep, size, elements):
            assert (q, n, rep, size, elements) == (5, 16, 1, 4, None)
        case _:
            pytest.fail("positional class pattern did not match")


def test_enumerated_cosets_are_bare_pairs():
    rng = random.Random(17)
    for _ in range(150):
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49])
        n = rng.randrange(1, 3000)
        if math.gcd(q, n) != 1:
            continue
        cosets = enumerate_cosets(q, n).cosets
        assert cosets == tuple(CyclotomicCoset(q, n, r, s) for r, s in _enumerate_pairs(q, n))
        assert all(c.elements is None for c in cosets)


def test_orbit_walks_past_the_oracle_cap_fail_fast():
    # the orbit of 1 mod 2**60 under 3 has 2**58 elements; the structured
    # path is fast, but nothing may try to walk that orbit
    n = 2**60
    part = enumerate_cosets(3, n)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        coset_of(3, n, 1)
    with pytest.raises(CapacityError):
        part.leader_map()
    with pytest.raises(CapacityError):
        CyclotomicCoset(3, n, 5, 2**58).materialize()
    with pytest.raises(CapacityError):
        part.validate()  # a visited byte per residue is 2**60 bytes
    assert time.perf_counter() - t0 < 1.0
    # short orbits above the cap are still walked
    assert coset_of(3, n, 0).elements == (0,)
    c = coset_of(2, 2**61 - 1, 1)
    assert c.size == 61 and c.leader() == 1
