import copy
import dataclasses
import inspect
import math
import pickle
import random
import re
import time

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
from cycloset.cosets import _orbit_sweep
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
