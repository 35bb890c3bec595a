"""Output checks. Each returns a list of failure messages, empty when correct."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from .census import orbit_size, size_census
from .workloads import Case

SIZE_SAMPLES = 4


def check_partition(case: Case, pairs: list[tuple[int, int]], rng: random.Random) -> list[str]:
    """Hold (rep, size) pairs against the census, the total and the size formula.

    Catches a dropped, duplicated or resized coset and an unsorted
    listing. The sampled sizes use the size_of formula (the order of q
    modulo n / gcd(n, rep)) from the benchmark's own arithmetic.
    """
    q, n, factors = case.q, case.n, case.factor_map
    errors = []
    census = size_census(q, factors)
    expected = sum(census.values())
    if len(pairs) != expected:
        errors.append(f"q={q} n={n}: {len(pairs)} cosets, census says {expected}")
    if Counter(size for _, size in pairs) != Counter(census):
        errors.append(f"q={q} n={n}: coset sizes differ from the census")
    total = sum(size for _, size in pairs)
    if total != n:
        errors.append(f"q={q} n={n}: sizes sum to {total}")
    reps = [rep for rep, _ in pairs]
    if any(a >= b for a, b in zip(reps, reps[1:])) or (reps and not 0 <= reps[0] <= reps[-1] < n):
        errors.append(f"q={q} n={n}: representatives not strictly ascending in [0, n)")
    for rep, size in rng.sample(pairs, min(SIZE_SAMPLES, len(pairs))):
        true = orbit_size(q, n, factors, rep)
        if true != size:
            errors.append(f"q={q} n={n}: coset of {rep} has size {true}, listed as {size}")
    return errors


def check_verify(case: Case, match: bool, coset_count: int) -> list[str]:
    errors = []
    if not match:
        errors.append(f"q={case.q} n={case.n}: verify reports a mismatch")
    expected = sum(size_census(case.q, case.factor_map).values())
    if coset_count != expected:
        errors.append(f"q={case.q} n={case.n}: verify counted {coset_count} cosets, census says {expected}")
    return errors


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_cli(label: str, returncode: int | None, stdout: bytes, expected_digest: str) -> list[str]:
    """A CLI run must exit 0 and print bytes identical to the recorded output."""
    if returncode is None:
        return [f"{label}: timed out"]
    if returncode != 0:
        return [f"{label}: exit code {returncode}"]
    got = digest(stdout)
    if got != expected_digest:
        return [f"{label}: output digest {got[:12]} differs from the recorded {expected_digest[:12]}"]
    return []
