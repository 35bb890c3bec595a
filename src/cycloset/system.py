"""Splitting structure of coset towers Z/nZ -> Z/ell*nZ -> Z/ell^2*nZ -> ...

A coset modulo m does one of three things when the modulus is extended
to ell*m: it semi-splits (one child keeps its size, the rest grow by the
order of q**tau mod ell), splits into ell children of equal size, or
stays a single coset of ell-fold size. Chasing these one-step behaviors
through a whole ell-power tower is done in closed form: every branch
over a base coset is indexed by the digit position m where it leaves the
principal digit stream of -gamma/n, a substituted digit at that position,
and a short tail of free digits. `_depth_slice` is the one expansion of
these branch families into cosets; `enumerate_branch` labels what it
emits with (m, digit, tail) and the closed-form sizes at every depth.

The paper's valuation rule for the three kinds is stated once, in the
branch plan (`_base_params`, `_stable_size`). `classify` shares no
formula with it: it reads the kind off the definition, from whether
q**tau is 1 mod ell and whether the orbit of gamma mod ell*m closes
after tau steps.

Only a multiple of ell**k, k = v_ell(m), can semi-split modulo m: the
orbit of gamma closes after tau steps, so m divides (q**tau - 1) * gamma,
and q**tau not 1 mod ell leaves all of ell**k to divide gamma. Such a
coset is ell**k times a coset over the ell-free m / ell**k, which is a
base coset of the branch plan; its children are read from that plan.
Down one tower over an ell-free n, every such m / ell**k is n itself,
so the depth-1 plans keyed by tau alone serve every level: one plans
dict serves a whole splitting tree, one transversal per distinct tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import NamedTuple

from .arith import (
    check_capacity,
    check_power,
    digits_value,
    is_prime,
    lte_two,
    mul_order,
    phi_digits,
    val,
    val_pow_minus_one,
)
from .cosets import CyclotomicCoset, size_of


class SplitKind(Enum):
    """One-step behavior of a coset under modulus extension by ell."""

    SEMI_SPLITTING = "semi-splitting"
    SPLITTING = "splitting"
    STABLE = "stable"


class Regime(Enum):
    """Which closed-form branch description applies over a base coset.

    Decided once per base coset from ell and q**tau: odd ell with
    q**tau not 1 mod ell (semi-splitting), odd ell with q**tau = 1
    mod ell (splitting), or ell = 2 split by q**tau mod 4. Sizes and
    degrees are read from (o, v, lift) alone; the regime only chooses
    the transversal and `lift`, and labels each descriptor.
    """

    SEMI_SPLITTING = "semi-splitting"
    SPLITTING = "splitting"
    TWO_ADIC_ONE = "2-adic, q**tau = 1 mod 4"
    TWO_ADIC_THREE = "2-adic, q**tau = 3 mod 4"


PRINCIPAL = "principal"
STABLE = "stable"


def _check_inputs(ell: int, q: int, m: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if math.gcd(ell, q) != 1:
        raise ValueError("ell must not divide q")
    if m < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(q, m) != 1:
        raise ValueError(f"gcd(q={q}, m={m}) must be 1")


def _check_tower(ell: int, q: int, n: int, f: int) -> None:
    # arguments of a depth-f tower over an ell-free base modulus n
    if f < 0:
        raise ValueError("depth must be nonnegative")
    _check_inputs(ell, q, n)
    if n % ell == 0:
        raise ValueError("base modulus must be coprime to ell")
    check_power(ell, f, n, "modulus ell**f * n")


def classify(ell: int, q: int, m: int, gamma: int) -> SplitKind:
    """One-step behavior of the coset of gamma mod m under extension by ell.

    The paper's theorem: semi-splitting iff ell is odd and does not
    divide q**tau - 1 (tau the coset's size); else splitting iff
    v_ell(gamma) + v_ell(q**tau - 1) exceeds v_ell(m), with gamma = 0
    counting as infinitely divisible; else stable. The branch plan
    (`_base_params`, `_stable_size`) carries that valuation rule. Here
    the kind is decided from the definition instead, by one power
    b = q**tau mod ell*m: semi-splitting iff ell is odd and b is not 1
    mod ell, else splitting iff the orbit of gamma mod ell*m closes
    after tau steps, that is ell*m divides gamma * (b - 1).
    """
    _check_inputs(ell, q, m)
    return _classify_with_tau(ell, q, m, gamma, size_of(q, m, gamma))


def _classify_with_tau(ell, q, m, gamma, tau):
    gamma %= m
    b = pow(q, tau, ell * m)
    if ell != 2 and b % ell != 1:
        return SplitKind.SEMI_SPLITTING
    if gamma * (b - 1) % (ell * m) == 0:
        return SplitKind.SPLITTING
    return SplitKind.STABLE


def lift_representative(ell: int, m: int, gamma: int) -> int:
    """The lift gamma0 = gamma (mod m) in [0, ell*m) with v_ell(gamma0) > v_ell(m).

    With m = ell**k * m', a lift exists iff ell**k divides gamma, and its
    digit is the first ell-adic digit of -(gamma/ell**k)/m'; gamma = 0
    lifts to 0. Raises when no lift gains enough valuation.
    """
    _check_inputs(ell, 1, m)
    check_capacity(ell * m)
    gamma %= m
    k = val(ell, m)
    step = ell**k
    if gamma % step:
        raise ValueError(f"no lift of {gamma} mod {m} reaches ell-valuation {k + 1}")
    return gamma + m * phi_digits(ell, m // step, gamma // step, 1)[0]


def transversal_R(ell: int, q: int, tau: int) -> list[int]:
    """Smallest positive class representatives of (Z/ell)* mod <q**tau>.

    Ascending; has (ell-1)/ord_ell(q**tau) entries. Requires that ell
    not divide q**tau - 1, so the subgroup is nontrivial.
    """
    _check_inputs(ell, q, 1)
    if tau < 1:
        raise ValueError("tau must be positive")
    b = pow(q, tau, ell)
    if b == 1:
        raise ValueError("ell divides q**tau - 1; no transversal in this regime")
    covered = bytearray(ell)
    reps = []
    for d in range(1, ell):
        if not covered[d]:
            reps.append(d)
            x = d
            while not covered[x]:
                covered[x] = 1
                x = x * b % ell
    return reps


def digit_complement_S(ell: int, phi_digit: int) -> list[int]:
    """All digits in [0, ell) except the given one, ascending."""
    if not 0 <= phi_digit < ell:
        raise ValueError(f"digit {phi_digit} out of range [0, {ell})")
    return [u for u in range(ell) if u != phi_digit]


def preimage_decompose(ell: int, q: int, m: int, gamma: int) -> list[CyclotomicCoset]:
    """The cosets modulo ell*m lying over the coset of gamma mod m.

    Sizes are set from the one-step rules, never by orbit walks:
    semi-splitting gives one child of size tau plus one child of size
    ord_ell(q**tau)*tau per transversal class; splitting gives ell
    children of size tau; stable gives one child of size ell*tau.
    """
    _check_inputs(ell, q, m)
    check_capacity(ell * m)
    gamma %= m
    tau = size_of(q, m, gamma)
    kind = _classify_with_tau(ell, q, m, gamma, tau)
    pairs = _decompose_with_tau(ell, q, m, gamma, tau, kind, {})
    return [CyclotomicCoset(q, ell * m, rep, size) for rep, size in pairs]


def _decompose_with_tau(ell, q, m, gamma, tau, kind, plans):
    """(rep, size) of every coset mod ell*m over the coset of gamma mod m.

    gamma lies in [0, m), with size tau and one-step kind `kind`; the
    principal child comes first. A semi-splitting gamma is ell**k times a
    coset over the ell-free m / ell**k, k = v_ell(m), and its children
    come from the depth-1 plan for tau in `plans` over that modulus: a
    caller may share `plans` only across moduli with the same ell-free
    part, as down one tower, and a one-off caller passes an empty dict.
    """
    if kind is SplitKind.SEMI_SPLITTING:
        step = ell ** val(ell, m)
        *stable, principal = _depth_slice(ell, q, m // step, gamma // step, tau, 1, plans)
        return [(step * rep, size) for rep, size in [principal, *stable]]
    if kind is SplitKind.SPLITTING:
        return [(gamma + d * m, tau) for d in range(ell)]
    return [(gamma, ell * tau)]


@dataclass(frozen=True)
class GeneratingSeries:
    """A finite digit series marking where a branch leaves the principal stream.

    Agrees with the digits of -gamma/n below position `degree`, carries a
    substituted digit at position `degree`, and vanishes above it.
    """

    degree: int
    index: int
    digits: tuple[int, ...]
    ell: int

    @property
    def value(self) -> int:
        return digits_value(self.ell, self.digits)


def generating_series(ell: int, q: int, n: int, gamma: int, m: int) -> list[GeneratingSeries]:
    """All degree-m generating series over the coset of gamma mod n.

    Semi-splitting regime: one series per transversal class, the digit at
    position m shifted by the class representative. Otherwise: one series
    per digit in the complement of the principal digit (a single flip
    when ell = 2). The substitutes depend on tau alone, so a depth-1 plan
    gives them; with the m + 1 digits of -gamma/n the cost is O(m).
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    _check_tower(ell, q, n, m + 1)
    gamma %= n
    plan = _branch_plan(ell, q, n, size_of(q, n, gamma), 1)
    *prefix, digit = phi_digits(ell, n, gamma, m + 1)
    return [
        GeneratingSeries(m, i, (*prefix, u), ell)
        for i, u in enumerate(plan.substitutes(digit), 1)
    ]


@dataclass(frozen=True)
class BranchDescriptor:
    """One branch over a base coset, truncated at a requested depth.

    The principal branch follows the digits of -gamma/n forever and
    keeps the base size tau at every depth. A stable branch leaves that
    digit stream at position m (quasi-stable degree m+1), optionally
    carries a tail `t` of free digits while it keeps splitting, and from
    the stable degree `s` on grows by a factor ell per depth.
    """

    ell: int
    q: int
    n: int
    gamma: int
    tau: int
    regime: Regime
    order_factor: int
    v: int
    kind: str
    m: int | None
    index: int | None
    digit: int | None
    t: tuple[int, ...]
    qs: float
    s: float
    components: tuple[tuple[int, int, int], ...]


def degrees(descriptor: BranchDescriptor) -> tuple[float, float]:
    """(quasi-stable degree, stable degree); both infinite for the principal."""
    return descriptor.qs, descriptor.s


def _base_params(ell, q, tau):
    # regime, order factor o = ord_ell(q**tau), and the valuation v
    # steering tail lengths
    if ell == 2:
        if pow(q, tau, 4) == 1:
            return Regime.TWO_ADIC_ONE, 1, lte_two(q, tau)[0]
        return Regime.TWO_ADIC_THREE, 1, lte_two(q, tau)[1]
    o = mul_order(pow(q, tau, ell), ell)
    regime = Regime.SPLITTING if o == 1 else Regime.SEMI_SPLITTING
    return regime, o, val_pow_minus_one(ell, q, tau * o)


def _stable_size(ell, tau, o, v, lift, m, N):
    # every regime: a family departing at digit m keeps size tau below
    # depth m + lift, is o * ell**(lift - 1) * tau from there, and gains a
    # factor ell per depth once N - m - v passes lift - 1
    if N < m + lift:
        return tau
    return ell ** max(lift - 1, N - m - v) * o * tau


class _Step(NamedTuple):
    # one departure position m of a branch plan: the families departing
    # at m are one per substituted digit and tail, in the order
    # `_depth_slice` emits them (digit-major, tails lexicographic)
    power: int  # ell**m
    size: int  # depth-f size of every family departing at m
    tails: list[tuple[int, ...]]  # tail digits t, starting `lift` positions above m
    offsets: list[int]  # n * (value of t in the digit series), in the same order


class _BranchPlan(NamedTuple):
    """Everything about the depth-f branches over a base coset of size tau
    that does not depend on the base representative gamma.

    It is a function of (ell, q, n, tau, f) alone: the regime, the order
    factor o, the valuation v, the lag `lift` (2 in the 2-adic q**tau = 3
    mod 4 regime, else 1) from a departure to its first growth and to its
    tail, the transversal shifts (semi-splitting only), n**-1 mod ell for
    the digit recurrence of -gamma/n, and one `_Step` per departure
    position m < f. A base coset enters only through its digits, which
    pick the substituted digits at each m.
    """

    ell: int
    regime: Regime
    o: int
    v: int
    lift: int
    shifts: list[int] | None
    ninv: int
    steps: tuple[_Step, ...]

    def substitutes(self, digit: int) -> list[int]:
        """Digits a stable family takes where the principal digit is `digit`."""
        if self.shifts is None:
            return digit_complement_S(self.ell, digit)
        return [(digit + d) % self.ell for d in self.shifts]


def _branch_plan(ell, q, n, tau, f):
    """The one statement of the branch rules: substitutions, tails and sizes.

    Tails hold the free digits that still matter at depth f, starting
    `lift` positions above m, so distinct families give distinct cosets
    modulo ell**f * n. Each tail's offset is read from its digits once,
    here, with n folded into the base; `_depth_slice` adds the offsets
    and `enumerate_branch` reads the digits.
    """
    regime, o, v = _base_params(ell, q, tau)
    shifts = transversal_R(ell, q, tau) if f and regime is Regime.SEMI_SPLITTING else None
    lift = 2 if regime is Regime.TWO_ADIC_THREE else 1
    steps = []
    for m in range(f):
        power = ell**m
        t_len = min(v - 1, max(0, f - m - lift))
        tails = list(product(range(ell), repeat=t_len))
        tail_base = n * power * ell**lift
        size = _stable_size(ell, tau, o, v, lift, m, f)
        steps.append(_Step(power, size, tails, [tail_base * digits_value(ell, t) for t in tails]))
    return _BranchPlan(ell, regime, o, v, lift, shifts, pow(n, -1, ell), tuple(steps))


def _depth_slice(ell, q, n, gamma, tau, f, plans):
    """(rep, size) of every depth-f coset over the orbit of gamma mod n.

    The one expansion of the branch families, in two parts. The plan for
    base size tau comes from `plans`, a dict keyed by tau that the caller
    shares across the base cosets of one lift (a one-off caller passes an
    empty dict); it is built on first use.
    The expansion then walks only the digits of -gamma/n (gamma in
    [0, n), ell already checked prime), emitting per departure position m
    one block of tail offsets per substituted digit, and the principal
    coset last. Every value lies below ell**f * n, so nothing is reduced.
    `enumerate_branch` labels this output in the same order, and
    `_decompose_with_tau` puts its principal coset first.
    The digit recurrence of -gamma/n stays inline on purpose: it runs
    once per base coset, in the lift's inner loop, where `phi_digits`
    would check that ell is prime on every call.
    """
    plan = plans.get(tau)
    if plan is None:
        plan = plans[tau] = _branch_plan(ell, q, n, tau, f)
    ninv = plan.ninv
    out = []
    a = gamma
    head = gamma  # gamma + n * (principal digits below m)
    for power, size, _tails, offsets in plan.steps:
        d = -a * ninv % ell
        a = (a + n * d) // ell
        stride = n * power
        out += [(head + u * stride + x, size) for u in plan.substitutes(d) for x in offsets]
        head += d * stride
    out.append((head, tau))
    return out


def enumerate_branch(ell: int, q: int, n: int, gamma: int, f: int) -> list[BranchDescriptor]:
    """Every branch over the coset of gamma mod n, down to depth f.

    Returns the principal descriptor first, then the stable descriptors
    ordered by departure position m, substitution index, and tail digits
    (lexicographic). The depth-f components of all descriptors together
    partition the preimage of the base coset modulo ell**f * n: they are
    the cosets of `_depth_slice`, labelled in the order it emits them.
    """
    _check_tower(ell, q, n, f)
    gamma %= n
    tau = size_of(q, n, gamma)
    plan = _branch_plan(ell, q, n, tau, f)
    *stable, (principal, _tau) = _depth_slice(ell, q, n, gamma, tau, f, {tau: plan})
    regime, o, v, lift = plan.regime, plan.o, plan.v, plan.lift

    def comps(rep, size_at):
        # rep = gamma + n * (digit series) with gamma < n, so its depth-N
        # component is rep mod ell**N * n
        return tuple((N, rep % (ell**N * n), size_at(N)) for N in range(f + 1))

    out = [
        BranchDescriptor(
            ell, q, n, gamma, tau, regime, o, v,
            PRINCIPAL, None, None, None, (),
            math.inf, math.inf,
            comps(principal, lambda N: tau),
        )
    ]
    labels = (
        (m, i, u, t)
        for m, step in enumerate(plan.steps)
        for i, u in enumerate(plan.substitutes((principal - gamma) // (n * step.power) % ell), 1)
        for t in step.tails
    )
    s_offset = v + lift - 2
    for (m, i, u, t), (rep, _size) in zip(labels, stable, strict=True):
        out.append(
            BranchDescriptor(
                ell, q, n, gamma, tau, regime, o, v,
                STABLE, m, i, u, t,
                m + 1, m + 1 + s_offset,
                comps(rep, lambda N, m=m: _stable_size(ell, tau, o, v, lift, m, N)),
            )
        )
    return out


def component_size(descriptor: BranchDescriptor, N: int) -> int:
    """Closed-form size of the descriptor's coset at depth N."""
    if not 0 <= N <= descriptor.components[-1][0]:
        raise ValueError(f"depth {N} outside the descriptor's range")
    return descriptor.components[N][2]
