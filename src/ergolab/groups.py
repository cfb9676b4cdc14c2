"""Finite groups, verified homomorphisms, and exact measures on them.

Elements of a group of order n are the indices 0..n-1; the identity need not
be index 0 (explicit tables may place it anywhere). A measure is held as
integer numerators over one common denominator, in lowest terms; `measure`
builds one from exact weights (`int`, `fractions.Fraction` or "p/q"), and
Fractions are made only when a caller reads `DenseMeasure.weights`.
Invariance, convolution and independence checks run on the integers, so they
are exact. The only maps are verified homomorphisms (`GroupHom`): invariance
takes an endomorphism, and orbits an automorphism.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import cache, cached_property
from itertools import permutations, product
from typing import Optional, Sequence

import numpy as np

from .errors import (
    GroupMismatch,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    NotBijective,
    NotHomomorphism,
)
from .exact import exact_vector, parse_ratio
from .record import Record


class FiniteGroup(Record):
    """A finite group given by its full multiplication table."""

    order: int
    op_table: tuple[tuple[int, ...], ...]
    identity: int
    inverse_table: tuple[int, ...]
    label: str = "G"

    def op(self, a: int, b: int) -> int:
        return self.op_table[a][b]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != self.identity:
            x = self.op(x, a)
            n += 1
        return n

    @cached_property
    def np_op(self) -> np.ndarray:
        """Multiplication table as a read-only array (groups are shared), for vectorized paths."""
        table = np.array(self.op_table, dtype=np.int64)
        table.flags.writeable = False
        return table

    @cached_property
    def np_quotient(self) -> np.ndarray:
        """Left quotients as a read-only array: [h, z] holds h^-1 z."""
        table = self.np_op[list(self.inverse_table)]
        table.flags.writeable = False
        return table

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def _validate_table(table: Sequence[Sequence[int]], label: str) -> FiniteGroup:
    n = len(table)
    rows = tuple(tuple(operator.index(v) for v in row) for row in table)
    for row in rows:
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise ValueError(f"{label}: table is not {n}x{n} over 0..{n - 1}")

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise MissingIdentity(f"{label}: no two-sided identity")

    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if rows[a][b] == identity and rows[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise MissingInverse(f"{label}: element {a} has no two-sided inverse")

    group = FiniteGroup(n, rows, identity, tuple(inverse), label)
    # Light's test (Clifford & Preston 1961): the b with (ab)c = a(bc) for all
    # a, c are closed under products, so checking a generating set suffices
    table = group.np_op
    for b in _spanning_words(group)[0]:
        bad = np.argwhere(table[table[:, b]] != table[:, table[b]])
        if len(bad):
            a, c = bad[0].tolist()
            raise NonAssociative(f"{label}: ({a}*{b})*{c} != {a}*({b}*{c})")
    return group


@cache
def cyclic(n: int) -> FiniteGroup:
    """Z/nZ with addition mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return _validate_table(table, f"C{n}")


@cache
def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) has index a*|H| + b."""
    n, m = g.order, h.order
    table = [
        [g.op(a1, a2) * m + h.op(b1, b2) for a2 in range(n) for b2 in range(m)]
        for a1 in range(n)
        for b1 in range(m)
    ]
    return _validate_table(table, f"{g.label}x{h.label}")


@cache
def symmetric(n: int) -> FiniteGroup:
    """S_n on 0..n-1, elements in lexicographic order; capped at n <= 4."""
    if not 1 <= n <= 4:
        raise ValueError("symmetric group supported for 1 <= n <= 4")
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    # op(p, q) applies q first, then p
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in elems] for p in elems
    ]
    return _validate_table(table, f"S{n}")


@cache
def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon); capped at n <= 8."""
    if not 2 <= n <= 8:
        raise ValueError("dihedral group supported for 2 <= n <= 8")

    # encode the rotation r^k as k and the reflection f r^k as n + k;
    # the relation r f = f r^-1 gives the four coset products below
    def mul(x, y):
        kx, fx = x % n, x // n
        ky, fy = y % n, y // n
        if fx == 0 and fy == 0:
            return (kx + ky) % n
        if fx == 0 and fy == 1:
            return n + (ky - kx) % n
        if fx == 1 and fy == 0:
            return n + (kx + ky) % n
        return (ky - kx) % n

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    return _validate_table(table, f"D{n}")


def explicit_group(table: Sequence[Sequence[int]], label: str = "G") -> FiniteGroup:
    """Build and fully validate a group from an explicit multiplication table."""
    return _validate_table(table, label)


class GroupHom(Record):
    """A verified homomorphism between finite groups, stored as an image table."""

    source: FiniteGroup
    target: FiniteGroup
    table: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.table[a]

    @cached_property
    def image(self) -> frozenset[int]:
        return frozenset(self.table)

    @cached_property
    def surjective(self) -> bool:
        return len(self.image) == self.target.order

    @cached_property
    def bijective(self) -> bool:
        return self.source.order == self.target.order and self.surjective

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """The orbits of a bijective self-map, in order of their least element."""
        if not self.bijective:
            raise NotBijective("orbit decomposition needs a bijective map")
        seen = [False] * self.source.order
        orbits = []
        for x in self.source.elements():
            if seen[x]:
                continue
            orbit = []
            y = x
            while not seen[y]:
                seen[y] = True
                orbit.append(y)
                y = self.table[y]
            orbits.append(tuple(orbit))
        return tuple(orbits)

    def __repr__(self) -> str:
        return f"GroupHom({self.source.label}->{self.target.label})"


def make_hom(source: FiniteGroup, target: FiniteGroup, table: Sequence[int]) -> GroupHom:
    """Verify the homomorphism law on every pair and return the hom."""
    tab = tuple(operator.index(v) for v in table)
    if len(tab) != source.order or any(not (0 <= v < target.order) for v in tab):
        raise ValueError("hom table must map every source element into the target")
    for a in range(source.order):
        for b in range(source.order):
            if tab[source.op(a, b)] != target.op(tab[a], tab[b]):
                raise NotHomomorphism(f"law fails at pair ({a}, {b})")
    return GroupHom(source, target, tab)


def identity_hom(g: FiniteGroup) -> GroupHom:
    return make_hom(g, g, tuple(g.elements()))


def _spanning_words(g: FiniteGroup) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Greedy generators and a word for each element, from one breadth-first search.

    The least element not yet reached becomes the next generator, and every
    reached element is multiplied on the right by each generator once. Each
    element but the identity is listed once, after its parent, as
    (element, parent, k) with element = parent * gens[k].
    """
    gens: list[int] = []
    words: list[tuple[int, int, int]] = []
    reached = [False] * g.order
    reached[g.identity] = True
    order, met = [g.identity], [0]  # reached elements, and how many generators each has met
    for x in g.elements():
        if reached[x]:
            continue
        gens.append(x)
        i = 0
        while i < len(order):
            y = order[i]
            for k in range(met[i], len(gens)):
                z = g.op(y, gens[k])
                if not reached[z]:
                    reached[z] = True
                    order.append(z)
                    met.append(0)
                    words.append((z, y, k))
            met[i] = len(gens)
            i += 1
    return gens, words


def automorphisms(g: FiniteGroup) -> list[GroupHom]:
    """All automorphisms, by backtracking over generator images (small orders)."""
    gens, words = _spanning_words(g)
    orders = [g.element_order(y) for y in g.elements()]
    candidates = [[y for y in g.elements() if orders[y] == orders[x]] for x in gens]
    result = []
    for images in product(*candidates):
        table = [g.identity] * g.order
        for z, y, k in words:
            table[z] = g.op(table[y], images[k])
        if len(set(table)) == g.order and all(
            table[g.op(a, b)] == g.op(table[a], table[b])
            for a in g.elements()
            for b in g.elements()
        ):
            result.append(GroupHom(g, g, tuple(table)))
    return result


def _check_endomorphism(mu_group: FiniteGroup, t: GroupHom) -> None:
    if t.source != mu_group or t.source != t.target:
        raise GroupMismatch("need an endomorphism of the measure's group")


class DenseMeasure(Record):
    """An exact probability vector over a finite group: nums[x] / den at element x.

    The numerators are nonnegative ints summing to den, and are stored in
    lowest terms, so equal measures are equal records with equal hashes.
    """

    group: FiniteGroup
    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        nums, den = self.nums, self.den
        if len(nums) != self.group.order:
            raise ValueError("one weight per group element required")
        if den < 1 or min(nums) < 0 or sum(nums) != den:
            raise ValueError("numerators must be nonnegative and sum to the denominator")
        common = math.gcd(*nums)  # it divides their sum, den
        if common > 1:
            object.__setattr__(self, "nums", tuple(n // common for n in nums))
            object.__setattr__(self, "den", den // common)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """The weights as Fractions, made on first read."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __call__(self, g: int) -> Fraction:
        return Fraction(self.nums[g], self.den)

    def __repr__(self) -> str:
        return f"DenseMeasure({self.group.label}, {[str(w) for w in self.weights]})"


def measure(group: FiniteGroup, weights) -> DenseMeasure:
    """The measure with the given exact weights, checked by `exact_vector`."""
    weights = tuple(parse_ratio(w) for w in weights)
    if len(weights) != group.order:
        raise ValueError("one weight per group element required")
    return DenseMeasure(group, *exact_vector(weights))


def haar(group: FiniteGroup) -> DenseMeasure:
    return DenseMeasure(group, (1,) * group.order, group.order)


def convolve(mu: DenseMeasure, nu: DenseMeasure) -> DenseMeasure:
    """(mu*nu)(g) = sum_h mu(h) nu(h^-1 g): the image of mu x nu under (x,y) -> xy."""
    if mu.group != nu.group:
        raise GroupMismatch("convolution needs measures on the same group")
    den = mu.den * nu.den
    # every partial sum is at most den: int64 below 2^63, else Python ints
    dtype = np.int64 if den < 2**63 else object
    b = np.array(nu.nums, dtype)[mu.group.np_quotient]  # [h, g]: nu's numerator at h^-1 g
    return DenseMeasure(mu.group, tuple((np.array(mu.nums, dtype) @ b).tolist()), den)


def _fiber_nums(mu: DenseMeasure, t: GroupHom) -> list[int]:
    """The numerators of mu o T^-1 over mu's common denominator."""
    _check_endomorphism(mu.group, t)
    fibers = [0] * mu.group.order
    for x, n in enumerate(mu.nums):
        fibers[t(x)] += n
    return fibers


def is_invariant(mu: DenseMeasure, t: GroupHom) -> bool:
    return _fiber_nums(mu, t) == list(mu.nums)


class IndependenceReport(Record):
    independent: bool
    witness: Optional[tuple[frozenset[int], frozenset[int]]] = None


def independence_check(mu: DenseMeasure) -> IndependenceReport:
    """Test independence of the first-coordinate and product-map algebras.

    On G x G carrying (uniform) x mu, the events {(x, y): x in E} and
    {(x, y): xy in F} are independent for every E, F exactly when mu is the
    uniform measure. Their joint mass, (1/n) sum_{x in E, f in F} mu(x^-1 f),
    and their product mass, |E| |F| / n^2, are both additive over disjoint
    unions of E and of F, so every subset pair is independent exactly when
    every singleton pair is. The witness is the first failing singleton pair
    in (x, f) order; it is ({0}, {f}) for every non-uniform mu.
    """
    g = mu.group
    n, den = g.order, mu.den
    # with mu = a / den, ({x}, {f}) is independent <=> n * a[x^-1 f] == den; the
    # left side is at most n * den: int64 below 2^63, else Python ints
    dtype = np.int64 if n * den < 2**63 else object
    fails = np.argwhere(n * np.array(mu.nums, dtype)[g.np_quotient] != den)  # in (x, f) order
    if len(fails):
        x, f = fails[0].tolist()
        return IndependenceReport(False, (frozenset([x]), frozenset([f])))
    return IndependenceReport(True)


def _orbits(group: FiniteGroup, t: GroupHom) -> tuple[tuple[int, ...], ...]:
    """The orbits of an automorphism of the group, in order of their least element."""
    _check_endomorphism(group, t)
    return t.orbits


def random_measure(
    group: FiniteGroup, rng: random.Random, max_weight: int = 20
) -> DenseMeasure:
    """Random strictly positive rational measure (for randomized exact tests)."""
    raw = tuple(rng.randint(1, max_weight) for _ in group.elements())
    return DenseMeasure(group, raw, sum(raw))


def random_invariant_measure(
    group: FiniteGroup, t: GroupHom, rng: random.Random, max_weight: int = 20
) -> DenseMeasure:
    """Random measure constant on the orbits of an automorphism, hence invariant."""
    nums = [0] * group.order
    for orbit in _orbits(group, t):
        r = rng.randint(1, max_weight)
        for x in orbit:
            nums[x] = r
    return DenseMeasure(group, tuple(nums), sum(nums))
