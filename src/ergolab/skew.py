"""Skew products over symbolic bases with finite-group fibers.

The map is T(x, g) = (Sx, sigma(g) * phi(x)) where S is the base shift,
sigma an automorphism of the fiber group, and phi a cocycle reading a
length-k window of the base point. Measures here are products of a base
shift measure with a fiber distribution; the Haar extension is the uniform
fiber case, point fibers freeze the fiber coordinate, and rational mixtures
of those realize the convexity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Optional, Sequence

from .entropy import EntropyEstimate, block_entropy
from .errors import (
    DepthLimitExceeded,
    NotAutomorphism,
    PhiIncomplete,
    SystemMismatch,
    UnsupportedBase,
)
from .exact import entropy_nats, neg_xlogx
from .groups import FiniteGroup, GroupHom, direct_product
from .shifts import (
    DEPTH_GUARD_STATES,
    Bernoulli,
    Markov,
    PeriodicOrbit,
    ProductMeasure,
    ShiftMeasure,
    ShiftSystem,
    Word,
    shift_space,
)

MAX_COCYCLE_WINDOW = 3


@dataclass(frozen=True)
class SkewSystem:
    """Base shift, fiber group, fiber automorphism, and window cocycle."""

    base: ShiftSystem
    fiber: FiniteGroup
    fiber_automorphism: GroupHom
    cocycle: tuple[tuple[Word, int], ...]  # sorted (window, fiber element) pairs
    window: int

    @cached_property
    def cocycle_map(self) -> dict[Word, int]:
        return dict(self.cocycle)

    def phi(self, window: Word) -> int:
        return self.cocycle_map[window]


def make_skew(
    base: ShiftSystem,
    fiber: FiniteGroup,
    sigma: GroupHom,
    phi: dict[Word, int],
) -> SkewSystem:
    """Validated construction: sigma bijective, phi total on length-k windows."""
    if sigma.source != fiber or sigma.target != fiber or not sigma.bijective:
        raise NotAutomorphism("fiber map must be an automorphism of the fiber group")
    if not phi:
        raise PhiIncomplete("empty cocycle")
    lengths = {len(w) for w in phi}
    if len(lengths) != 1:
        raise PhiIncomplete("cocycle windows have mixed lengths")
    k = lengths.pop()
    if not 1 <= k <= MAX_COCYCLE_WINDOW:
        raise ValueError(f"cocycle window must be 1..{MAX_COCYCLE_WINDOW}")
    n = base.alphabet.order
    missing = [w for w in product(range(n), repeat=k) if w not in phi]
    if missing:
        raise PhiIncomplete(f"cocycle missing {len(missing)} windows, e.g. {missing[0]}")
    for w, g in phi.items():
        if not 0 <= g < fiber.order:
            raise ValueError(f"cocycle value {g} outside the fiber group")
    cocycle = tuple(sorted((tuple(w), int(g)) for w, g in phi.items()))
    return SkewSystem(base, fiber, sigma, cocycle, k)


def first_symbol_cocycle(base: ShiftSystem, fiber: FiniteGroup) -> dict[Word, int]:
    """phi(w) = w0; requires the base alphabet to be the fiber group."""
    if base.alphabet.order != fiber.order:
        raise SystemMismatch("first-symbol cocycle needs matching alphabet and fiber")
    return {(s,): s for s in base.alphabet.elements()}


def constant_cocycle(base: ShiftSystem, fiber: FiniteGroup, value: int) -> dict[Word, int]:
    return {(s,): value for s in base.alphabet.elements()}


def commutes_with_fiber_translation(sys: SkewSystem) -> bool:
    """T(y.(x,g)) = sigma(y).T(x,g) for the fiber translation action, all pairs."""
    sig, fib = sys.fiber_automorphism, sys.fiber
    return all(
        sig(fib.op(y, g)) == fib.op(sig(y), sig(g))
        for y in fib.elements()
        for g in fib.elements()
    )


@dataclass(frozen=True)
class SkewMeasure:
    """base measure x fiber distribution on the skew phase space."""

    system: SkewSystem
    base_measure: ShiftMeasure
    fiber_weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.base_measure.system != self.system.base:
            raise SystemMismatch("base measure lives on a different system")
        if len(self.fiber_weights) != self.system.fiber.order:
            raise ValueError("one fiber weight per fiber element required")
        if any(w < 0 for w in self.fiber_weights) or sum(self.fiber_weights) != 1:
            raise ValueError("fiber weights must be an exact probability vector")

    @property
    def kind(self) -> str:
        n = self.system.fiber.order
        if all(w == Fraction(1, n) for w in self.fiber_weights):
            return "haar_fiber"
        if any(w == 1 for w in self.fiber_weights):
            return "point_fiber"
        return "fiber_mixture"

    def product_cylinder(self, word: Sequence[int], g: int) -> Fraction:
        """P([word] x {g})."""
        return self.base_measure.cylinder(tuple(word)) * self.fiber_weights[g]

    def projection_cylinder(self, word: Sequence[int]) -> Fraction:
        """P([word] x fiber) — the base projection."""
        return self.base_measure.cylinder(tuple(word))


def haar_extension(mu0: ShiftMeasure, sys: SkewSystem) -> SkewMeasure:
    """Lift of the base measure by the uniform fiber distribution."""
    if mu0.system != sys.base:
        raise SystemMismatch("base measure lives on a different system")
    n = sys.fiber.order
    return SkewMeasure(sys, mu0, (Fraction(1, n),) * n)


def _support_windows(sys: SkewSystem, mu0: ShiftMeasure) -> list[Word]:
    return [w for w, p in mu0.block_distribution(sys.window).items() if p > 0]


def point_fiber_measure(sys: SkewSystem, mu0: ShiftMeasure, g: int) -> SkewMeasure:
    """Frozen-fiber measure; only valid when sigma(g) phi(w) = g on the support."""
    fib, sig = sys.fiber, sys.fiber_automorphism
    for w in _support_windows(sys, mu0):
        if fib.op(sig(g), sys.phi(w)) != g:
            raise ValueError(
                f"point fiber {g} is not invariant: sigma(g) phi({w}) != g"
            )
    weights = tuple(Fraction(1 if x == g else 0) for x in fib.elements())
    return SkewMeasure(sys, mu0, weights)


def mix_skew(components: Sequence[tuple[Fraction, SkewMeasure]]) -> SkewMeasure:
    """Exact convex combination; components must share system and base measure."""
    if not components:
        raise ValueError("empty mixture")
    sys = components[0][1].system
    base = components[0][1].base_measure
    if any(m.system != sys or m.base_measure != base for _, m in components):
        raise SystemMismatch("skew mixture components must share system and base")
    if any(w < 0 for w, _ in components) or sum(w for w, _ in components) != 1:
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    n = sys.fiber.order
    weights = tuple(
        sum((w * m.fiber_weights[g] for w, m in components), Fraction(0))
        for g in range(n)
    )
    return SkewMeasure(sys, base, weights)


def is_skew_invariant(mu: SkewMeasure, depth: int) -> bool:
    """P(T^-1([w] x {g})) = P([w] x {g}) exactly, all windows up to the depth.

    The preimage fixes base positions 1..|w| and reads the cocycle from the
    length-k prefix, so it is a union over length-max(k, |w|+1) base words.
    """
    sys = mu.system
    g1, g2 = sys.base.alphabet, sys.fiber
    sig = sys.fiber_automorphism
    sig_inv = {sig(x): x for x in g2.elements()}
    k = sys.window
    for length in range(1, depth + 1):
        ext = max(k, length + 1)
        if g1.order**ext * g2.order > DEPTH_GUARD_STATES:
            raise DepthLimitExceeded("skew invariance check exceeds the state guard")
        for word in product(g1.elements(), repeat=length):
            for g in g2.elements():
                direct = mu.product_cylinder(word, g)
                pulled = Fraction(0)
                for first in g1.elements():
                    for tail in product(g1.elements(), repeat=ext - length - 1):
                        v = (first,) + word + tail
                        base_p = mu.base_measure.cylinder(v)
                        if base_p == 0:
                            continue
                        c = sys.phi(v[:k])
                        g_prev = sig_inv[g2.op(g, g2.inv(c))]
                        pulled += base_p * mu.fiber_weights[g_prev]
                if pulled != direct:
                    return False
    return True


def fiber_haar_convolve_cylinder(mu: SkewMeasure, word: Sequence[int], g: int) -> Fraction:
    """(m * mu)([word] x {g}) for m = Haar on the fiber acting by translation."""
    total = sum(
        (mu.product_cylinder(word, h) for h in mu.system.fiber.elements()), Fraction(0)
    )
    return total / mu.system.fiber.order


def haar_absorption_check(mu: SkewMeasure, mu0: ShiftMeasure, depth: int) -> bool:
    """m * mu equals the Haar extension of mu0 on all windows up to the depth."""
    sys = mu.system
    ext = haar_extension(mu0, sys)
    for length in range(1, depth + 1):
        for word in product(sys.base.alphabet.elements(), repeat=length):
            for g in sys.fiber.elements():
                if fiber_haar_convolve_cylinder(mu, word, g) != ext.product_cylinder(word, g):
                    return False
    return True


def invariant_measures_in_fiber(sys: SkewSystem, mu0: ShiftMeasure) -> list[SkewMeasure]:
    """Point-fiber candidates solving sigma(g) phi(w) = g on the support, plus Haar."""
    fib, sig = sys.fiber, sys.fiber_automorphism
    support = _support_windows(sys, mu0)
    found: list[SkewMeasure] = []
    for g in fib.elements():
        if all(fib.op(sig(g), sys.phi(w)) == g for w in support):
            found.append(point_fiber_measure(sys, mu0, g))
    found.append(haar_extension(mu0, sys))
    depth = min(sys.window + 2, 4)
    return [m for m in found if is_skew_invariant(m, depth)]


def _joint_block_distribution(mu: SkewMeasure, length: int) -> dict[Word, Fraction]:
    """Distribution of ((x_0,g_0)..(x_{L-1},g_{L-1})), pairs coded as x*|G2|+g."""
    sys = mu.system
    g1, g2 = sys.base.alphabet, sys.fiber
    sig = sys.fiber_automorphism
    k = sys.window
    need = length + k - 1
    if g1.order**need * g2.order > DEPTH_GUARD_STATES:
        raise DepthLimitExceeded("joint block enumeration exceeds the state guard")
    base_dist = mu.base_measure.block_distribution(need)
    dist: dict[Word, Fraction] = {}
    for v, base_p in base_dist.items():
        for g0, w0 in enumerate(mu.fiber_weights):
            if w0 == 0:
                continue
            g = g0
            key = []
            for t in range(length):
                key.append(v[t] * g2.order + g)
                g = g2.op(sig(g), sys.phi(v[t : t + k]))
            key_t = tuple(key)
            dist[key_t] = dist.get(key_t, Fraction(0)) + base_p * w0
    return dist


def _lifted_chain_rate(mu: SkewMeasure) -> float:
    """Closed-form rate of the lifted Markov chain on (window, fiber) states."""
    sys = mu.system
    base = mu.base_measure
    k = sys.window
    window_dist = base.block_distribution(k)
    if isinstance(base, Bernoulli):
        def next_row(u: Word):
            return base.marginal.weights
    elif isinstance(base, Markov):
        def next_row(u: Word):
            return base.transition[u[-1]]
    else:
        raise UnsupportedBase(f"no lifted chain for base kind {base.kind}")
    terms = []
    for u, pu in window_dist.items():
        if pu == 0:
            continue
        row_entropy = entropy_nats(next_row(u))
        for g, wg in enumerate(mu.fiber_weights):
            if wg == 0:
                continue
            terms.append(float(pu * wg) * row_entropy)
    return math.fsum(terms)


def skew_entropy(mu: SkewMeasure, L: int) -> EntropyEstimate:
    """Entropy of the joint (base symbol, fiber) process.

    Bernoulli and Markov bases get the exact lifted-chain rate; the block
    trail is computed either way and must descend to it.
    """
    base = mu.base_measure
    if base.kind in ("mixture", "convolution", "product"):
        raise UnsupportedBase(f"skew entropy unsupported for base kind {base.kind}")
    h_levels: list[float] = []
    prev = 0.0
    for ell in range(1, L + 1):
        dist = _joint_block_distribution(mu, ell)
        H = math.fsum(neg_xlogx(float(p)) for p in dist.values())
        h_levels.append(H - prev)
        prev = H
    gap = abs(h_levels[-1] - h_levels[-2]) if L >= 2 else float("inf")
    if isinstance(base, (Bernoulli, Markov)) and mu.kind in ("haar_fiber", "point_fiber"):
        value = _lifted_chain_rate(mu)
        method = "closed_form"
    else:
        value = h_levels[-1]
        method = "block_exact"
    return EntropyEstimate(
        value=value,
        upper_bounds=tuple(h_levels),
        method=method,
        L_max=L,
        converged=gap < 1e-9,
        gap=gap,
    )


@dataclass(frozen=True)
class EntropyAdditionReport:
    base_entropy: float
    fiber_entropy: float  # always 0 for a finite fiber; reported explicitly
    skew_entropy: float
    discrepancy: float
    tolerance: float
    passed: bool


def entropy_addition_report(
    sys: SkewSystem, mu0: ShiftMeasure, L: int = 4, tolerance: float = 1e-9
) -> EntropyAdditionReport:
    """Check h(skew, Haar extension) = h(base) + h(fiber automorphism)."""
    from .entropy import closed_form_entropy, entropy_rate

    if isinstance(mu0, (Bernoulli, Markov)):
        h_base = closed_form_entropy(mu0)
    else:
        h_base = entropy_rate(mu0, L).value
    h_fiber = 0.0  # automorphism of a finite group
    est = skew_entropy(haar_extension(mu0, sys), L)
    disc = abs(est.value - (h_base + h_fiber))
    return EntropyAdditionReport(h_base, h_fiber, est.value, disc, tolerance, disc <= tolerance)


def product_system(mu: ShiftMeasure, nu: ShiftMeasure) -> ProductMeasure:
    """Product measure over the direct-product alphabet, cylinders multiplying."""
    if mu.system.sidedness != nu.system.sidedness:
        raise SystemMismatch("product factors must share sidedness")
    if mu.system.map_kind != "shift" or nu.system.map_kind != "shift":
        raise SystemMismatch("product systems are defined for plain shifts")
    alphabet = direct_product(mu.system.alphabet, nu.system.alphabet)
    system = ShiftSystem(alphabet, mu.system.sidedness)
    return ProductMeasure(system, mu, nu)
