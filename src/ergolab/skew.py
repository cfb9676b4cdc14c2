"""Skew products over symbolic bases with finite-group fibers.

The map is T(x, g) = (Sx, sigma(g) * phi(x)) where S is the base shift,
sigma an automorphism of the fiber group, and phi a cocycle reading a
length-k window of the base point. Measures here are products of a base
shift measure with a fiber distribution; the Haar extension is the uniform
fiber case, point fibers freeze the fiber coordinate, and rational mixtures
of those realize the convexity checks. Fiber and mixture weights pass
`exact.exact_vector`, so a float raises TypeError. The joint process
(x_t, g_t) is the output of a finite chain, `SkewMeasure.joint`, so its
tables, block entropies, invariance and ergodicity come from the
shift-measure chain core.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .entropy import EntropyEstimate, block_entropy, closed_form_entropy, entropy_rate
from .entropy import trail_estimate
from .errors import DepthLimitExceeded, NotAutomorphism, PhiIncomplete, SystemMismatch
from .exact import exact_vector
from .groups import DenseMeasure, FiniteGroup, GroupHom, convolve, direct_product, haar
from .record import Record
from .shifts import DEPTH_GUARD_STATES, Bernoulli, Markov, ProductMeasure, ShiftMeasure
from .shifts import ShiftSystem, Word, is_shift_invariant

MAX_COCYCLE_WINDOW = 3


class SkewSystem(Record):
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

    @cached_property
    def np_phi(self) -> np.ndarray:
        """phi indexed by window code (product order is code order)."""
        windows = product(self.base.alphabet.elements(), repeat=self.window)
        return np.array([self.phi(w) for w in windows], dtype=np.int64)


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


class SkewMeasure(Record):
    """base measure x fiber distribution on the skew phase space."""

    system: SkewSystem
    base_measure: ShiftMeasure
    fiber_weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.base_measure.system != self.system.base:
            raise SystemMismatch("base measure lives on a different system")
        if len(self.fiber_weights) != self.system.fiber.order:
            raise ValueError("one fiber weight per fiber element required")
        # the fiber weights' numerators over their common denominator
        object.__setattr__(self, "_fiber_ints", exact_vector(self.fiber_weights, "fiber weights"))

    @property
    def kind(self) -> str:
        n = self.system.fiber.order
        if all(w == Fraction(1, n) for w in self.fiber_weights):
            return "haar_fiber"
        if any(w == 1 for w in self.fiber_weights):
            return "point_fiber"
        return "fiber_mixture"

    @cached_property
    def joint(self) -> "SkewJoint":
        """The joint process (x_t, g_t) as a shift measure over the pair alphabet."""
        base = self.system.base
        pairs = ShiftSystem(direct_product(base.alphabet, self.system.fiber), base.sidedness)
        return SkewJoint(pairs, self)


class SkewJoint(ShiftMeasure, Record):
    """The joint process of a skew measure, the pair (x, g) coded x * |G2| + g.

    It is the output of a chain (Blackwell 1957) whose state (s, w, g) at time
    t holds the base chain's state at t + k - 1, the window w = x_t..x_{t+k-1}
    and g = g_t. It starts as the base's length-k paths times the fiber
    weights, steps as the base row of s does, with g' = sigma(g) phi(w), and
    emits w's first symbol with g. Only the states that the start reaches are
    kept.
    """

    system: ShiftSystem
    skew: SkewMeasure
    kind = "skew_joint"

    def _guard(self, length: int) -> None:
        """The base paths under every fiber element, and path keys in int64."""
        sys = self.skew.system
        n, m, k = sys.base.alphabet.order, sys.fiber.order, sys.window
        if n ** (length + k - 1) * m > DEPTH_GUARD_STATES:
            raise DepthLimitExceeded(f"{n}^{length + k - 1} * {m} joint block states exceed 2^24")
        states = len(self._chain[0])
        if (n * m) ** length * states > 2**63:
            raise DepthLimitExceeded(f"({n}*{m})^{length} * {states} joint path keys exceed 2^63")

    @cached_property
    def _chain(self):
        sys, base = self.skew.system, self.skew.base_measure
        n, m, k = sys.base.alphabet.order, sys.fiber.order, sys.window
        _, d0, base_rows, dt, base_emit = base._chain
        codes, last, nums = base._engine.paths(k)
        last = codes % n if last is None else last
        fiber, den = self.skew._fiber_ints
        sigma, phi = sys.fiber_automorphism.table, sys.np_phi.tolist()
        init = [p * f for p in nums.tolist() for f in fiber if f]
        states = [(s, w, g) for w, s in zip(codes.tolist(), last.tolist())
                  for g, f in enumerate(fiber) if f]
        index = {state: i for i, state in enumerate(states)}
        steps = []
        for s, w, g in states:  # the list grows as the steps reach new states
            ahead, step = sys.fiber.op(sigma[g], phi[w]), {}
            for t, p in enumerate(base_rows[s]):
                if p:
                    state = (t, w % n ** (k - 1) * n + base_emit[t], ahead)
                    if state not in index:
                        index[state] = len(states)
                        states.append(state)
                    step[index[state]] = p
            steps.append(step)
        rows = tuple(tuple(step.get(j, 0) for j in range(len(states))) for step in steps)
        init = tuple(init) + (0,) * (len(states) - len(init))
        emit = tuple(w // n ** (k - 1) * m + g for _, w, g in states)
        return init, d0 * dt ** (k - 1) * den, rows, dt, emit


def haar_extension(mu0: ShiftMeasure, sys: SkewSystem) -> SkewMeasure:
    """Lift of the base measure by the uniform fiber distribution."""
    if mu0.system != sys.base:
        raise SystemMismatch("base measure lives on a different system")
    n = sys.fiber.order
    return SkewMeasure(sys, mu0, (Fraction(1, n),) * n)


def _moving_window(sys: SkewSystem, mu0: ShiftMeasure, g: int) -> Optional[Word]:
    """The first support window w with sigma(g) phi(w) != g, if any."""
    windows = mu0.block_table(sys.window)
    moved = sys.fiber.np_op[sys.fiber_automorphism(g), sys.np_phi[windows.codes]] != g
    return tuple(windows.digits()[moved][0].tolist()) if moved.any() else None


def point_fiber_measure(sys: SkewSystem, mu0: ShiftMeasure, g: int) -> SkewMeasure:
    """Frozen-fiber measure; only valid when sigma(g) phi(w) = g on the support."""
    w = _moving_window(sys, mu0, g)
    if w is not None:
        raise ValueError(f"point fiber {g} is not invariant: sigma(g) phi({w}) != g")
    weights = tuple(Fraction(1 if x == g else 0) for x in sys.fiber.elements())
    return SkewMeasure(sys, mu0, weights)


def mix_skew(components: Sequence[tuple[Fraction, SkewMeasure]]) -> SkewMeasure:
    """Exact convex combination; components must share system and base measure."""
    if not components:
        raise ValueError("empty mixture")
    sys = components[0][1].system
    base = components[0][1].base_measure
    if any(m.system != sys or m.base_measure != base for _, m in components):
        raise SystemMismatch("skew mixture components must share system and base")
    exact_vector([w for w, _ in components], "mixture weights")
    n = sys.fiber.order
    weights = tuple(
        sum((w * m.fiber_weights[g] for w, m in components), Fraction(0))
        for g in range(n)
    )
    return SkewMeasure(sys, base, weights)


def is_skew_invariant(mu: SkewMeasure, depth: int) -> bool:
    """Invariance on the joint's cylinders up to the depth: [w] x {g} for k = 1, finer for k > 1."""
    return is_shift_invariant(mu.joint, depth)


def haar_absorption_check(mu: SkewMeasure, mu0: ShiftMeasure, depth: int) -> bool:
    """m * mu equals the Haar extension of mu0 on all windows up to the depth.

    m translates the fiber coordinate only, so (m * mu)([w] x {g}) is the
    base mass of w times the fiber convolution m * (fiber weights) at g, and
    the extension's is the mass of w under mu0 times 1/|G2|. Every base table
    sums to 1, so summing over the words of one length, the two sides agree at
    every g exactly when the fiber vectors are equal; and where they are, with
    weights 1/|G2| > 0, exactly when the base tables are. Depth 0 holds no word.
    """
    sys = mu.system
    ext = haar_extension(mu0, sys)
    conv = convolve(haar(sys.fiber), DenseMeasure(sys.fiber, *mu._fiber_ints)).weights
    return depth < 1 or conv == ext.fiber_weights and all(
        mu.base_measure.block_table(length) == mu0.block_table(length)
        for length in range(1, depth + 1))


def invariant_measures_in_fiber(sys: SkewSystem, mu0: ShiftMeasure) -> list[SkewMeasure]:
    """Point-fiber candidates solving sigma(g) phi(w) = g on the support, plus Haar."""
    found = [
        point_fiber_measure(sys, mu0, g)
        for g in sys.fiber.elements()
        if _moving_window(sys, mu0, g) is None
    ]
    found.append(haar_extension(mu0, sys))
    depth = min(sys.window + 2, 4)
    return [m for m in found if is_skew_invariant(m, depth)]


def skew_entropy(mu: SkewMeasure, L: int) -> EntropyEstimate:
    """Entropy of the joint (base symbol, fiber) process, from the joint's block entropies.

    A finite fiber adds no entropy (Abramov-Rokhlin), so Bernoulli and Markov
    bases under a Haar or point fiber get the base's closed-form rate, and
    every h_L of the block trail must stay above it; the trail is checked
    nonincreasing either way.
    """
    base = mu.base_measure
    closed = isinstance(base, (Bernoulli, Markov)) and mu.kind in ("haar_fiber", "point_fiber")
    return trail_estimate(
        (block_entropy(mu.joint, ell) for ell in range(1, L + 1)),
        tol=1e-9,
        closed_form=closed_form_entropy(base) if closed else None,
    )


class EntropyAdditionReport(Record):
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
    alphabet = direct_product(mu.system.alphabet, nu.system.alphabet)
    system = ShiftSystem(alphabet, mu.system.sidedness)
    return ProductMeasure(system, mu, nu)
