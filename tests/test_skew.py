import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergolab import cyclic, haar, identity_hom, make_hom, measure, skew, symmetric
from ergolab.entropy import block_entropy, closed_form_entropy, entropy_rate
from ergolab.ergodicity import is_ergodic_exact
from ergolab.errors import (
    DepthLimitExceeded,
    MonotonicityViolated,
    NotAutomorphism,
    PhiIncomplete,
    SystemMismatch,
)
from ergolab.exact import entropy_nats
from ergolab.groups import DenseMeasure, automorphisms, convolve
from ergolab.shifts import (
    Bernoulli,
    BlockTable,
    Convolution,
    Markov,
    Mixture,
    PeriodicOrbit,
    _merged,
    shift_haar,
    shift_space,
)
from ergolab.skew import (
    SkewMeasure,
    constant_cocycle,
    entropy_addition_report,
    first_symbol_cocycle,
    haar_absorption_check,
    haar_extension,
    invariant_measures_in_fiber,
    is_skew_invariant,
    make_skew,
    mix_skew,
    point_fiber_measure,
    product_system,
    skew_entropy,
)

C2 = cyclic(2)
SYS2 = shift_space(C2)
LN2 = math.log(2)
H14 = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))


def bern14():
    return Bernoulli(SYS2, measure(C2, ["3/4", "1/4"]))


def first_symbol_system():
    return make_skew(SYS2, C2, identity_hom(C2), first_symbol_cocycle(SYS2, C2))


def frozen_system():
    return make_skew(SYS2, C2, identity_hom(C2), constant_cocycle(SYS2, C2, C2.identity))


# -- construction ----------------------------------------------------------------


def test_make_skew_valid():
    sk = first_symbol_system()
    assert sk.window == 1
    assert sk.phi((1,)) == 1


def test_make_skew_rejects_non_automorphism():
    c4 = cyclic(4)
    doubling = make_hom(c4, c4, [(2 * x) % 4 for x in range(4)])
    with pytest.raises(NotAutomorphism):
        make_skew(shift_space(c4), c4, doubling, {(s,): 0 for s in range(4)})


def test_make_skew_rejects_partial_cocycle():
    with pytest.raises(PhiIncomplete):
        make_skew(SYS2, C2, identity_hom(C2), {(0,): 0})


def test_skew_map_commutation_on_words():
    # T(x, y*g) and sigma(y)*T(x, g) produce the same fiber value
    sk = first_symbol_system()
    sig, fib = sk.fiber_automorphism, sk.fiber
    for w in [(0,), (1,)]:
        c = sk.phi(w)
        for g in fib.elements():
            for y in fib.elements():
                lhs = fib.op(sig(fib.op(y, g)), c)
                rhs = fib.op(sig(y), fib.op(sig(g), c))
                assert lhs == rhs


# -- haar extension ----------------------------------------------------------------


def test_haar_extension_product_form():
    he = haar_extension(bern14(), first_symbol_system())
    for word in [(0,), (1,), (0, 1), (1, 1, 0)]:
        for g in range(2):
            assert he.base_measure.cylinder(word) * he.fiber_weights[g] == (
                bern14().cylinder(word) * F(1, 2)
            )


def test_haar_extension_projection_matches_base():
    he = haar_extension(bern14(), first_symbol_system())
    for length in range(1, 9):
        total = F(0)
        for word_p in bern14().block_distribution(length).items():
            word, p = word_p
            assert he.base_measure.cylinder(word) == p
            total += p
        assert total == 1


def test_haar_extension_invariant():
    assert is_skew_invariant(haar_extension(bern14(), first_symbol_system()), 4)


def test_haar_extension_with_nontrivial_sigma_and_window2():
    # fiber C3 with sigma = doubling, cocycle reading two base symbols
    c3 = cyclic(3)
    sigma = make_hom(c3, c3, [(2 * x) % 3 for x in range(3)])
    phi = {(a, b): (a + b) % 2 for a in range(2) for b in range(2)}
    sk = make_skew(SYS2, c3, sigma, phi)
    he = haar_extension(bern14(), sk)
    assert is_skew_invariant(he, 3)
    est = skew_entropy(he, 4)
    assert est.value == pytest.approx(H14, abs=1e-12)


# -- fiber-haar convolution (absorption) ----------------------------------------------


def test_fiber_haar_convolution_returns_haar_extension():
    sk = frozen_system()
    mu0 = bern14()
    for m in invariant_measures_in_fiber(sk, mu0):
        assert haar_absorption_check(m, mu0, 6)


# -- skew entropy ----------------------------------------------------------------------


def test_skew_entropy_bernoulli_base():
    est = skew_entropy(haar_extension(bern14(), first_symbol_system()), 5)
    assert est.method == "closed_form"
    assert est.value == pytest.approx(H14, abs=1e-12)
    # block trail reaches the closed form from above
    assert est.upper_bounds[-1] == pytest.approx(est.value, abs=1e-12)


def test_skew_entropy_point_fiber():
    sk = frozen_system()
    pf = point_fiber_measure(sk, bern14(), 0)
    est = skew_entropy(pf, 4)
    assert est.value == pytest.approx(H14, abs=1e-12)


def test_skew_entropy_periodic_base():
    sk = first_symbol_system()
    est = skew_entropy(haar_extension(PeriodicOrbit(SYS2, (0, 1)), sk), 4)
    assert est.method == "block_exact"
    assert est.value == 0.0


@pytest.mark.parametrize("L", [0, -1])
@pytest.mark.parametrize("base", [bern14, lambda: PeriodicOrbit(SYS2, (0, 1))],
                         ids=["closed_form", "block_exact"])
def test_skew_entropy_needs_one_level(base, L):
    with pytest.raises(ValueError, match="L_max must be >= 1"):
        skew_entropy(haar_extension(base(), first_symbol_system()), L)


def _composite_base_lift(kind):
    """The Haar lift of a mixture, convolution or product base."""
    per = PeriodicOrbit(SYS2, (0, 1))
    if kind == "product":
        base = product_system(bern14(), per)
        # the fiber moves by the periodic coordinate of the pair symbol a * 2 + b
        return haar_extension(base, make_skew(base.system, C2, identity_hom(C2),
                                              {(s,): s % 2 for s in range(4)}))
    if kind == "mixture":
        base = Mixture(SYS2, ((F(1, 3), bern14()), (F(2, 3), per)))
    else:
        base = Convolution(SYS2, bern14(), per)
    return haar_extension(base, first_symbol_system())


@pytest.mark.parametrize("kind", ["mixture", "convolution", "product"])
def test_skew_entropy_on_composite_bases_matches_oracle(kind):
    mu = _composite_base_lift(kind)
    block = [0.0]
    for length in range(1, 6):
        dist = _oracle_joint_distribution(mu, length)
        assert mu.joint.block_table(length).to_dict() == dist
        block.append(-math.fsum(float(p) * math.log(p) for p in dist.values()))
    est = skew_entropy(mu, 5)
    assert est.method == "block_exact"
    want = [b - a for a, b in zip(block, block[1:])]
    assert est.upper_bounds == pytest.approx(want, abs=1e-12)


def test_point_fiber_requires_invariance():
    sk = first_symbol_system()  # sigma(g) phi(w) = g + w0 = g fails on w0 = 1
    with pytest.raises(ValueError):
        point_fiber_measure(sk, bern14(), 0)


# -- entropy addition --------------------------------------------------------------------


def test_entropy_addition_bernoulli():
    rep = entropy_addition_report(first_symbol_system(), bern14())
    assert rep.fiber_entropy == 0.0
    assert rep.base_entropy == pytest.approx(H14, abs=1e-12)
    assert rep.passed and rep.discrepancy <= 1e-9


def test_entropy_addition_markov():
    m = Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]])
    rate = (2 / 3) * math.log(3 / 2) + (1 / 3) * math.log(3)
    rep = entropy_addition_report(first_symbol_system(), m)
    assert rep.base_entropy == pytest.approx(rate, abs=1e-12)
    assert rep.skew_entropy == pytest.approx(rate, abs=1e-9)
    assert rep.passed


# -- product systems ----------------------------------------------------------------------


def test_product_bernoulli_times_haar():
    pm = product_system(bern14(), shift_haar(SYS2))
    est = entropy_rate(pm, 3)
    assert est.value == pytest.approx(H14 + LN2, abs=1e-9)
    assert est.value == pytest.approx(1.255482, abs=5e-7)


def test_product_with_identity_orbit_keeps_entropy():
    delta = PeriodicOrbit(SYS2, (C2.identity,))
    pm = product_system(bern14(), delta)
    assert entropy_rate(pm, 3).value == pytest.approx(H14, abs=1e-12)


def test_product_of_periodic_orbits_additive_blocks():
    # four equally likely joint phases: H_L = 2 ln 2 for every L >= 1
    per = PeriodicOrbit(SYS2, (0, 1))
    pm = product_system(per, per)
    for L in range(1, 6):
        assert block_entropy(pm, L) == pytest.approx(
            2 * block_entropy(per, L), abs=1e-12
        )
        assert block_entropy(pm, L) == pytest.approx(2 * LN2, abs=1e-12)
    assert entropy_rate(pm, 4).value == pytest.approx(0.0, abs=1e-12)


def test_product_positive_fiber_entropy_instance():
    # one-point base times the full-shift uniform factor: addition 0 + ln 2
    triv = shift_space(cyclic(1))
    one_point = PeriodicOrbit(triv, (0,))
    pm = product_system(one_point, shift_haar(SYS2))
    assert entropy_rate(pm, 3).value == pytest.approx(LN2, abs=1e-12)


def test_product_requires_matching_sidedness():
    two = Bernoulli(shift_space(C2, "two_sided"), measure(C2, ["3/4", "1/4"]))
    with pytest.raises(SystemMismatch):
        product_system(bern14(), two)


# -- invariant measure enumeration ---------------------------------------------------------


def test_enumeration_frozen_cocycle():
    kinds = [m.kind for m in invariant_measures_in_fiber(frozen_system(), bern14())]
    assert kinds == ["point_fiber", "point_fiber", "haar_fiber"]


def test_enumeration_first_symbol_cocycle():
    kinds = [m.kind for m in invariant_measures_in_fiber(first_symbol_system(), bern14())]
    assert kinds == ["haar_fiber"]


def test_enumeration_trivial_fiber():
    c1 = cyclic(1)
    sk = make_skew(SYS2, c1, identity_hom(c1), {(0,): 0, (1,): 0})
    ms = invariant_measures_in_fiber(sk, bern14())
    assert len(ms) == 2  # the single point fiber and haar coincide on C1
    assert all(m.fiber_weights == (F(1),) for m in ms)


def test_enumeration_with_nontrivial_sigma():
    # sigma = doubling on C3; with phi == e only g = 0 solves sigma(g) = g
    c3 = cyclic(3)
    sigma = make_hom(c3, c3, [(2 * x) % 3 for x in range(3)])
    sk = make_skew(SYS2, c3, sigma, {(0,): 0, (1,): 0})
    ms = invariant_measures_in_fiber(sk, bern14())
    assert [m.kind for m in ms] == ["point_fiber", "haar_fiber"]
    assert ms[0].fiber_weights[0] == 1


# -- maximality and convexity ---------------------------------------------------------------


def test_maximality_within_fiber_family():
    sk = frozen_system()
    mu0 = bern14()
    listed = invariant_measures_in_fiber(sk, mu0)
    h_haar = skew_entropy(haar_extension(mu0, sk), 4).value
    for m in listed:
        assert skew_entropy(m, 4).value <= h_haar + 1e-9


def test_rational_mixtures_stay_invariant_and_project():
    sk = frozen_system()
    mu0 = bern14()
    listed = invariant_measures_in_fiber(sk, mu0)
    blend = mix_skew(
        [(F(1, 6), listed[0]), (F(1, 3), listed[1]), (F(1, 2), listed[2])]
    )
    assert is_skew_invariant(blend, 3)
    for word in [(0,), (1,), (0, 1)]:
        assert blend.base_measure.cylinder(word) == mu0.cylinder(word)
    assert skew_entropy(blend, 4).value <= skew_entropy(listed[-1], 4).value + 1e-9


# -- table verifiers against the naive per-word loops ----------------------------------------


def _oracle_is_skew_invariant(mu, depth):
    """P(T^-1([w] x {g})) = P([w] x {g}), one base cylinder per preimage word."""
    sys = mu.system
    g1, g2 = sys.base.alphabet, sys.fiber
    sig_inv = {sys.fiber_automorphism(x): x for x in g2.elements()}
    k = sys.window
    for length in range(1, depth + 1):
        ext = max(k, length + 1)
        for word in itertools.product(g1.elements(), repeat=length):
            for g in g2.elements():
                pulled = F(0)
                for first in g1.elements():
                    for tail in itertools.product(g1.elements(), repeat=ext - length - 1):
                        v = (first,) + word + tail
                        c = sys.phi(v[:k])
                        g_prev = sig_inv[g2.op(g, g2.inverse_table[c])]
                        pulled += mu.base_measure.cylinder(v) * mu.fiber_weights[g_prev]
                if pulled != mu.base_measure.cylinder(word) * mu.fiber_weights[g]:
                    return False
    return True


def _oracle_haar_absorption(mu, mu0, depth):
    """(m * mu)([w] x {g}), m = fiber Haar, as the mean of P([w] x {h}) over the fiber."""
    ext = haar_extension(mu0, mu.system)
    fiber = mu.system.fiber
    for length in range(1, depth + 1):
        for word in itertools.product(mu.system.base.alphabet.elements(), repeat=length):
            base = mu.base_measure.cylinder(word)
            convolved = sum((base * w for w in mu.fiber_weights), F(0)) / fiber.order
            for g in fiber.elements():
                if convolved != ext.base_measure.cylinder(word) * ext.fiber_weights[g]:
                    return False
    return True


def _oracle_joint_distribution(mu, length):
    """The joint (symbol, fiber) block law, one orbit per base word and start fiber."""
    sys = mu.system
    g2 = sys.fiber
    k = sys.window
    dist = {}
    for v, base_p in mu.base_measure.block_distribution(length + k - 1).items():
        for g, w0 in enumerate(mu.fiber_weights):
            if w0 == 0:
                continue
            key = []
            for t in range(length):
                key.append(v[t] * g2.order + g)
                g = g2.op(sys.fiber_automorphism(g), sys.phi(v[t : t + k]))
            dist[tuple(key)] = dist.get(tuple(key), F(0)) + base_p * w0
    return dist


def _skew_cases():
    c3 = cyclic(3)
    doubling = make_hom(c3, c3, [(2 * x) % 3 for x in range(3)])
    window2 = make_skew(SYS2, c3, doubling, {(a, b): (a + b) % 2 for a in range(2) for b in range(2)})
    # on C5 with sigma(x) = 2x and phi = 1, the fixed point fiber is 4; neither
    # sigma nor the cocycle is its own inverse there
    c5 = cyclic(5)
    shifted = make_skew(
        SYS2, c5, make_hom(c5, c5, [(2 * x) % 5 for x in range(5)]), constant_cocycle(SYS2, c5, 1)
    )
    # a window of 3 on C3, whose cocycle is the sum of the window's first and last symbols
    window3 = make_skew(SYS2, c3, identity_hom(c3), {w: (w[0] + w[2]) % 3 for w in
                                                     itertools.product(range(2), repeat=3)})
    markov = Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]])
    frozen = frozen_system()
    listed = invariant_measures_in_fiber(frozen, bern14())
    return [
        *listed,
        mix_skew([(F(1, 3), listed[0]), (F(2, 3), listed[2])]),
        haar_extension(bern14(), first_symbol_system()),
        haar_extension(markov, first_symbol_system()),
        haar_extension(PeriodicOrbit(SYS2, (0, 1, 1)), first_symbol_system()),
        haar_extension(markov, window2),
        SkewMeasure(window2, markov, (F(1, 2), F(1, 3), F(1, 6))),
        point_fiber_measure(shifted, markov, 4),
        # point fiber 0 is moved by the first-symbol cocycle wherever w0 = 1
        SkewMeasure(first_symbol_system(), bern14(), (F(1), F(0))),
        haar_extension(Mixture(SYS2, ((F(1, 2), markov), (F(1, 2), bern14()))), window3),
        SkewMeasure(window3, PeriodicOrbit(SYS2, (0, 0, 1)), (F(1, 2), F(1, 2), F(0))),
    ]


@pytest.mark.parametrize("case", range(len(_skew_cases())))
def test_skew_verifiers_match_naive_oracle(case):
    mu = _skew_cases()[case]
    assert is_skew_invariant(mu, 3) == _oracle_is_skew_invariant(mu, 3)
    for mu0 in (mu.base_measure, bern14(), shift_haar(SYS2)):
        assert haar_absorption_check(mu, mu0, 4) == _oracle_haar_absorption(mu, mu0, 4)
    for length in range(1, 5):
        assert mu.joint.block_table(length).to_dict() == _oracle_joint_distribution(mu, length)


def _scaled(table, w):
    """The table of w * P, for w >= 0, in Python-int numerators."""
    return BlockTable(table.base, table.length, table.codes,
                      table.nums.astype(object) * w.numerator, table.den * w.denominator)


def _per_fiber_haar_absorption(mu, mu0, depth):
    """The absorption check one fiber element at a time, at every length: the base table
    scaled by (m * fiber weights)(g) against mu0's scaled by the Haar extension's weight."""
    sys = mu.system
    ext = haar_extension(mu0, sys)
    conv = convolve(haar(sys.fiber), DenseMeasure(sys.fiber, *mu._fiber_ints)).weights
    for length in range(1, depth + 1):
        ours = mu.base_measure.block_table(length)
        target = ext.base_measure.block_table(length)
        for g in sys.fiber.elements():
            if _scaled(ours, conv[g]) != _scaled(target, ext.fiber_weights[g]):
                return False
    return True


ABSORPTION_BASES = [
    bern14,
    lambda: Bernoulli(SYS2, measure(C2, ["1/3", "2/3"])),
    lambda: Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]]),
    lambda: PeriodicOrbit(SYS2, (0, 1, 1)),
    lambda: shift_haar(SYS2),
    # bern14 again from another chain, so that its tables are equal but not shared
    lambda: Mixture(SYS2, ((F(1, 2), bern14()), (F(1, 2), bern14()))),
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_haar_absorption_is_the_per_fiber_comparison(data):
    # random fiber weights, zeros included; a base that is mu0's measure absorbs, any other
    # does not
    c3 = cyclic(3)
    sys = data.draw(st.sampled_from([
        frozen_system(), first_symbol_system(),
        make_skew(SYS2, c3, make_hom(c3, c3, [0, 2, 1]), constant_cocycle(SYS2, c3, 1))]))
    raw = data.draw(st.lists(st.integers(0, 3), min_size=sys.fiber.order,
                             max_size=sys.fiber.order).filter(any))
    weights = tuple(F(x, sum(raw)) for x in raw)
    base, other = data.draw(st.tuples(st.sampled_from(ABSORPTION_BASES),
                                      st.sampled_from(ABSORPTION_BASES)))
    mu = SkewMeasure(sys, base(), weights)
    depth = data.draw(st.integers(0, 4))
    for mu0 in (mu.base_measure, base(), other()):
        got = haar_absorption_check(mu, mu0, depth)
        assert got == _per_fiber_haar_absorption(mu, mu0, depth)
        assert got == (depth == 0 or mu0.block_table(depth) == mu.base_measure.block_table(depth))


def test_non_fixed_point_fiber_is_not_invariant():
    moved = SkewMeasure(first_symbol_system(), bern14(), (F(1), F(0)))
    assert not is_skew_invariant(moved, 1)
    assert not _oracle_is_skew_invariant(moved, 1)


def test_absorption_fails_against_another_base():
    m = invariant_measures_in_fiber(frozen_system(), bern14())[0]
    other = Bernoulli(SYS2, measure(C2, ["1/3", "2/3"]))
    assert not haar_absorption_check(m, other, 3)
    assert haar_absorption_check(m, bern14(), 3)


def test_skew_entropy_checks_the_trail_against_the_closed_form(monkeypatch):
    he = haar_extension(bern14(), first_symbol_system())
    true_rate = skew.closed_form_entropy(he.base_measure)
    monkeypatch.setattr(skew, "closed_form_entropy", lambda mu: true_rate + 1e-3)
    with pytest.raises(MonotonicityViolated, match="h_2 = .* below the closed-form rate"):
        skew_entropy(he, 4)


# -- the joint process as a chain ------------------------------------------------------------


def _pullback_is_skew_invariant(mu, depth):
    """The pull-back check that the joint process replaced: P(T^-1([w] x {g})) = P([w] x {g}).

    The preimage fixes base positions 1..|w| and reads the cocycle from the length-k prefix,
    so it is a union over length-max(k, |w|+1) base words v, each carrying its base mass
    times the fiber mass at sigma^-1(g phi(v)^-1), one fiber element g at a time.
    """
    sys = mu.system
    n, fib = sys.base.alphabet.order, sys.fiber
    sig_inv = np.argsort(sys.fiber_automorphism.table)
    inv = np.array(fib.inverse_table)
    k = sys.window
    fiber = np.array(mu._fiber_ints[0], dtype=object)
    for length in range(1, depth + 1):
        ext = max(k, length + 1)
        longer = mu.base_measure.block_table(ext)
        words = longer.codes // n ** (ext - length - 1) % n**length
        c_inv = inv[sys.np_phi[longer.codes // n ** (ext - k)]]
        table = mu.base_measure.block_table(length)
        for g in fib.elements():
            prev = sig_inv[fib.np_op[g, c_inv]]
            pulled = _merged(n, length, words, longer.nums * fiber[prev], longer.den)
            if pulled != BlockTable(n, length, table.codes, table.nums * fiber[g], table.den):
                return False
    return True


def _lifted_chain_rate(mu):
    """The closed-form rate of the lifted chain on (window, fiber) states, summed per state."""
    base = mu.base_measure
    _, _, rows, dt, _ = base._chain
    row_entropy = [entropy_nats(F(p, dt) for p in row) for row in rows]
    windows = base.block_table(mu.system.window)
    last = windows.codes % base.system.alphabet.order  # Bernoulli and Markov emit their states
    return math.fsum(
        num * w.numerator / (windows.den * w.denominator) * row_entropy[s]
        for s, num in zip(last.tolist(), windows.nums.tolist())
        for w in mu.fiber_weights
        if w
    )


@st.composite
def _random_skew_measure(draw, kinds=("bernoulli", "markov", "periodic_orbit", "mixture",
                                      "convolution", "product"), fibers=("haar", "point", "any")):
    """A skew measure over a small base of the given kinds, with a window of 1 to 3, a fiber
    C2, C3, C4 or S3 under a random automorphism, and a random or trivial cocycle."""
    def probabilities(k):
        raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        raw[draw(st.integers(0, k - 1))] += 1
        return [F(r, sum(raw)) for r in raw]

    def leaf(sys, kind):
        k = sys.alphabet.order
        if kind == "bernoulli":
            return Bernoulli(sys, measure(sys.alphabet, probabilities(k)))
        if kind == "markov":
            try:
                return Markov.stationary(sys, [probabilities(k) for _ in range(k)])
            except ValueError:  # no unique stationary distribution
                assume(False)
        w = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3))
        root = next(d for d in range(1, len(w) + 1) if w == w[:d] * (len(w) // d))
        return PeriodicOrbit(sys, tuple(w[:root]))

    kind = draw(st.sampled_from(kinds))
    leaves = ("bernoulli", "markov", "periodic_orbit")
    if kind == "product":
        base = product_system(leaf(SYS2, draw(st.sampled_from(leaves))),
                              leaf(SYS2, draw(st.sampled_from(leaves))))
    else:
        sys = draw(st.sampled_from([SYS2, shift_space(cyclic(3))]))
        if kind == "mixture":
            w = F(draw(st.integers(1, 3)), 4)
            base = Mixture(sys, ((w, leaf(sys, draw(st.sampled_from(leaves)))),
                                 (1 - w, leaf(sys, draw(st.sampled_from(leaves))))))
        elif kind == "convolution":  # a periodic factor keeps the product chain small
            base = Convolution(sys, leaf(sys, "periodic_orbit"),
                               leaf(sys, draw(st.sampled_from(leaves))))
        else:
            base = leaf(sys, kind)
    fiber = draw(st.sampled_from([C2, cyclic(3), cyclic(4), symmetric(3)]))
    sigma = draw(st.sampled_from(automorphisms(fiber)))
    k = draw(st.integers(1, 2 if base.system.alphabet.order == 4 else 3))
    windows = list(itertools.product(base.system.alphabet.elements(), repeat=k))
    if draw(st.booleans()):
        phi = {w: draw(st.integers(0, fiber.order - 1)) for w in windows}
    else:  # the trivial cocycle, under which sigma's fixed points are invariant point fibers
        phi = {w: fiber.identity for w in windows}
    sk = make_skew(base.system, fiber, sigma, phi)
    shape = draw(st.sampled_from(fibers))
    if shape == "haar":
        return haar_extension(base, sk)
    if shape == "point":
        g = draw(st.integers(0, fiber.order - 1))
        return SkewMeasure(sk, base, tuple(F(int(x == g)) for x in fiber.elements()))
    return SkewMeasure(sk, base, tuple(probabilities(fiber.order)))


@settings(max_examples=80, deadline=None)
@given(_random_skew_measure(), st.integers(1, 3))
def test_joint_invariance_matches_the_pullback_reference(mu, depth):
    joint = is_skew_invariant(mu, depth)
    k = mu.system.window
    # the joint's cylinders refine the sets [w] x {g}, and are unions of those k - 1 longer
    assert not joint or _pullback_is_skew_invariant(mu, depth)
    assert joint or not _pullback_is_skew_invariant(mu, depth + k - 1)
    if k == 1:  # the same cylinders
        assert joint == _pullback_is_skew_invariant(mu, depth)


@settings(max_examples=80, deadline=None)
@given(_random_skew_measure(kinds=("bernoulli", "markov"), fibers=("haar", "point")))
def test_closed_form_matches_the_lifted_chain_rate(mu):
    assert closed_form_entropy(mu.base_measure) == pytest.approx(_lifted_chain_rate(mu), abs=1e-15)


def test_entropy_addition_reaches_l4_on_c12_over_c12():
    # 12^4 * 12 joint block states, under the 2^24 guard
    c12 = cyclic(12)
    sys12 = shift_space(c12)
    sk = make_skew(sys12, c12, identity_hom(c12), first_symbol_cocycle(sys12, c12))
    rep = entropy_addition_report(sk, shift_haar(sys12), L=4)
    assert rep.passed and rep.skew_entropy == pytest.approx(math.log(12), abs=1e-12)


def test_joint_state_guard_trips_exactly_past_2_24():
    # 2^(L + k - 1) * |G2| joint block states with a window of 2 and a C2 fiber: 2^24 at L = 22
    sk = make_skew(SYS2, C2, identity_hom(C2), {w: w[0] ^ w[1] for w in
                                                itertools.product(range(2), repeat=2)})
    joint = haar_extension(bern14(), sk).joint
    joint._guard(22)
    with pytest.raises(DepthLimitExceeded, match=r"^2\^24 \* 2 joint block states exceed 2\^24$"):
        joint.block_table(23)


def test_joint_code_guard_keeps_path_keys_in_int64():
    # (2 * 64)^L * 128 states: 2^63 at L = 8, under the state guard's 2^9 * 64 at L = 9
    c64 = cyclic(64)
    sk = make_skew(SYS2, c64, identity_hom(c64), constant_cocycle(SYS2, c64, 1))
    joint = haar_extension(bern14(), sk).joint
    joint._guard(8)
    message = r"^\(2\*64\)\^9 \* 128 joint path keys exceed 2\^63$"
    with pytest.raises(DepthLimitExceeded, match=message):
        joint._guard(9)


def test_skew_measures_get_exact_ergodicity_verdicts():
    frozen = invariant_measures_in_fiber(frozen_system(), bern14())
    for point in frozen[:2]:
        assert is_ergodic_exact(point.joint).verdict == "ergodic"
    # the frozen Haar extension is the even mixture of its two point fibers
    v = is_ergodic_exact(frozen[2].joint)
    assert (v.verdict, v.method) == ("non_ergodic", "exact_skew_joint")
    assert v.witness == "closed classes 0 and 1 disagree at depth 1"
    lift = haar_extension(bern14(), first_symbol_system())
    assert is_ergodic_exact(lift.joint).verdict == "ergodic"
