import math
import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (
    automorphisms,
    convolve,
    cyclic,
    dihedral,
    direct_product,
    explicit_group,
    haar,
    identity_hom,
    independence_check,
    is_invariant,
    make_hom,
    measure,
    symmetric,
)
from ergolab.acceptance import _small_groups
from ergolab.errors import (
    GroupMismatch,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    NotBijective,
    NotHomomorphism,
)
from ergolab.groups import (
    DenseMeasure,
    GroupHom,
    _fiber_nums,
    _orbits,
    random_invariant_measure,
    random_measure,
)


def power_hom(g, k):
    """x -> x^k through make_hom; a homomorphism on abelian groups (e.g. x -> 2x on Z/n)."""
    table = []
    for x in g.elements():
        acc = g.identity
        for _ in range(k):
            acc = g.op(acc, x)
        table.append(acc)
    return make_hom(g, g, table)


def point_mass(g, x):
    """The unit mass at x."""
    return measure(g, [1 if y == x else 0 for y in g.elements()])


def pushforward(mu, t):
    """mu o T^-1, from the numerators that `is_invariant` compares with mu's own."""
    return DenseMeasure(mu.group, tuple(_fiber_nums(mu, t)), mu.den)


def brute_convolve(mu, nu):
    """Independent oracle: pushforward of mu x nu under (x, y) -> xy."""
    g = mu.group
    out = [F(0)] * g.order
    for x in g.elements():
        for y in g.elements():
            out[g.op(x, y)] += mu.weights[x] * nu.weights[y]
    return tuple(out)


# -- construction -------------------------------------------------------------


def test_trivial_group():
    g = cyclic(1)
    assert g.order == 1
    assert g.identity == 0
    assert g.op(0, 0) == 0


def test_cyclic6_isomorphic_to_c2_x_c3():
    c6 = cyclic(6)
    prod = direct_product(cyclic(2), cyclic(3))
    assert c6.order == prod.order
    assert sorted(c6.element_order(x) for x in c6.elements()) == sorted(
        prod.element_order(x) for x in prod.elements()
    )
    # the Chinese remainder map x -> (x mod 2, x mod 3), index (x mod 2) * 3 + x mod 3
    iso = make_hom(c6, prod, [(x % 2) * 3 + x % 3 for x in c6.elements()])
    assert iso.bijective


def test_explicit_table_rejections():
    with pytest.raises(NonAssociative):
        explicit_group([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    with pytest.raises(MissingIdentity):
        explicit_group([[(a - b) % 3 for b in range(3)] for a in range(3)])
    with pytest.raises(MissingInverse):
        explicit_group([[0, 1], [1, 1]])


def test_symmetric_and_dihedral_orders():
    assert symmetric(3).order == 6
    assert symmetric(4).order == 24
    assert dihedral(4).order == 8
    assert dihedral(8).order == 16


@pytest.mark.parametrize("build, n, bad", [(cyclic, 5, 0), (symmetric, 3, 5), (dihedral, 4, 1)],
                         ids=["cyclic", "symmetric", "dihedral"])
def test_named_groups_are_built_once_and_shared_read_only(build, n, bad):
    g = build(n)
    assert build(n) is g
    assert direct_product(g, cyclic(2)) is direct_product(g, cyclic(2))
    for table in (g.np_op, g.np_quotient):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
    for _ in range(2):  # an invalid order is refused on every call, not remembered
        with pytest.raises(ValueError):
            build(bad)


def test_large_table_passes_exact_validation():
    g = cyclic(70)
    assert g.order == 70
    assert g.op(69, 1) == 0


def test_associativity_defect_found_at_large_order():
    # C200 with 1*2 and 1*3 swapped: identity and inverses survive, and only
    # a few hundred of the 8e6 triples fail, so 4096 sampled triples miss them
    table = [[(a + b) % 200 for b in range(200)] for a in range(200)]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    with pytest.raises(NonAssociative):
        explicit_group(table)


# -- homomorphisms ------------------------------------------------------------


def test_identity_hom_on_cyclic5():
    g = cyclic(5)
    h = identity_hom(g)
    assert h.surjective


def test_doubling_on_cyclic5_is_automorphism():
    g = cyclic(5)
    h = power_hom(g, 2)
    assert h.image == frozenset(range(5))
    assert h.surjective and h.bijective


def test_doubling_on_cyclic4_not_surjective():
    g = cyclic(4)
    h = power_hom(g, 2)
    assert h.image == frozenset({0, 2})
    assert not h.surjective


def test_not_homomorphism_has_witness():
    g = cyclic(4)
    with pytest.raises(NotHomomorphism):
        make_hom(g, g, [0, 1, 2, 0])


def test_make_hom_refuses_a_float_entry():
    # read through operator.index, as group tables are: 1.9 is not truncated to 1
    with pytest.raises(TypeError):
        make_hom(cyclic(2), cyclic(2), [0, 1.9])
    assert make_hom(cyclic(2), cyclic(2), [0, np.int64(1)]).table == (0, 1)


def test_automorphism_counts():
    # |Aut(Z/n)| = phi(n); Aut(S3) = Inn(S3) = S3
    assert len(automorphisms(cyclic(12))) == 4
    assert len(automorphisms(cyclic(7))) == 6
    assert len(automorphisms(symmetric(3))) == 6


def _greedy_generators(g):
    """Greedy generators: right products of them, from the identity, reach all."""
    gens = []
    span = {g.identity}
    for x in g.elements():
        if x in span:
            continue
        gens.append(x)
        frontier = [g.identity]
        span = {g.identity}
        while frontier:
            nxt = []
            for y in frontier:
                for s in gens:
                    z = g.op(y, s)
                    if z not in span:
                        span.add(z)
                        nxt.append(z)
            frontier = nxt
        if len(span) == g.order:
            break
    return gens


def _oracle_automorphisms(g):
    """Reference automorphisms: a search per greedy generator, a second search for
    the element words, and each table filled by recursion over those words."""
    gens = _greedy_generators(g)
    if not gens:
        return [identity_hom(g)]
    candidates = [
        [y for y in g.elements() if g.element_order(y) == g.element_order(x)] for x in gens
    ]
    parent = {}
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for y in frontier:
            for gi, s in enumerate(gens):
                z = g.op(y, s)
                if z not in seen:
                    seen.add(z)
                    parent[z] = (y, gi)
                    nxt.append(z)
        frontier = nxt

    def build_table(images):
        table = [None] * g.order
        table[g.identity] = g.identity

        def resolve(z):
            if table[z] is None:
                y, gi = parent[z]
                table[z] = g.op(resolve(y), images[gi])
            return table[z]

        for z in g.elements():
            resolve(z)
        return tuple(table)

    result = []
    for images in product(*candidates):
        table = build_table(images)
        if len(set(table)) == g.order and all(
            table[g.op(a, b)] == g.op(table[a], table[b])
            for a in g.elements()
            for b in g.elements()
        ):
            result.append(GroupHom(g, g, table))
    return result


AUTOMORPHISM_GROUPS = (
    [cyclic(n) for n in range(1, 13)]
    + [symmetric(n) for n in range(1, 5)]
    + [dihedral(n) for n in range(2, 9)]
    + [direct_product(cyclic(2), cyclic(2)), direct_product(cyclic(2), cyclic(4)),
       direct_product(cyclic(3), cyclic(3)), direct_product(cyclic(2), symmetric(3))]
)


@pytest.mark.parametrize("g", AUTOMORPHISM_GROUPS, ids=lambda g: g.label)
def test_automorphisms_match_the_reference_search_in_tables_and_order(g):
    assert automorphisms(g) == _oracle_automorphisms(g)

# -- haar and pushforward -----------------------------------------------------


def test_haar_values():
    assert haar(cyclic(2)).weights == (F(1, 2), F(1, 2))
    assert haar(symmetric(3)).weights == (F(1, 6),) * 6


def test_haar_invariant_under_all_automorphisms():
    for g in (cyclic(5), cyclic(8), symmetric(3), dihedral(4)):
        for a in automorphisms(g):
            assert pushforward(haar(g), a).weights == haar(g).weights


def test_pushforward_identity():
    g = cyclic(5)
    mu = measure(g, ["1/2", "1/4", "1/4", 0, 0])
    assert pushforward(mu, identity_hom(g)).weights == mu.weights


def test_pushforward_doubling_on_cyclic4():
    g = cyclic(4)
    t = power_hom(g, 2)
    got = pushforward(haar(g), t)
    # fiber enumeration: T^-1(0) = {0, 2}, T^-1(2) = {1, 3}
    expected = [F(0)] * 4
    for x in g.elements():
        expected[t(x)] += F(1, 4)
    assert got.weights == tuple(expected) == (F(1, 2), 0, F(1, 2), 0)


# -- convolution --------------------------------------------------------------


def test_point_mass_is_unit():
    g = symmetric(3)
    rng = random.Random(11)
    mu = random_measure(g, rng)
    delta = point_mass(g, g.identity)
    assert convolve(delta, mu).weights == mu.weights
    assert convolve(mu, delta).weights == mu.weights


def test_convolve_matches_brute_force_on_cyclic3():
    g = cyclic(3)
    mu = measure(g, ["1/2", "1/2", 0])
    nu = haar(g)
    got = convolve(mu, nu)
    assert got.weights == brute_convolve(mu, nu)
    assert got.weights == (F(1, 3), F(1, 3), F(1, 3))


def test_haar_absorbs_both_sides():
    for g in (cyclic(6), symmetric(3)):
        rng = random.Random(g.order)
        for _ in range(5):
            mu = random_measure(g, rng)
            assert convolve(haar(g), mu).weights == haar(g).weights
            assert convolve(mu, haar(g)).weights == haar(g).weights


def test_convolution_order_convention_on_s3():
    # pin (mu*nu)(g) = sum_h mu(h) nu(h^-1 g) on a noncommutative group
    g = symmetric(3)
    a, b = 1, 2  # two non-identity elements
    mu, nu = point_mass(g, a), point_mass(g, b)
    assert convolve(mu, nu).weights == point_mass(g, g.op(a, b)).weights
    assert convolve(mu, nu).weights == brute_convolve(mu, nu)
    assert g.op(a, b) != g.op(b, a)  # the pair really pins the order


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5, 8, 24]),
    st.integers(min_value=0, max_value=10**6),
)
def test_convolution_associative(order, seed):
    g = symmetric(4) if order == 24 else cyclic(order)
    rng = random.Random(seed)
    mu, nu, rho = (random_measure(g, rng) for _ in range(3))
    lhs = convolve(convolve(mu, nu), rho)
    rhs = convolve(mu, convolve(nu, rho))
    assert lhs.weights == rhs.weights
    assert sum(lhs.weights) == 1


def test_group_mismatch():
    with pytest.raises(GroupMismatch):
        convolve(haar(cyclic(2)), haar(cyclic(3)))


# -- invariance ---------------------------------------------------------------


def test_invariance_basics():
    g = cyclic(5)
    t = power_hom(g, 2)
    assert is_invariant(haar(g), t)
    assert is_invariant(point_mass(g, 0), t)
    assert not is_invariant(point_mass(g, 1), t)
    assert pushforward(point_mass(g, 1), t).weights == point_mass(g, 2).weights


def test_convolution_preserves_invariance():
    g = cyclic(12)
    rng = random.Random(3)
    for a in automorphisms(g):
        from ergolab.groups import random_invariant_measure

        mu = random_invariant_measure(g, a, rng)
        nu = random_invariant_measure(g, a, rng)
        assert is_invariant(mu, a)
        assert is_invariant(nu, a)
        assert is_invariant(convolve(mu, nu), a)


def test_pushforward_commutes_with_convolution():
    g = cyclic(6)
    rng = random.Random(5)
    t = automorphisms(g)[-1]
    mu, nu = random_measure(g, rng), random_measure(g, rng)
    lhs = pushforward(convolve(mu, nu), t)
    rhs = convolve(pushforward(mu, t), pushforward(nu, t))
    assert lhs.weights == rhs.weights


def test_convex_combination_of_invariant_measures():
    g = cyclic(8)
    t = automorphisms(g)[1]
    from ergolab.groups import random_invariant_measure

    rng = random.Random(9)
    mu = random_invariant_measure(g, t, rng)
    nu = random_invariant_measure(g, t, rng)
    blend = measure(g, [F(2, 5) * a + F(3, 5) * b for a, b in zip(mu.weights, nu.weights)])
    assert is_invariant(blend, t)


def test_random_invariant_measure_draws_one_weight_per_orbit_in_orbit_order():
    g = cyclic(12)
    t = automorphisms(g)[2]
    orbits = _orbits(g, t)
    draws = random.Random(4)
    raw = {orbit: draws.randint(1, 20) for orbit in orbits}
    total = sum(r * len(o) for o, r in raw.items())
    mu = random_invariant_measure(g, t, random.Random(4))
    assert mu.weights == tuple(F(raw[o], total) for x in g.elements() for o in orbits if x in o)


# -- independence -------------------------------------------------------------


def test_independence_iff_haar_on_cyclic2():
    assert independence_check(haar(cyclic(2))).independent
    rep = independence_check(measure(cyclic(2), ["3/4", "1/4"]))
    assert not rep.independent
    assert rep.witness == (frozenset({0}), frozenset({0}))
    # oracle: joint mass of {x in E} & {xy in F} under uniform x mu
    g = cyclic(2)
    mu = measure(g, ["3/4", "1/4"])
    joint = sum(
        F(1, 2) * mu.weights[y]
        for x in [0]
        for y in g.elements()
        if g.op(x, y) in {0}
    )
    assert joint == F(3, 8) != F(1, 4)


def test_independence_haar_on_s3():
    assert independence_check(haar(symmetric(3))).independent


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4, 6, 8]), st.integers(min_value=0, max_value=10**6))
def test_independence_iff_uniform(order, seed):
    g = cyclic(order)
    rng = random.Random(seed)
    mu = random_measure(g, rng)
    rep = independence_check(mu)
    assert rep.independent == (mu.weights == haar(g).weights)
    if not rep.independent:
        assert rep.witness is not None


# -- ergodic components -------------------------------------------------------


def test_ergodic_components_doubling_on_cyclic5():
    # the orbits of a bijection of a finite group are its ergodic components
    g = cyclic(5)
    t = power_hom(g, 2)
    assert set(map(frozenset, _orbits(g, t))) == {frozenset({0}), frozenset({1, 2, 4, 3})}


def test_ergodic_components_rejections():
    g = cyclic(4)
    with pytest.raises(NotBijective):
        _orbits(g, power_hom(g, 2))


@pytest.mark.parametrize("g", [symmetric(3), cyclic(6)], ids=lambda g: g.label)
def test_convolve_matches_double_loop_with_zeros_and_large_denominators(g):
    rng = random.Random(g.order + 5)
    for _ in range(30):
        raw = [[rng.choice([0, 0, 1, 3, 10**20 + 7]) for _ in g.elements()] for _ in range(2)]
        for r in raw:
            r[rng.randrange(g.order)] += 1
        mu, nu = (measure(g, [F(x, sum(r)) for x in r]) for r in raw)
        got = convolve(mu, nu)
        assert got.weights == brute_convolve(mu, nu)
        assert all(type(w) is F for w in got.weights)


# -- integer form -------------------------------------------------------------


def test_unreduced_numerators_compare_and_hash_equal():
    g = cyclic(3)
    reduced = DenseMeasure(g, (1, 2, 3), 6)
    for scale in (2, 7, 10**20 + 7):
        scaled = DenseMeasure(g, (scale, 2 * scale, 3 * scale), 6 * scale)
        assert scaled == reduced and hash(scaled) == hash(reduced)
        assert (scaled.nums, scaled.den) == ((1, 2, 3), 6)
    assert measure(g, [F(2, 12), F(4, 12), F(6, 12)]) == reduced
    assert {reduced, measure(g, ["1/6", "1/3", "1/2"])} == {reduced}
    assert reduced != DenseMeasure(g, (3, 2, 1), 6)


def test_weights_are_the_numerators_over_the_denominator():
    mu = DenseMeasure(cyclic(3), (4, 0, 2), 6)
    assert mu.weights == (F(2, 3), F(0), F(1, 3))
    assert all(type(w) is F for w in mu.weights)
    assert [mu(x) for x in range(3)] == list(mu.weights)


@pytest.mark.parametrize("nums, den", [((1, 2), 3), ((3, -1, 0), 2), ((1, 1, 1), 4),
                                       ((0, 0, 0), 0)], ids=["length", "negative", "sum", "zero"])
def test_numerators_must_form_a_probability_vector(nums, den):
    with pytest.raises(ValueError):
        DenseMeasure(cyclic(3), nums, den)


def test_measure_keeps_the_exact_weight_errors():
    g = cyclic(2)
    with pytest.raises(TypeError, match="0.5"):
        measure(g, [0.5, 0.5])
    with pytest.raises(ValueError, match="must be nonnegative"):
        measure(g, [F(3, 2), F(-1, 2)])
    with pytest.raises(ValueError, match="must sum to exactly 1"):
        measure(g, [F(1, 2), F(1, 3)])


def _fraction_random_measure(group, rng, max_weight=20):
    """random_measure as it drew Fraction weights before the integer form."""
    raw = [rng.randint(1, max_weight) for _ in group.elements()]
    total = sum(raw)
    return tuple(F(r, total) for r in raw)


def _fraction_random_invariant_measure(group, t, rng, max_weight=20):
    """random_invariant_measure as it drew Fraction weights before the integer form."""
    raw = {orbit: rng.randint(1, max_weight) for orbit in _orbits(group, t)}
    total = sum(r * len(o) for o, r in raw.items())
    weights = [F(0)] * group.order
    for orbit, r in raw.items():
        for x in orbit:
            weights[x] = F(r, total)
    return tuple(weights)


def _draw_both(rng, draw, fraction_draw):
    """One draw by each, from the same rng state; both must consume the same numbers."""
    state = rng.getstate()
    want = fraction_draw(rng)
    after = rng.getstate()
    rng.setstate(state)
    got = draw(rng)
    assert rng.getstate() == after
    assert got.weights == want
    return got


def test_criterion_1_draws_keep_their_fraction_weights():
    rng = random.Random(101)
    pool = [(g, automorphisms(g)) for g in _small_groups()]
    for _ in range(200):
        g, auts = pool[rng.randrange(len(pool))]
        a = auts[rng.randrange(len(auts))]
        mu, nu = (_draw_both(rng, lambda r: random_invariant_measure(g, a, r),
                             lambda r: _fraction_random_invariant_measure(g, a, r))
                  for _ in range(2))
        assert convolve(mu, nu).weights == brute_convolve(mu, nu)


def test_criterion_2_draws_keep_their_fraction_weights():
    rng = random.Random(202)
    pool = [g for g in _small_groups() + [dihedral(4), dihedral(6)] if g.order <= 12]
    for _ in range(100):
        g = pool[rng.randrange(len(pool))]
        mu = _draw_both(rng, lambda r: random_measure(g, r),
                        lambda r: _fraction_random_measure(g, r))
        assert convolve(haar(g), mu) == haar(g)
        assert brute_convolve(haar(g), mu) == haar(g).weights


def test_criterion_8_draws_keep_their_fraction_weights():
    rng = random.Random(808)
    for g in [cyclic(2), cyclic(3), cyclic(4), cyclic(6), symmetric(3)]:
        uniform, done = haar(g), 0
        while done < 50:
            mu = _draw_both(rng, lambda r: random_measure(g, r),
                            lambda r: _fraction_random_measure(g, r))
            assert (mu == uniform) == (mu.weights == uniform.weights)
            if mu != uniform:
                assert not independence_check(mu).independent
                done += 1


# den_mu * den_nu just below 2^63, at it, and far past it
_DEN_PAIRS = [(21870289, (2**63 - 1) // 21870289), (2**32, 2**31), (2**70 + 1, 3)]


@pytest.mark.parametrize("den_mu, den_nu", _DEN_PAIRS, ids=["2^63-1", "2^63", "2^71"])
@pytest.mark.parametrize("g", [cyclic(4), symmetric(3)], ids=lambda g: g.label)
def test_convolve_matches_double_loop_on_both_sides_of_a_2_63_denominator(g, den_mu, den_nu):
    # the heavy numerators meet in one product of about den_mu * den_nu
    assert den_mu * den_nu in (2**63 - 1, 2**63) or den_mu * den_nu > 2**70
    for x, y in product(g.elements(), repeat=2):
        a = [0] * g.order
        b = [0] * g.order
        a[x], a[(x + 1) % g.order] = den_mu - 1, 1
        b[y], b[(y + 2) % g.order] = den_nu - 1, 1
        mu, nu = DenseMeasure(g, tuple(a), den_mu), DenseMeasure(g, tuple(b), den_nu)
        got = convolve(mu, nu)
        assert got.weights == brute_convolve(mu, nu)
        assert math.gcd(got.den, *got.nums) == 1 and den_mu * den_nu % got.den == 0
        assert all(type(n) is int for n in got.nums)


# -- exact weights ------------------------------------------------------------


@pytest.mark.parametrize(
    "g, weights",
    [(cyclic(3), (0.1, 0.2, 0.7)), (cyclic(2), (0.5, 0.5))],
    ids=["c3", "c2"],
)
def test_float_weights_are_rejected(g, weights):
    with pytest.raises(TypeError, match=repr(weights[0])):
        measure(g, weights)


def test_float_weight_is_named_after_exact_ones():
    with pytest.raises(TypeError, match="0.5"):
        measure(cyclic(3), (F(1, 2), 0, 0.5))


# -- integer numerators against the Fraction arithmetic they replace ------------


def _fraction_validate(group, weights):
    """Fraction-sum validation of a weight tuple, as done before integer numerators."""
    if len(weights) != group.order:
        raise ValueError("one weight per group element required")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if sum(weights) != 1:
        raise ValueError("weights must sum to exactly 1")


def _fraction_pushforward(mu, t):
    g = mu.group
    weights = [F(0)] * g.order
    for x in g.elements():
        weights[t(x)] += mu.weights[x]
    return tuple(weights)


def _fraction_is_invariant(mu, t):
    return _fraction_pushforward(mu, t) == mu.weights


# the order up to which the oracle scans every subset pair; above it, singleton pairs
ORACLE_SUBSET_SCAN_MAX_ORDER = 8


def _fraction_independence_check(mu):
    """(independent, witness) by the exhaustive subset-pair scan, or the singleton scan above
    ORACLE_SUBSET_SCAN_MAX_ORDER, with the denominator taken by a gcd loop."""
    g = mu.group
    n = g.order
    den = 1
    for w in mu.weights:
        den = den * w.denominator // math.gcd(den, w.denominator)
    a = [int(w * den) for w in mu.weights]
    if n <= ORACLE_SUBSET_SCAN_MAX_ORDER:
        row = [[0] * (1 << n) for _ in range(n)]
        for x in range(n):
            xinv = g.inverse_table[x]
            vals = [a[g.op(xinv, f)] for f in range(n)]
            for mask in range(1, 1 << n):
                low = (mask & -mask).bit_length() - 1
                row[x][mask] = row[x][mask ^ (1 << low)] + vals[low]
        members = [[x for x in range(n) if mask >> x & 1] for mask in range(1 << n)]
        for emask in range(1, 1 << n):
            for fmask in range(1, 1 << n):
                s = sum(row[x][fmask] for x in members[emask])
                if n * s != len(members[emask]) * len(members[fmask]) * den:
                    return False, (frozenset(members[emask]), frozenset(members[fmask]))
        return True, None
    for x in range(n):
        for f in range(n):
            if n * a[g.op(g.inverse_table[x], f)] != den:
                return False, (frozenset([x]), frozenset([f]))
    return True, None


def _check_independence(mu):
    rep = independence_check(mu)
    assert (rep.independent, rep.witness) == _fraction_independence_check(mu)


ORACLE_GROUPS = [
    cyclic(1),
    cyclic(2),
    cyclic(5),
    cyclic(6),
    symmetric(3),
    dihedral(4),
    direct_product(cyclic(2), cyclic(2)),
    direct_product(cyclic(3), cyclic(3)),
]
ORACLE_AUTS = {g.label: automorphisms(g) for g in ORACLE_GROUPS}
# numerators over mixed denominators, some past 2^64, so the common one is large
_RAW = st.tuples(
    st.sampled_from([0, 0, 1, 2, 5, 10**20 + 7]), st.sampled_from([1, 3, 4, 7, 2**64 + 13])
)


@st.composite
def _weights(draw, g):
    """Exact weights summing to 1, with zeros and large unreduced denominators."""
    raw = [F(*draw(_RAW)) for _ in g.elements()]
    raw[draw(st.integers(0, g.order - 1))] += 1
    total = sum(raw)
    return tuple(r / total for r in raw)


@st.composite
def _measure_and_map(draw):
    g = draw(st.sampled_from(ORACLE_GROUPS))
    mu = measure(g, draw(_weights(g)))
    aut = draw(st.sampled_from(ORACLE_AUTS[g.label]))
    kind = draw(st.sampled_from(["automorphism", "power"]))
    abelian = all(g.op(a, b) == g.op(b, a) for a in g.elements() for b in g.elements())
    if kind == "power" and abelian:  # not bijective for some exponents
        return mu, power_hom(g, draw(st.integers(0, 4)))
    return mu, aut


@settings(max_examples=100, deadline=None)
@given(_measure_and_map())
def test_pushforward_and_invariance_match_fraction_sums(case):
    mu, t = case
    pushed = pushforward(mu, t)
    assert pushed.weights == _fraction_pushforward(mu, t)
    assert all(type(w) is F for w in pushed.weights)
    assert is_invariant(mu, t) == _fraction_is_invariant(mu, t)
    assert is_invariant(pushed, t) == _fraction_is_invariant(pushed, t)


@settings(max_examples=60, deadline=None)
@given(_measure_and_map(), st.integers(0, 2**32))
def test_invariant_measures_match_fraction_sums(case, seed):
    _, t = case
    if not t.bijective:
        return
    mu = random_invariant_measure(t.source, t, random.Random(seed), max_weight=10**20)
    assert is_invariant(mu, t) and _fraction_is_invariant(mu, t)
    assert pushforward(mu, t).weights == mu.weights


def test_non_invariant_measures_are_reported():
    g = cyclic(5)
    double = power_hom(g, 2)
    for weights in (["1/2", "1/2", 0, 0, 0], ["1/3", "1/3", "1/3", 0, 0], ["0", "1", 0, 0, 0]):
        mu = measure(g, weights)
        assert not _fraction_is_invariant(mu, double)
        assert not is_invariant(mu, double)
    s3 = symmetric(3)
    heavy = 5
    moved = next(t for t in automorphisms(s3) if t(heavy) != heavy)
    mu = measure(s3, [F(1, 10**20 + 7)] * 5 + [1 - F(5, 10**20 + 7)])
    assert not _fraction_is_invariant(mu, moved)
    assert not is_invariant(mu, moved)
    assert pushforward(mu, moved).weights == _fraction_pushforward(mu, moved)


@st.composite
def _any_weights(draw, g):
    """Weight tuples that may be negative, miss 1, or have the wrong length."""
    n = draw(st.sampled_from([g.order, g.order, g.order, g.order + 1]))
    weights = [F(*draw(_RAW)) * draw(st.sampled_from([1, 1, -1])) for _ in range(n)]
    if draw(st.booleans()) and sum(weights) != 0:
        weights = [w / sum(weights) for w in weights]
    return tuple(weights)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_GROUPS).flatmap(lambda g: st.tuples(st.just(g), _any_weights(g))))
def test_validation_matches_fraction_sums(case):
    g, weights = case
    try:
        _fraction_validate(g, weights)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    try:
        measure(g, weights)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(ORACLE_GROUPS + [cyclic(9), dihedral(5)]).flatmap(
        lambda g: st.one_of(_weights(g), st.just(haar(g).weights)).map(lambda w: measure(g, w))
    )
)
def test_independence_check_matches_fraction_denominator(mu):
    _check_independence(mu)


@pytest.mark.parametrize("d", [2**57 - 1, 2**57 + 1, 2**80 + 1],
                         ids=["int64", "python_ints", "python_ints_far"])
@pytest.mark.parametrize("group", [cyclic(8), dihedral(4)], ids=lambda g: g.label)
def test_independence_check_on_both_sides_of_the_int64_bound(group, d):
    # n * den < 2^63 keeps the products n * a in int64; den = 8 d puts 8 * den just
    # below 2^63 for d = 2^57 - 1 and past it for d = 2^57 + 1
    weights = [F(1, 8) - F(1, d), F(1, 8) + F(1, d)] + [F(1, 8)] * 6
    for mu in (measure(group, weights), measure(group, weights[::-1])):
        assert mu.den == 8 * d
        _check_independence(mu)
    _check_independence(haar(group))
