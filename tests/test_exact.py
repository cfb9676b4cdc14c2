"""One exact probability-vector rule for every measure's weights.

`exact.exact_vector` checks every weight vector a measure holds. These tests
run the rule through each site that holds one, compare accept/reject with the
Fraction-sum checks it replaced, and compare the integer views it returns
(a Markov measure's is its chain, `_chain`) with the ones built from the
weights' common denominator before.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import cyclic, identity_hom
from ergolab.exact import exact_vector, stationary_distribution
from ergolab.groups import measure
from ergolab.shifts import Bernoulli, Markov, Mixture, shift_haar, shift_space
from ergolab.skew import SkewMeasure, constant_cocycle, make_skew, mix_skew

C2 = cyclic(2)
SYS2 = shift_space(C2)
SKEW2 = make_skew(SYS2, C2, identity_hom(C2), constant_cocycle(SYS2, C2, 0))
HALF = (F(1, 2), F(1, 2))
B14 = Bernoulli(SYS2, measure(C2, (F(3, 4), F(1, 4))))


def _fiber(weights):
    return SkewMeasure(SKEW2, shift_haar(SYS2), weights)


# each site builds an object whose only weight vector under test is w, on two entries
SITES = {
    "DenseMeasure": lambda w: measure(C2, w),
    "Markov row": lambda w: Markov(SYS2, (w, HALF), HALF, validate=False),
    "Markov initial": lambda w: Markov(SYS2, (HALF, HALF), w, validate=False),
    "Mixture": lambda w: Mixture(SYS2, tuple(zip(w, (B14, shift_haar(SYS2))))),
    "SkewMeasure": _fiber,
    "mix_skew": lambda w: mix_skew(list(zip(w, (_fiber((1, 0)), _fiber((0, 1)))))),
}


@pytest.mark.parametrize("site", SITES)
def test_float_weight_raises_type_error_naming_it(site):
    with pytest.raises(TypeError, match="0.75"):
        SITES[site]((F(1, 4), 0.75))
    with pytest.raises(TypeError, match="0.5"):
        SITES[site]((0.5, 0.5))


@pytest.mark.parametrize("site", SITES)
def test_negative_weight_raises_value_error(site):
    with pytest.raises(ValueError, match="must be nonnegative"):
        SITES[site]((F(3, 2), F(-1, 2)))


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("weights", [(F(1, 2), F(1, 3)), (1, 1), (0, 0)], ids=["5/6", "2", "0"])
def test_sum_other_than_one_raises_value_error(site, weights):
    with pytest.raises(ValueError, match="must sum to exactly 1"):
        SITES[site](weights)


@pytest.mark.parametrize("site", SITES)
def test_exact_weights_are_accepted(site):
    SITES[site](HALF)
    SITES[site]((F(1, 3), F(2, 3)))
    SITES[site]((1, 0))


def test_stationary_markov_rejects_float_rows():
    with pytest.raises(TypeError, match="0.5"):
        Markov.stationary(SYS2, [[0.5, 0.5], ["1/2", "1/2"]])
    assert Markov.stationary(SYS2, [["1/2", "1/2"], [1, 0]]).initial == (F(2, 3), F(1, 3))


def test_exact_vector_returns_numerators_over_the_lcm():
    assert exact_vector((F(1, 6), F(1, 4), 0, F(7, 12))) == ((2, 3, 0, 7), 12)
    assert exact_vector((1,)) == ((1,), 1)
    with pytest.raises(ValueError, match="mixture weights must sum to exactly 1"):
        exact_vector((), "mixture weights")


# -- the Fraction-sum checks exact_vector replaced, as oracles --------------------


def _fraction_markov_check(n, transition, initial, validate):
    """Markov validation by Fraction sums, as done before exact_vector."""
    if len(transition) != n or any(len(r) != n for r in transition):
        raise ValueError("transition matrix must be |G| x |G|")
    for row in transition:
        if any(p < 0 for p in row):
            raise ValueError("transition probabilities must be nonnegative")
        if sum(row) != 1:
            raise ValueError("transition rows must sum to exactly 1")
    if len(initial) != n or any(p < 0 for p in initial) or sum(initial) != 1:
        raise ValueError("initial distribution must be an exact probability vector")
    if validate:
        pushed = tuple(
            sum((initial[i] * transition[i][j] for i in range(n)), F(0)) for j in range(n)
        )
        if pushed != tuple(initial):
            raise ValueError("initial distribution is not stationary for the transition")


def _fraction_weights_check(weights):
    """The mixture and fiber weight check by Fraction sums, as done before exact_vector."""
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")


def _common_den(ps):
    return math.lcm(*(p.denominator for p in ps))


def _common_den_markov_ints(mu):
    """The chain's integer view from the common denominators; a Markov chain emits its states."""
    d0 = _common_den(mu.initial)
    dt = _common_den(p for row in mu.transition for p in row)
    init = tuple(int(p * d0) for p in mu.initial)
    rows = tuple(tuple(int(p * dt) for p in row) for row in mu.transition)
    return init, d0, rows, dt, tuple(range(len(init)))


def _verdict(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


# numerators over mixed denominators, some past 2^64, so the common one is large
_RAW = st.tuples(
    st.sampled_from([0, 0, 1, 2, 5, 10**20 + 7]), st.sampled_from([1, 3, 4, 7, 2**64 + 13])
)


@st.composite
def _vector(draw, n):
    """An exact vector: a probability vector, or negative, zero or off by a factor."""
    raw = [F(*draw(_RAW)) for _ in range(n)]
    kinds = ["probability"] * 3 + ["zero", "negative", "unnormalized"]
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return tuple(F(0) for _ in raw)
    raw[draw(st.integers(0, n - 1))] += 1
    if kind == "negative":
        raw[draw(st.integers(0, n - 1))] *= -1
    total = sum(raw)
    if kind == "unnormalized" or total == 0:
        return tuple(raw)
    return tuple(r / total for r in raw)


@st.composite
def _chain(draw):
    """(n, rows, initial, validate) with stationary, non-stationary and invalid initials."""
    n = draw(st.sampled_from([1, 2, 3]))
    rows = tuple(draw(_vector(n)) for _ in range(n))
    initial = draw(_vector(n))
    if draw(st.booleans()):
        try:
            initial = stationary_distribution(rows)
        except (ValueError, ZeroDivisionError):
            pass
    return n, rows, initial, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_chain())
def test_markov_validation_matches_fraction_sums(chain):
    n, rows, initial, validate = chain
    try:
        mu = Markov(shift_space(cyclic(n)), rows, initial, validate)
    except ValueError:
        mu = None
    assert (mu is not None) == _verdict(_fraction_markov_check, n, rows, initial, validate)
    if mu is not None:
        assert mu._chain == _common_den_markov_ints(mu)


@settings(max_examples=100, deadline=None)
@given(_vector(2), st.sampled_from(["Mixture", "SkewMeasure", "mix_skew"]))
def test_weight_validation_matches_fraction_sums(weights, site):
    assert _verdict(SITES[site], weights) == _verdict(_fraction_weights_check, weights)


@settings(max_examples=60, deadline=None)
@given(_vector(2).filter(lambda w: _verdict(_fraction_weights_check, w)))
def test_fiber_numerators_match_common_denominator_view(weights):
    den = _common_den(weights)
    assert _fiber(weights)._fiber_ints == (tuple(int(w * den) for w in weights), den)


def test_markov_integer_views_match_common_denominator_view():
    rows = ((F(2, 3), F(1, 3)), (F(1, 4), F(3, 4)))
    mu = Markov.stationary(SYS2, rows)
    assert mu._chain == ((3, 4), 7, ((8, 4), (3, 9)), 12, (0, 1)) == _common_den_markov_ints(mu)
    skewed = Markov(SYS2, rows, (F(1, 5), F(4, 5)), validate=False)
    assert skewed._chain == ((1, 4), 5, ((8, 4), (3, 9)), 12, (0, 1)) == _common_den_markov_ints(skewed)
