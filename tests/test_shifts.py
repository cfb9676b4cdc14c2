import gc
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergolab import cyclic, haar, identity_hom, measure, shifts, skew, symmetric
from ergolab.acceptance import _random_stochastic_rows
from ergolab.groups import direct_product
from ergolab.entropy import block_entropy, closed_form_entropy, entropy_rate, mass_entropy
from ergolab.errors import (
    DepthLimitExceeded,
    SystemMismatch,
    UnsupportedKind,
)
from ergolab.exact import neg_xlogx
from ergolab.record import Record
from ergolab.shifts import (
    Bernoulli,
    Convolution,
    Markov,
    Mixture,
    PeriodicOrbit,
    ProductMeasure,
    ShiftMeasure,
    ShiftSystem,
    convolve_shift,
    is_shift_invariant,
    natural_extension,
    shift_haar,
    shift_space,
    verify_extension,
)
from ergolab.skew import product_system

C2 = cyclic(2)
C3 = cyclic(3)
SYS2 = shift_space(C2)
SYS3 = shift_space(C3)


def bern(p_one: str) -> Bernoulli:
    p = F(p_one)
    return Bernoulli(SYS2, measure(C2, [1 - p, p]))


def some_measures(system):
    """A representative measure of each evaluable kind on the system."""
    g = system.alphabet
    rng = random.Random(g.order)
    raw = [rng.randint(1, 9) for _ in g.elements()]
    tot = sum(raw)
    yield Bernoulli(system, measure(g, [F(r, tot) for r in raw]))
    if g.order == 2:
        yield Markov.stationary(system, [["2/3", "1/3"], ["1/3", "2/3"]])
        yield PeriodicOrbit(system, (0, 1))
        yield Mixture(
            system,
            (
                (F(1, 3), bern("1/4")),
                (F(2, 3), PeriodicOrbit(system, (0, 1))),
            ),
        )
        yield Convolution(system, bern("1/4"), PeriodicOrbit(system, (0, 1)))
    else:
        yield PeriodicOrbit(system, tuple(range(g.order)))


# -- cylinder probabilities -----------------------------------------------------


def test_bernoulli_product_law():
    b = bern("1/4")
    assert b.cylinder((0, 1)) == F(3, 4) * F(1, 4)
    assert b.cylinder(()) == 1


def test_lazy_convolution_single_symbol():
    # double sum oracle: P(b + b' = 1) = 2 * (3/4) * (1/4)
    lazy = Convolution(SYS2, bern("1/4"), bern("1/4"))
    assert lazy.cylinder((1,)) == 2 * F(3, 4) * F(1, 4) == F(3, 8)


def test_periodic_orbit_phase_enumeration():
    per = PeriodicOrbit(SYS2, (0, 1))
    assert per.cylinder((0, 1, 0)) == F(1, 2)
    assert per.cylinder((0, 0)) == 0
    assert per.cylinder((1,)) == F(1, 2)


def test_depth_guard():
    with pytest.raises(DepthLimitExceeded):
        bern("1/4").block_distribution(25)
    conv = Convolution(SYS2, bern("1/4"), bern("1/4"))
    with pytest.raises(DepthLimitExceeded):
        conv.block_distribution(25)
    # a point cylinder is a forward product on the chain, so the guard does not bound it
    assert conv.cylinder((0,) * 25) == (F(3, 4) ** 2 + F(1, 4) ** 2) ** 25


@pytest.mark.parametrize(
    "mu",
    [
        *some_measures(SYS2),
        ProductMeasure(shift_space(cyclic(4)), bern("1/4"), PeriodicOrbit(SYS2, (0, 1))),
    ],
    ids=lambda mu: mu.kind,
)
@pytest.mark.parametrize("length", [-1, -2])
def test_negative_block_length_is_rejected(mu, length):
    with pytest.raises(ValueError, match=f"block length must be >= 0, got {length}"):
        mu.block_table(length)
    with pytest.raises(ValueError, match="block length must be >= 0"):
        block_entropy(mu, length)


# -- convolution of shift measures ---------------------------------------------


def test_bernoulli_convolution_simplifies():
    conv = convolve_shift(bern("1/4"), bern("1/4"))
    assert isinstance(conv, Bernoulli)
    assert conv.marginal.weights == (F(5, 8), F(3, 8))


def test_identity_orbit_is_convolution_unit():
    delta = PeriodicOrbit(SYS2, (C2.identity,))
    for mu in some_measures(SYS2):
        conv = convolve_shift(delta, mu)
        for length in range(1, 5):
            for word in _words(2, length):
                assert conv.cylinder(word) == mu.cylinder(word)


def test_periodic_convolved_with_bernoulli():
    conv = convolve_shift(PeriodicOrbit(SYS2, (0, 1)), bern("1/4"))
    assert conv.cylinder((0,)) == F(1, 2)


def test_convolution_closure_matches_bernoulli():
    # lazy route vs simplified route agree on every cylinder up to L = 8
    lazy = Convolution(SYS2, bern("1/4"), bern("1/3"))
    closed = convolve_shift(bern("1/4"), bern("1/3"))
    for length in range(1, 9):
        ld = lazy.block_distribution(length)
        cd = closed.block_distribution(length)
        assert ld == cd


def test_haar_absorbs_at_cylinder_level():
    u = shift_haar(SYS2)
    targets = [
        bern("1/4"),
        Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]]),
        PeriodicOrbit(SYS2, (0, 1)),
    ]
    for mu in targets:
        conv = Convolution(SYS2, u, mu)
        for length in range(1, 9):
            for word, p in conv.block_distribution(length).items():
                assert p == F(1, 2**length)


def test_mixture_distributes_over_convolution():
    mu = Mixture(SYS2, ((F(1, 2), bern("1/4")), (F(1, 2), bern("1/3"))))
    conv = convolve_shift(mu, bern("1/5"))
    assert isinstance(conv, Mixture)
    direct = Convolution(SYS2, mu, bern("1/5"))
    for word in _words(2, 3):
        assert conv.cylinder(word) == direct.cylinder(word)


def test_system_mismatch():
    with pytest.raises(SystemMismatch):
        convolve_shift(bern("1/4"), Bernoulli(SYS3, haar(C3)))


# -- invariance ------------------------------------------------------------------


def test_bernoulli_invariant():
    assert is_shift_invariant(bern("1/4"), 6)


def test_forced_nonstationary_markov_detected():
    with pytest.raises(ValueError):
        Markov(SYS2, ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), (F(1, 4), F(3, 4)))
    forced = Markov(
        SYS2,
        ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        (F(1, 4), F(3, 4)),
        validate=False,
    )
    assert not is_shift_invariant(forced, 1)


def test_corrupted_transition_row_rejected():
    with pytest.raises(ValueError):
        Markov(
            SYS2,
            ((F(1, 2), F(49, 100)), (F(1, 2), F(1, 2))),
            (F(1, 2), F(1, 2)),
        )


def test_convolution_of_invariant_measures_invariant():
    conv = Convolution(
        SYS2, bern("1/4"), Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]])
    )
    assert is_shift_invariant(conv, 6)


# -- kolmogorov consistency (property) -------------------------------------------


def _words(n_symbols, length):
    if length == 0:
        yield ()
        return
    for rest in _words(n_symbols, length - 1):
        for s in range(n_symbols):
            yield rest + (s,)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4))
def test_kolmogorov_consistency(which, length):
    mu = list(some_measures(SYS2))[which]
    dist = mu.block_distribution(length)
    assert sum(dist.values()) == 1
    for word in _words(2, length - 1):
        drop_last = sum(
            (mu.cylinder(word + (s,)) for s in range(2)), F(0)
        )
        assert drop_last == mu.cylinder(word)


def test_consistency_on_symmetric3_alphabet():
    s3 = symmetric(3)
    sys_s3 = shift_space(s3)
    mu = Bernoulli(sys_s3, haar(s3))
    dist = mu.block_distribution(3)
    assert sum(dist.values()) == 1


# -- sampling ---------------------------------------------------------------------


def test_periodic_sampler_support():
    per = PeriodicOrbit(SYS2, (0, 1))
    for seed in range(5):
        w = per.sample(11, seed)
        assert all(w[i] != w[i + 1] for i in range(10))


@pytest.mark.parametrize("group", [cyclic(2), cyclic(5), symmetric(3)], ids=["C2", "C5", "S3"])
@pytest.mark.parametrize("word", [(1,), (0, 1), (0, 1, 1), (0, 1, 0, 1, 1, 1, 1)],
                         ids=lambda w: f"p{len(w)}")
def test_periodic_sampler_matches_np_tile(group, word):
    # the doubling fill gives the symbols and dtype of tiling the word and slicing at the phase
    mu = PeriodicOrbit(shift_space(group), word)
    p = len(word)
    dtype = shifts._code_dtype(group.order)
    phases = set()
    for n in sorted({0, 1, p - 1, p, p + 1, 10**6 + 1}):
        for seed in range(3):
            phase = int(np.random.default_rng(seed).integers(p))
            phases.add(phase)
            want = np.tile(np.array(word, dtype=dtype), n // p + 2)[phase : phase + n]
            got = mu.sample(n, seed)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    assert len(phases) == min(p, 2)  # seeds 0-2 start at two phases of every word longer than 1


def test_bernoulli_sampler_frequency():
    w = shift_haar(SYS2).sample(10**6, 7)
    freq = float((w == 0).mean())
    assert abs(freq - 0.5) < 0.002  # 3 sigma binomial at n = 1e6


def test_convolution_sampler_matches_exact_cylinders():
    conv = Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))
    n = 10**6
    w = conv.sample(n + 2, 13)
    for word in _words(2, 3):
        arr = np.array(word)
        hits = np.ones(n, dtype=bool)
        for j, s in enumerate(arr):
            hits &= w[j : j + n] == s
        p = float(conv.cylinder(word))
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(hits.mean() - p) < 3 * sigma + 1e-9


def test_sampler_deterministic():
    mu = Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))
    assert np.array_equal(mu.sample(1000, 5), mu.sample(1000, 5))


# -- natural extension -------------------------------------------------------------


def test_extension_bernoulli_marginals_agree():
    b = bern("1/4")
    ext = natural_extension(b)
    assert ext.system.sidedness == "two_sided"
    for length in range(1, 7):
        for word in _words(2, length):
            assert ext.cylinder(word) == b.cylinder(word)


def test_extension_markov_window_chain_rule():
    m = Markov.stationary(SYS3, [["1/2", "1/4", "1/4"], ["1/3", "1/3", "1/3"], ["1/4", "1/4", "1/2"]])
    ext = natural_extension(m)
    a, b = 0, 1
    expected = m.initial[a] * m.transition[a][b] * m.transition[b][a]
    assert ext.cylinder((a, b, a)) == expected


def test_extension_preserves_block_entropy_exactly():
    from ergolab.entropy import block_entropy

    cases = [
        bern("1/4"),
        Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]]),
        PeriodicOrbit(SYS2, (0, 1)),
    ]
    for mu in cases:
        ext = natural_extension(mu)
        for length in range(1, 11):
            assert mu.block_distribution(length) == ext.block_distribution(length)
            assert block_entropy(mu, length) == block_entropy(ext, length)


def test_verify_extension_passes():
    assert verify_extension(bern("1/4"), 6).passed
    m3 = Markov.stationary(SYS3, [["1/2", "1/4", "1/4"], ["1/3", "1/3", "1/3"], ["1/4", "1/4", "1/2"]])
    assert verify_extension(m3, 4).passed
    assert verify_extension(PeriodicOrbit(SYS2, (0, 1, 1)), 6).passed


def test_extension_of_convolution_reconvolves_factors():
    conv = Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))
    ext = natural_extension(conv)
    assert ext.kind == "convolution"
    for word in _words(2, 4):
        assert ext.cylinder(word) == conv.cylinder(word)


def test_extension_rejects_two_sided_input():
    two = Bernoulli(shift_space(C2, "two_sided"), measure(C2, ["3/4", "1/4"]))
    with pytest.raises(UnsupportedKind):
        natural_extension(two)


# -- construction invariants --------------------------------------------------------


def test_periodic_orbit_requires_primitive_word():
    with pytest.raises(ValueError):
        PeriodicOrbit(SYS2, (0, 1, 0, 1))


@pytest.mark.parametrize("word, bad", [((0, 5), 5), ((1, -1, 3), -1)])
def test_periodic_orbit_rejects_symbols_outside_the_alphabet(word, bad):
    # the tables would alias 5 to 1 while cylinder_prob((1,)) gave 0
    with pytest.raises(ValueError, match=f"symbol {bad} outside the alphabet"):
        PeriodicOrbit(SYS2, word)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        Mixture(SYS2, ((F(1, 2), bern("1/4")), (F(1, 3), bern("1/3"))))


def test_product_measure_cylinders_multiply():
    prod_sys = shift_space(cyclic(4))  # 2 x 2 alphabet indices
    pm = ProductMeasure(prod_sys, bern("1/4"), shift_haar(SYS2))
    for word in _words(4, 2):
        u = tuple(s // 2 for s in word)
        v = tuple(s % 2 for s in word)
        assert pm.cylinder(word) == bern("1/4").cylinder(u) * F(1, 2 ** len(v))


# -- integer block tables against a naive Fraction oracle ---------------------------


def _oracle_cylinder(mu, word):
    """P([word]) from the definition of a non-composite kind, in Fractions."""
    if isinstance(mu, Bernoulli):  # the product of the weights, reduced once
        weights = [mu.marginal.weights[s] for s in word]
        return F(math.prod(w.numerator for w in weights), math.prod(w.denominator for w in weights))
    if isinstance(mu, Markov):
        if not word:
            return F(1)
        p = mu.initial[word[0]]
        for a, b in zip(word, word[1:]):
            p *= mu.transition[a][b]
        return p
    if isinstance(mu, PeriodicOrbit):
        p = mu.period
        phases = [tuple(mu.word[(k + i) % p] for i in range(len(word))) for k in range(p)]
        return F(phases.count(word), p)
    raise TypeError(mu.kind)


def _oracle_dist(mu, length):
    """The nonzero length-L block probabilities, by naive Fraction sums and products."""
    dist = {}
    if isinstance(mu, Mixture):
        for w, m in mu.components:
            for word, p in _oracle_dist(m, length).items():
                dist[word] = dist.get(word, 0) + w * p
    elif isinstance(mu, (Convolution, ProductMeasure)):
        g, m = mu.system.alphabet, mu.right.system.alphabet.order
        right = _oracle_dist(mu.right, length)
        for u, p in _oracle_dist(mu.left, length).items():
            for v, q in right.items():
                if isinstance(mu, Convolution):
                    word = tuple(g.op(a, b) for a, b in zip(u, v))
                else:
                    word = tuple(a * m + b for a, b in zip(u, v))
                dist[word] = dist.get(word, 0) + p * q
    else:
        for word in itertools.product(mu.system.alphabet.elements(), repeat=length):
            dist[word] = _oracle_cylinder(mu, word)
    return {word: p for word, p in dist.items() if p != 0}


def _check_against_oracle(mu, length):
    expected = _oracle_dist(mu, length)
    assert mu.block_distribution(length) == expected
    for word in itertools.product(mu.system.alphabet.elements(), repeat=length):
        assert mu.cylinder(word) == expected.get(word, 0)
    assert block_entropy(mu, length) == math.fsum(neg_xlogx(float(p)) for p in expected.values())


def _markov_with_zeros():
    return Markov.stationary(SYS3, [["0", "1/2", "1/2"], ["1", "0", "0"], ["1/3", "1/3", "1/3"]])


@pytest.mark.parametrize("length", range(7))
@pytest.mark.parametrize(
    "make",
    [
        _markov_with_zeros,
        # state 1 is transient, so its stationary mass is 0
        lambda: Markov.stationary(SYS2, [["1", "0"], ["1/2", "1/2"]]),
        lambda: Mixture(
            SYS3,
            (
                (F(0), Bernoulli(SYS3, haar(C3))),
                (F(1, 3), PeriodicOrbit(SYS3, (0, 1, 2))),
                (F(2, 3), _markov_with_zeros()),
            ),
        ),
        lambda: Convolution(SYS3, _markov_with_zeros(), PeriodicOrbit(SYS3, (0, 0, 1))),
        # a short word matches several phases: the chain's emission is not the identity
        lambda: PeriodicOrbit(SYS3, (0, 0, 1)),
        lambda: Bernoulli(SYS3, measure(C3, ["1/4", 0, "3/4"])),
    ],
)
def test_tables_match_oracle_on_zero_entries(make, length):
    _check_against_oracle(make(), length)


def test_noncommutative_convolution_matches_oracle():
    s3 = symmetric(3)
    sys_s3 = shift_space(s3)
    bern_s3 = Bernoulli(sys_s3, measure(s3, [F(k, 21) for k in range(1, 7)]))
    orbit = PeriodicOrbit(sys_s3, (1, 2, 5))
    for left, right in ((bern_s3, orbit), (orbit, bern_s3)):
        for length in range(4):
            _check_against_oracle(Convolution(sys_s3, left, right), length)


def test_noncommutative_convolution_with_the_smaller_table_on_the_right():
    s3 = symmetric(3)
    sys_s3 = shift_space(s3)
    dense = Bernoulli(sys_s3, measure(s3, [F(k, 21) for k in range(1, 7)]))
    sparse = Bernoulli(sys_s3, measure(s3, [0, "1/5", 0, "3/10", "1/2", 0]))
    for length in range(3):
        assert len(sparse.block_table(length)) <= len(dense.block_table(length))
        for left, right in ((dense, sparse), (sparse, dense)):
            _check_against_oracle(Convolution(sys_s3, left, right), length)
    assert len(sparse.block_table(2)) < len(dense.block_table(2))


FACTOR_KINDS = ("bernoulli", "markov", "periodic_orbit", "mixture")


@st.composite
def _probabilities(draw, size):
    raw = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    raw[draw(st.integers(0, size - 1))] += 1
    return [F(r, sum(raw)) for r in raw]


@st.composite
def _factor(draw, system, kinds=FACTOR_KINDS):
    """A Bernoulli, Markov, periodic-orbit or mixture measure, zeros allowed."""
    g = system.alphabet
    kind = draw(st.sampled_from(kinds))
    if kind == "bernoulli":
        return Bernoulli(system, measure(g, draw(_probabilities(g.order))))
    if kind == "markov":
        rows = [draw(_probabilities(g.order)) for _ in g.elements()]
        try:
            return Markov.stationary(system, rows)
        except ValueError:  # no unique stationary distribution
            assume(False)
    if kind == "periodic_orbit":
        w = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=5))
        root = next(d for d in range(1, len(w) + 1) if w == w[:d] * (len(w) // d))
        return PeriodicOrbit(system, tuple(w[:root]))
    weights = draw(_probabilities(draw(st.integers(2, 3))))
    return Mixture(system, tuple((w, draw(_factor(system, FACTOR_KINDS[:3]))) for w in weights))


@st.composite
def _convolution(draw, system):
    return Convolution(system, draw(_factor(system)), draw(_factor(system)))


@st.composite
def _nested(draw, system):
    """A convolution with a factor that is a convolution or a mixture of 2-3 of them."""
    if draw(st.booleans()):
        inner = draw(_convolution(system))
    else:
        weights = draw(_probabilities(draw(st.integers(2, 3))))
        inner = Mixture(system, tuple((w, draw(_convolution(system))) for w in weights))
    outer = draw(_factor(system))
    return Convolution(system, *((inner, outer) if draw(st.booleans()) else (outer, inner)))


@st.composite
def _measure_and_length(draw):
    """A measure of any of the six kinds or a nested convolution, on C2 or C3; a length L <= 6."""
    kind = draw(st.sampled_from(FACTOR_KINDS + ("convolution", "product", "nested")))
    system = draw(st.sampled_from([SYS2, SYS3]))
    if kind == "convolution":
        mu = draw(_convolution(system))
    elif kind == "nested":
        mu = draw(_nested(system))
    elif kind == "product":
        other = draw(st.sampled_from([SYS2, SYS3]))
        mu = product_system(draw(_factor(system)), draw(_factor(other)))
    else:
        mu = draw(_factor(system, (kind,)))
    # keep the oracle's word pairs below ~10^4: |G|^2L per convolution, and a nested
    # one makes at most four such passes (three inner and the outer)
    cost = mu.system.alphabet.order ** (2 if kind in ("convolution", "nested") else 1)
    passes = 4 if kind == "nested" else 1
    return mu, draw(st.integers(0, max(L for L in range(7) if passes * cost**L <= 10**4)))


@settings(max_examples=60, deadline=None)
@given(_measure_and_length())
def test_tables_match_naive_fraction_oracle(case):
    _check_against_oracle(*case)


def test_nested_convolution_paths_merge_per_word_and_last_state():
    # the product chain has 8 states and every state path has positive mass: unmerged,
    # the level-L memo would hold 8^L paths, merged it holds at most 2^L * 8
    chains = [Markov.stationary(SYS2, [[F(1, k), 1 - F(1, k)], ["1/2", "1/2"]]) for k in (3, 5, 7)]
    mu = Convolution(SYS2, Convolution(SYS2, chains[0], chains[1]), chains[2])
    states = len(mu._chain[0])
    assert states == 8
    for length in range(1, 11):
        codes, last, _ = mu._engine.paths(length)
        assert last is not None and len(codes) <= 2**length * states, length
    table = mu.block_table(10)
    assert table.nums.sum() == table.den
    _check_against_oracle(mu, 6)


# -- table verifiers against the naive per-word loops --------------------------------


def _oracle_is_shift_invariant(mu, depth):
    """mu(T^-1 [w]) = mu([w]) word by word, one cylinder per preimage piece."""
    g = mu.system.alphabet
    for length in range(1, depth + 1):
        for word in itertools.product(g.elements(), repeat=length):
            pulled = sum((mu.cylinder((first,) + word) for first in g.elements()), F(0))
            if pulled != mu.cylinder(word):
                return False
    return True


def _oracle_verify_extension(mu, depth):
    """The witness of the first failing word, by length and then word order."""
    ext = natural_extension(mu)
    g = mu.system.alphabet
    for length in range(1, depth + 1):
        for word in itertools.product(g.elements(), repeat=length):
            a, b = mu.cylinder(word), ext.cylinder(word)
            if a != b:
                return False, f"marginal mismatch at {word}: {a} vs {b}"
    for length in range(1, depth + 1):  # append only below the depth
        for word in itertools.product(g.elements(), repeat=length):
            base = ext.cylinder(word)
            if sum((ext.cylinder((s,) + word) for s in g.elements()), F(0)) != base:
                return False, f"prepend inconsistency at {word}"
            if length < depth and sum(
                (ext.cylinder(word + (s,)) for s in g.elements()), F(0)
            ) != base:
                return False, f"append inconsistency at {word}"
    return True, ""


def _check_verifiers(mu, depth):
    assert is_shift_invariant(mu, depth) == _oracle_is_shift_invariant(mu, depth)
    if mu.system.one_sided:
        rep = verify_extension(mu, depth)
        assert (rep.passed, rep.witness) == _oracle_verify_extension(mu, depth)


@settings(max_examples=40, deadline=None)
@given(_measure_and_length())
def test_verifiers_match_naive_oracle(case):
    mu, length = case
    # the oracle makes |G|^(L+1) cylinder calls per level
    depth = max(1, min(length, 5 if mu.system.alphabet.order < 4 else 3))
    _check_verifiers(mu, depth)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([SYS2, SYS3]).flatmap(
        lambda system: st.tuples(
            st.just(system),
            st.lists(_probabilities(system.alphabet.order), min_size=system.alphabet.order,
                     max_size=system.alphabet.order),
            _probabilities(system.alphabet.order),
        )
    ),
    st.integers(1, 4),
)
def test_forced_markov_verifiers_match_naive_oracle(chain, depth):
    # an arbitrary initial row: most are not stationary, so both checks fail
    system, rows, initial = chain
    forced = Markov(system, tuple(map(tuple, rows)), tuple(initial), validate=False)
    _check_verifiers(forced, depth)


def test_unvalidated_markov_extension_reports_prepend_witness():
    forced = Markov(
        SYS2,
        ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        (F(1, 4), F(3, 4)),
        validate=False,
    )
    assert natural_extension(forced).validate is False
    for depth in (1, 3):  # at depth 1 the prepend check is the only invariance check
        rep = verify_extension(forced, depth)
        assert not rep.passed
        assert rep.witness == "prepend inconsistency at (0,)"


# -- Markov sampler against the per-step walk ---------------------------------------


def _naive_markov_walk(mu, n, seed):
    """The per-step searchsorted walk: one scalar search per symbol, same draws."""
    rng = np.random.default_rng(seed)
    n_sym = mu.system.alphabet.order
    init = np.array([float(p) for p in mu.initial])
    init /= init.sum()
    rows = np.array([[float(p) for p in row] for row in mu.transition])
    rows /= rows.sum(axis=1, keepdims=True)
    cum = np.cumsum(rows, axis=1)
    out = np.empty(n, dtype=np.int64)
    out[0] = rng.choice(n_sym, p=init)
    u = rng.random(n)
    last = n_sym - 1
    for i in range(1, n):
        idx = int(np.searchsorted(cum[out[i - 1]], u[i], side="right"))
        out[i] = idx if idx <= last else last
    return out


def _dense_chain(group, seed):
    """A chain with no zero entry in which a draw below (n + 1)/(2n + 1) sends every state to 0.

    Each row of n = |G| states is (n + 1)/(2n + 1) on state 0, 1/(2n + 1)
    elsewhere, and 1/(2n + 1) more on one state drawn per row, so the cdf rows
    cut [0, 1) into about n cells that mostly coalesce. The initial row is
    uniform, not stationary: the sampler only draws its first symbol from it.
    """
    n = group.order
    weights = np.ones((n, n), dtype=np.int64)
    weights[:, 0] = n + 1
    weights[np.arange(n), np.random.default_rng(seed).permutation(n)] += 1
    rows = tuple(tuple(F(int(w), 2 * n + 1) for w in row) for row in weights)
    return Markov(shift_space(group), rows, tuple([F(1, n)] * n), validate=False)


MARKOV_CHAINS = [
    Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]]),
    Markov.stationary(SYS2, [["0", "1"], ["1/2", "1/2"]]),
    Markov.stationary(SYS3, [["0", "1/2", "1/2"], ["1", "0", "0"], ["1/3", "1/3", "1/3"]]),
    Markov.stationary(SYS3, [["1/2", "1/4", "1/4"], ["0", "1/3", "2/3"], ["1", "0", "0"]]),
    # the flip chain: no cell sends both states to one successor, so no step coalesces
    Markov.stationary(SYS2, [["0", "1"], ["1", "0"]]),
    _dense_chain(direct_product(symmetric(4), cyclic(5)), 5),
]


@pytest.mark.parametrize("mu", MARKOV_CHAINS, ids=lambda m: f"C{m.system.alphabet.order}")
@pytest.mark.parametrize("n", [1, 2, 3, 10**4 + 3])
def test_markov_sampler_matches_per_step_walk(mu, n):
    for seed in (0, 17):
        got = mu.sample(n, seed)
        assert got.dtype == shifts._code_dtype(mu.system.alphabet.order)
        assert np.array_equal(got, _naive_markov_walk(mu, n, seed))


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("mu", MARKOV_CHAINS, ids=lambda m: f"C{m.system.alphabet.order}")
def test_markov_sampler_carries_the_walk_across_chunks(mu, chunk, monkeypatch):
    # the flip chain leaves every step to the per-step walk, so its runs cross every
    # chunk edge; the other chains' chunks start on a carried state, resolved or not
    monkeypatch.setattr(shifts, "CHUNK_SYMBOLS", chunk)
    for n in (1, chunk, chunk + 1, 2 * chunk + 3, 500):
        for seed in (0, 17):
            assert np.array_equal(mu.sample(n, seed), _naive_markov_walk(mu, n, seed)), n


def _permutation_chain(group, seed):
    """A doubly stochastic chain (so Haar is stationary) with mostly zero entries."""
    n = group.order
    rng = np.random.default_rng(seed)
    weights = np.zeros((n, n), dtype=np.int64)
    for w in (1, 1, 2):
        weights[np.arange(n), rng.permutation(n)] += w
    rows = tuple(tuple(F(int(w), 4) for w in row) for row in weights)
    return Markov(shift_space(group), rows, tuple([F(1, n)] * n))


@pytest.mark.parametrize(
    "group", [cyclic(64), direct_product(symmetric(4), cyclic(3))], ids=["C64", "S4xC3"]
)
def test_markov_sampler_matches_per_step_walk_on_large_alphabets(group):
    mu = _permutation_chain(group, 5)
    for n, seed in ((1, 0), (2, 1), (3000, 2)):
        assert np.array_equal(mu.sample(n, seed), _naive_markov_walk(mu, n, seed))


def test_code_dtype_is_the_narrowest_that_holds_the_codes():
    # never uint64: uint64 with int64 promotes to float64
    for n_codes, dtype in [(1, np.uint8), (2**8, np.uint8), (2**8 + 1, np.uint16),
                           (2**16, np.uint16), (2**16 + 1, np.uint32), (2**32, np.uint32),
                           (2**32 + 1, np.int64), (2**63, np.int64)]:
        assert shifts._code_dtype(n_codes) == dtype, n_codes


class _FixedDraws:
    """Stands in for a numpy Generator: first state 0, then the given uniforms, in order."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def choice(self, n, p):
        return 0

    def random(self, n):
        out, self.draws = self.draws[:n].copy(), self.draws[n:]
        return out


def test_markov_sampler_matches_per_step_walk_on_draws_at_row_bounds(monkeypatch):
    # a draw equal to a cumulative bound moves past it, and a draw at or above a
    # row total that rounds below 1 (C10 uniform rows sum to 1 - 2**-53) takes
    # the last state; random draws almost never hit either case
    for mu in MARKOV_CHAINS + [Markov.stationary(shift_space(cyclic(10)), [["1/10"] * 10] * 10)]:
        n_sym = mu.system.alphabet.order
        rows = np.array([[float(p) for p in row] for row in mu.transition])
        rows /= rows.sum(axis=1, keepdims=True)
        bounds = np.unique(np.cumsum(rows, axis=1))
        draws = np.concatenate([[0.0], bounds, [np.nextafter(1.0, 0.0)], bounds[::-1]])
        draws = np.tile(draws, n_sym + 1)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws(draws))
        assert np.array_equal(mu.sample(len(draws), 0), _naive_markov_walk(mu, len(draws), 0))
        monkeypatch.undo()


def test_markov_sampler_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, which costs a process about 10 ms;
    # a fresh interpreter, because this one may have imported it already
    code = f"""
import sys
sys.path.insert(0, {str(Path(shifts.__file__).parents[1])!r})
from ergolab import cyclic
from ergolab.shifts import Markov, shift_space
mu = Markov.stationary(shift_space(cyclic(2)), [["2/3", "1/3"], ["1/3", "2/3"]])
mu.sample(1000, 0)  # its cells coalesce, so the cell table is built
assert "numpy.ma" not in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], check=True)


def test_markov_sample_of_length_zero_is_empty():
    # like every other kind; the per-step walk raised IndexError here
    for mu in MARKOV_CHAINS + [bern("1/4"), PeriodicOrbit(SYS2, (0, 1))]:
        got = mu.sample(0, 3)
        assert got.shape == (0,)
        assert got.dtype == shifts._code_dtype(mu.system.alphabet.order)


SIX_KINDS = [
    bern("1/4"),
    MARKOV_CHAINS[0],
    PeriodicOrbit(SYS2, (0, 1, 1)),
    Mixture(SYS2, ((F(1, 3), bern("1/4")), (F(2, 3), PeriodicOrbit(SYS2, (0, 1, 1))))),
    Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1, 1))),
    product_system(bern("1/4"), MARKOV_CHAINS[0]),
]


@pytest.mark.parametrize("mu", SIX_KINDS, ids=lambda m: m.kind)
def test_samplers_reject_a_negative_length(mu):
    # Bernoulli and Markov raised numpy's negative-dimensions error, and a periodic
    # orbit returned an empty array or raised a broadcast error, by its word
    for n in (-1, -2, -(10**6)):
        with pytest.raises(ValueError, match=f"sample length must be >= 0, got n={n}"):
            mu.sample(n, 3)
    got = mu.sample(0, 3)
    assert got.shape == (0,)
    assert got.dtype == shifts._code_dtype(mu.system.alphabet.order)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([SYS2, SYS3]).flatmap(
        lambda system: st.tuples(
            st.just(system),
            st.lists(_probabilities(system.alphabet.order), min_size=system.alphabet.order,
                     max_size=system.alphabet.order),
            _probabilities(system.alphabet.order),
        )
    ),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
def test_markov_sampler_matches_per_step_walk_on_random_chains(chain, n, seed):
    system, rows, initial = chain
    mu = Markov(system, tuple(map(tuple, rows)), tuple(initial), validate=False)
    assert np.array_equal(mu.sample(n, seed), _naive_markov_walk(mu, n, seed))


# -- Bernoulli and convolution samplers against the calls they replace ----------------


CHUNK = shifts.CHUNK_SYMBOLS
CHUNK_EDGES = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


@pytest.mark.parametrize("a, b", [(0, 5), (1, 1), (3, 10**4), (CHUNK, 1), (CHUNK - 1, CHUNK + 7)])
def test_generator_random_in_two_calls_is_one_stream(a, b):
    # the samplers draw their uniforms a chunk at a time, bit-identical to one draw of
    # them all only while Generator.random turns each 64-bit output into one double
    whole, split = np.random.default_rng(5), np.random.default_rng(5)
    first, second = split.random(a), split.random(b)
    assert np.array_equal(np.concatenate([first, second]), whole.random(a + b))
    assert np.array_equal(split.random(3), whole.random(3))


def _choice_oracle(mu, n, seed):
    """Generator.choice with float probabilities: the Bernoulli sampler's own stream."""
    probs = np.array([float(w) for w in mu.marginal.weights])
    probs /= probs.sum()
    return np.random.default_rng(seed).choice(mu.system.alphabet.order, size=n, p=probs)


def _bernoulli_with_zero(k, zero_at):
    raw = [int(r) for r in np.random.default_rng(k).integers(1, 6, size=k)]
    raw[zero_at] = 0
    return Bernoulli(shift_space(cyclic(k)), measure(cyclic(k), [F(r, sum(raw)) for r in raw]))


BERNOULLI_CASES = [
    _bernoulli_with_zero(k, at)
    for k in (2, 3, 8, 9, 24, 65, 120)
    for at in sorted({0, k // 2, k - 1})  # a zero weight first, in the middle, last
]


@pytest.mark.parametrize("mu", BERNOULLI_CASES,
                         ids=lambda m: f"C{m.system.alphabet.order}-{m.marginal.weights.index(0)}")
@pytest.mark.parametrize("cut_over", [None, 0, 10**3], ids=["shipped", "search", "count"])
def test_bernoulli_sampler_matches_rng_choice(mu, cut_over, monkeypatch):
    if cut_over is not None:
        monkeypatch.setattr(shifts, "BERNOULLI_COUNT_MAX_SYMBOLS", cut_over)
    for n in (0, 1, 10**5 + 3):
        for seed in (0, 17):
            got = mu.sample(n, seed)
            assert got.dtype == shifts._code_dtype(mu.system.alphabet.order)
            assert np.array_equal(got, _choice_oracle(mu, n, seed))
    if mu.marginal.weights.index(0) == 0:  # one zero position per alphabet at the chunk edges
        for n in CHUNK_EDGES:
            assert np.array_equal(mu.sample(n, 5), _choice_oracle(mu, n, 5)), n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**70), min_size=2, max_size=6).filter(any))
def test_marginal_floats_are_the_fraction_floats(raw):
    # the sampler turns numerators into floats by n / den, correctly rounded as float(Fraction) is
    mu = measure(cyclic(len(raw)), [F(r, sum(raw)) for r in raw])
    assert [n / mu.den for n in mu.nums] == [float(w) for w in mu.weights]


@pytest.mark.parametrize("raw", [(1, 2**70, 3), (2**64 + 13, 10**20 + 7, 1, 5, 0)],
                         ids=["C3", "C5"])
def test_bernoulli_sampler_matches_rng_choice_on_large_denominators(raw):
    g = cyclic(len(raw))
    mu = Bernoulli(shift_space(g), measure(g, [F(r, sum(raw)) for r in raw]))
    for seed in (0, 17):
        assert np.array_equal(mu.sample(10**4 + 3, seed), _choice_oracle(mu, 10**4 + 3, seed))


@pytest.mark.parametrize("cut_over", [0, 10**3], ids=["search", "count"])
def test_bernoulli_sampler_on_draws_at_cdf_bounds(cut_over, monkeypatch):
    # a draw equal to a bound lies past it, as in searchsorted(side="right"), which
    # Generator.choice runs on its cdf; random draws almost never hit a bound. Chunks
    # of 7 draws end inside the bounds' run, so the draws come in several calls
    monkeypatch.setattr(shifts, "BERNOULLI_COUNT_MAX_SYMBOLS", cut_over)
    monkeypatch.setattr(shifts, "CHUNK_SYMBOLS", 7)
    for mu in BERNOULLI_CASES:
        probs = np.array([float(w) for w in mu.marginal.weights])
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        draws = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0.0),
                                [np.nextafter(1.0, 0.0)]])
        draws = draws[draws < 1.0]  # Generator.random draws from [0, 1)
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", lambda seed: _FixedDraws(draws))
            got = mu.sample(len(draws), 0)
        assert np.array_equal(got, cdf.searchsorted(draws, side="right"))


def test_convolution_sampler_matches_2d_index():
    s3 = symmetric(3)
    sys_s3 = shift_space(s3)
    bern_s3 = Bernoulli(sys_s3, measure(s3, [F(k, 21) for k in range(1, 7)]))
    orbit = PeriodicOrbit(sys_s3, (1, 2, 5))
    for left, right in ((bern_s3, orbit), (orbit, bern_s3)):
        for n, seed in ((0, 0), (1, 4), (10**4 + 3, 9), *((n, 2) for n in CHUNK_EDGES)):
            got = Convolution(sys_s3, left, right).sample(n, seed)
            want = s3.np_op[left.sample(n, _child(seed, 0)), right.sample(n, _child(seed, 1))]
            assert got.dtype == shifts._code_dtype(s3.order)
            assert np.array_equal(got, want)


def test_convolution_sample_keeps_its_working_memory_to_a_chunk():
    # one pass over all 10^6 symbols held their float64 uniforms and the intp copy of
    # the gather index, about a 10 MB peak; the narrow operands and output take 2 MB
    mu = Convolution(SYS2, bern("5/17"), PeriodicOrbit(SYS2, (0, 0, 1)))
    mu.sample(10, 0)  # numpy's first-call set-up is not working memory
    tracemalloc.start()
    try:
        mu.sample(10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 10**6


def test_markov_sample_keeps_its_working_memory_to_a_chunk():
    # one pass over all 10^6 steps held their float64 uniforms, cells and flags,
    # about an 18 MB peak; the uint8 walk takes 1 MB
    mu = Markov.stationary(SYS2, [["7/17", "10/17"], ["9/17", "8/17"]])
    mu.sample(10, 0)  # numpy's first-call set-up is not working memory
    tracemalloc.start()
    try:
        mu.sample(10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 10**6


def _int64_sample(mu, n, seed):
    """What mu.sample draws, composed in int64: each leaf from its own oracle, the pair
    codes and the op table in int64, and a mixture's choice redrawn from its stream."""
    if isinstance(mu, Bernoulli):
        return _choice_oracle(mu, n, seed)
    if isinstance(mu, Markov):
        return _naive_markov_walk(mu, n, seed)
    if isinstance(mu, PeriodicOrbit):
        phase = int(np.random.default_rng(seed).integers(mu.period))
        return np.array(mu.word, dtype=np.int64)[(phase + np.arange(n)) % mu.period]
    if isinstance(mu, Mixture):
        u = np.random.default_rng(shifts._child_stream(seed, 0)).random()
        bounds = itertools.accumulate(float(w) for w, _ in mu.components)
        chosen = next((m for (_, m), b in zip(mu.components, bounds) if u < b), mu.components[-1][1])
        return _int64_sample(chosen, n, shifts._child_stream(seed, 1))
    u, v = (_int64_sample(part, n, shifts._child_stream(seed, i))
            for i, part in enumerate((mu.left, mu.right)))
    if isinstance(mu, Convolution):
        return mu.system.alphabet.np_op[u, v]
    return u * mu.right.system.alphabet.order + v


def _random_bernoulli(group, seed):
    raw = [int(r) for r in np.random.default_rng(seed).integers(1, 6, size=group.order)]
    return Bernoulli(shift_space(group), measure(group, [F(r, sum(raw)) for r in raw]))


SYS_120 = shift_space(direct_product(symmetric(4), cyclic(5)))  # |G|^2 pair codes need uint16
_BERN_120 = _random_bernoulli(SYS_120.alphabet, 1)  # past BERNOULLI_COUNT_MAX_SYMBOLS: the search path
_ORBIT_120 = PeriodicOrbit(SYS_120, (7, 119, 64, 3))
_MARKOV_120 = _dense_chain(SYS_120.alphabet, 2)
WIDENING_CASES = [
    pytest.param(Convolution(SYS_120, _BERN_120, _ORBIT_120), id="convolution-120"),
    pytest.param(product_system(_random_bernoulli(cyclic(17), 3), _permutation_chain(cyclic(17), 4)),
                 id="product-289"),
    pytest.param(_BERN_120, id="bernoulli-120"),
    pytest.param(_random_bernoulli(cyclic(300), 5), id="bernoulli-300"),
    pytest.param(Mixture(SYS_120, ((F(1, 2), Convolution(SYS_120, _ORBIT_120, _MARKOV_120)),
                                   (F(1, 2), _BERN_120))), id="mixture-120"),
    pytest.param(Convolution(SYS_120, Convolution(SYS_120, _BERN_120, _MARKOV_120),
                             Convolution(SYS_120, _ORBIT_120, _BERN_120)), id="nested-120"),
]


@pytest.mark.parametrize("mu", WIDENING_CASES)
def test_samplers_widen_before_arithmetic_on_symbols(mu):
    # symbols come in _code_dtype(|G|), and uint8 arithmetic wraps silently: each
    # pair code must be built in a dtype that holds it
    for n, seed in ((1, 0), (10**4 + 3, 9), (10**4 + 3, 10)):
        got = mu.sample(n, seed)
        assert got.dtype == shifts._code_dtype(mu.system.alphabet.order)
        assert np.array_equal(got, _int64_sample(mu, n, seed))


def _child(seed, i):
    """Child i of an int seed's stream, as SeedSequence(seed).spawn(i + 1)[i] would give it."""
    return np.random.SeedSequence(seed, spawn_key=(i,))


def test_nested_convolution_samples_its_exact_cylinders():
    # (A*B)*(C*D): when B and C drew from one stream they cancelled, and the
    # sample was A*D, with P([1]) = 0.382 where the measure has 16/35 = 0.457
    mu = Convolution(SYS2, Convolution(SYS2, bern("1/3"), bern("1/5")),
                     Convolution(SYS2, bern("1/5"), bern("1/7")))
    assert mu.cylinder((1,)) == F(16, 35)
    n = 10**6
    w = mu.sample(n + 1, 0)
    for word in itertools.chain(_words(2, 1), _words(2, 2)):
        hits = np.ones(n, dtype=bool)
        for j, s in enumerate(word):
            hits &= w[j : j + n] == s
        p = float(mu.cylinder(word))
        assert abs(hits.mean() - p) < 3 * (p * (1 - p) / n) ** 0.5


def test_no_two_leaves_of_a_measure_tree_share_a_stream(monkeypatch):
    streams = []
    for cls in (Bernoulli, Markov, PeriodicOrbit):
        def recording(self, n, seed, _sample=cls.sample):
            if not isinstance(seed, np.random.SeedSequence):
                seed = np.random.SeedSequence(seed)
            streams.append((seed.entropy, seed.spawn_key))
            return _sample(self, n, seed)
        monkeypatch.setattr(cls, "sample", recording)
    b, m = bern("1/4"), Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]])
    per = PeriodicOrbit(SYS2, (0, 1))
    # every leaf appears more than once, in both positions and under a mixture
    either = Mixture(SYS2, ((F(1, 2), Convolution(SYS2, per, b)),
                            (F(1, 2), Convolution(SYS2, b, m))))
    tree = product_system(Convolution(SYS2, Convolution(SYS2, b, m), either), Mixture(
        SYS2, ((F(1, 3), b), (F(2, 3), Convolution(SYS2, m, per)))))
    for seed in range(6):  # consecutive seeds, as a Birkhoff report draws them
        tree.sample(50, seed)
    assert len(streams) >= 6 * 5
    assert len(set(streams)) == len(streams)


@pytest.mark.parametrize(
    "leaf",
    [bern("1/4"), Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]]),
     PeriodicOrbit(SYS2, (0, 0, 1))],
    ids=["bernoulli", "markov", "orbit"],
)
def test_leaves_draw_alike_from_an_int_and_its_seed_sequence(leaf):
    for seed in (0, 7, 2**40):
        want = leaf.sample(1000, seed)
        assert want.tobytes() == leaf.sample(1000, np.random.SeedSequence(seed)).tobytes()


# -- first difference against a union1d reference ---------------------------------


def _union1d_first_difference(a, b):
    codes = np.union1d(a.codes, b.codes)
    # cross-multiplied in Python ints, which int64 numerators would wrap past 2^63
    mass_a, mass_b = a.lookup(codes).astype(object), b.lookup(codes).astype(object)
    differs = np.flatnonzero(mass_a * b.den != mass_b * a.den)
    if len(differs) == 0:
        return None
    return tuple((codes[differs[0]] // shifts._place_values(a.base, a.length) % a.base).tolist())


@st.composite
def _table_pair(draw):
    """Two same-length tables: equal supports, disjoint supports, or any, maybe scaled."""
    base, length = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    size = base**length
    mode = draw(st.sampled_from(["equal", "disjoint", "any"]))
    first = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(size, 40)))
    if mode == "equal":
        second = first
    elif mode == "disjoint":
        rest = sorted(set(range(size)) - first)
        assume(rest)
        second = draw(st.sets(st.sampled_from(rest), min_size=1, max_size=40))
    else:
        second = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=40))
    tables = []
    for support in (first, second):
        codes = np.array(sorted(support), dtype=np.int64)
        nums = np.array([draw(st.integers(0, 3)) for _ in codes], dtype=object)
        den = draw(st.sampled_from([1, 2, 6, 2**70]))
        table = shifts.BlockTable(base, length, codes, nums, den)
        if draw(st.booleans()):  # w times the table, for w >= 0
            w = draw(st.sampled_from([F(0), F(1, 3), F(5, 2)]))
            table = shifts.BlockTable(base, length, codes, nums * w.numerator, den * w.denominator)
        tables.append(table)
    if mode == "equal" and draw(st.booleans()):  # the same masses over another denominator
        a = tables[0]
        tables[1] = shifts.BlockTable(base, length, a.codes, a.nums * 7, a.den * 7)
    return tables


@settings(max_examples=150, deadline=None)
@given(_table_pair())
def test_first_difference_matches_union1d_reference(pair):
    a, b = pair
    assert shifts._first_difference(a, b) == _union1d_first_difference(a, b)
    assert shifts._first_difference(b, a) == _union1d_first_difference(b, a)


# -- numerators at the 2^63 boundary ------------------------------------------------


def test_table_numerators_are_int64_below_a_2_63_denominator_and_python_ints_past_it():
    # den = 17^L, and 17^15 < 2^63 < 17^16
    mu = bern("12/17")
    for length, dtype in ((15, np.int64), (16, object)):
        table = mu.block_table(length)
        assert table.den == 17**length and table.nums.dtype == dtype
        assert mu.block_distribution(length) == _oracle_dist(mu, length)


class _StartedChain(ShiftMeasure, Record):
    """The output of an integer chain `_chain` whose start need not be stationary."""

    system: ShiftSystem
    _chain: tuple
    kind = "started_chain"


def test_first_witness_where_the_squared_denominator_passes_2_63_is_found():
    # a 9-cycle emitting 0^8 1, started at (8, 1, ..., 1) / 16: the start and its shift differ
    # on phases 0 and 1 alone, whose futures first part at the eighth symbol
    cycle = tuple(tuple(int(t == (s + 1) % 9) for t in range(9)) for s in range(9))
    started = _StartedChain(SYS2, ((8,) + (1,) * 8, 16, cycle, 1, (0,) * 8 + (1,)))
    # a /64 Bernoulli half lifts den to 2^(6L + 1); the mass differences stay multiples of
    # 1/32, so the cross-multiplied ones are multiples of 2^64, which int64 wraps to 0
    mu = Mixture(SYS2, ((F(1, 2), started), (F(1, 2), bern("1/64"))))
    for length in (8, 9):
        table = mu.block_table(length)
        assert table.den == 2 ** (6 * length + 1) and table.nums.dtype == np.int64
    assert mu.block_table(8).den * mu.block_table(9).den > 2**63
    assert is_shift_invariant(mu, 7)
    assert not is_shift_invariant(mu, 8)
    rep = verify_extension(mu, 9)
    assert not rep.passed and rep.witness.startswith("prepend inconsistency at ")
    _check_verifiers(mu, 9)


def test_invariance_across_the_2_63_denominator():
    # the length-15 table is int64 and the length-16 one Python ints; 17 times the
    # numerator 16^15 of 0^15 passes 2^63
    mu = bern("1/17")
    assert mu.block_table(15).nums.dtype == np.int64 and mu.block_table(16).nums.dtype == object
    assert is_shift_invariant(mu, 15)
    assert verify_extension(mu, 15).passed


# -- levels past 2^63, and their entropy from types ----------------------------------


def _criterion_5_chains(seed=505):
    """Criterion 5's ten chains at a seed (its own is 505): six on C2, then four on C3."""
    rng = random.Random(seed)
    return [Markov.stationary(shift_space(cyclic(n)), _random_stochastic_rows(rng, n))
            for n in (2,) * 6 + (3,) * 4]


def _plain_paths(mu, length):
    """The identity-emission levels 1..L as (codes, numerators), by the plain
    `nums[:, None] * rows[prev]` product over Python ints."""
    n = mu.system.alphabet.order
    init, _, rows, _, _ = mu._chain
    rows = np.array(rows + (init,), dtype=object)
    codes, prev, nums = np.zeros(1, np.int64), np.array([len(init)]), np.ones(1, dtype=object)
    levels = []
    for _ in range(length):
        keep = rows[prev] != 0
        codes, nums = (codes[:, None] * n + np.arange(n))[keep], (nums[:, None] * rows[prev])[keep]
        prev = codes % n
        levels.append((codes, nums))
    return levels


def _markov_oracle_levels(mu, length):
    """P([w]) for every word of lengths 1..L in code order, one Fraction product per word."""
    n = mu.system.alphabet.order
    words, probs = [(a,) for a in range(n)], list(mu.initial)
    levels = [probs]
    for _ in range(length - 1):
        probs = [p * mu.transition[w[-1]][b] for w, p in zip(words, probs) for b in range(n)]
        words = [w + (b,) for w in words for b in range(n)]
        levels.append(probs)
    return levels


def _table_entropy(table):
    """H of a table by `mass_entropy` over its distinct numerators, one logarithm each."""
    return mass_entropy(*np.unique(table.nums, return_counts=True), table.den)


def _emits_its_state(mu):
    """Whether `block_entropy` reads the chain's types (else its forward-vector classes)."""
    return mu._chain[4] == tuple(range(mu.system.alphabet.order))


def _type_masses(mu, length):
    """The masses of the length-L types as numerators over `mu._engine.den(L)`, exactly, and how
    many words each type holds."""
    _, nums, dens, types, _, counts = mu._engine.types(length)
    den = mu._engine.den(length)
    dens = dens.tolist() if isinstance(dens, np.ndarray) else [dens] * len(nums)
    assert all(den % d == 0 for d in dens)
    return ([num * (den // d) for num, d in zip(nums.tolist(), dens)],
            np.bincount(types, counts, len(nums)).astype(np.int64).tolist())


def _type_mass_counter(mu, length):
    """The words of each mass, summed over the types that share it."""
    merged = Counter()
    for mass, count in zip(*_type_masses(mu, length)):
        merged[mass] += count
    return merged


def _check_wide_levels(mu, L_max, first_wide):
    """Every table up to L_max equals the plain product, in Python ints exactly past 2^63.
    Every H_L comes from the types, whose masses are the table's past 2^63; every H_L
    equals the table's sum and, up to 2^16 words, the per-word sum."""
    assert [mu._engine.den(length) >= 2**63 for length in range(1, first_wide + 1)] == [
        False] * (first_wide - 1) + [True]
    assert _emits_its_state(mu)
    for length, (codes, nums) in enumerate(_plain_paths(mu, L_max), start=1):
        table = mu.block_table(length)
        assert np.array_equal(table.codes, codes) and table.den == mu._engine.den(length)
        assert table.nums.dtype == (object if length >= first_wide else np.int64)
        assert table.nums.tolist() == nums.tolist(), length
        if length >= first_wide:
            assert _type_mass_counter(mu, length) == Counter(nums.tolist())
        h = block_entropy(mu, length)
        assert length in mu._engine.type_memo and h == _table_entropy(table), length
        if len(nums) <= 2**16:  # the per-entry sum, the oracle of the distinct-mass sum
            den = table.den
            assert h == math.fsum(neg_xlogx(num / den) for num in nums.tolist())


@pytest.mark.parametrize("case", [6, 9])
def test_wide_markov_levels_match_the_plain_product_and_the_fraction_oracle(case):
    # the two C3 chains of criterion 5 whose denominators pass 2^63 at L = 6
    mu = _criterion_5_chains()[case]
    _check_wide_levels(mu, 10, 6)
    assert mu._engine.type_memo[0][0] is not None
    for length, probs in enumerate(_markov_oracle_levels(mu, 10), start=1):
        table = mu.block_table(length)
        den = table.den
        assert len(table) == len(probs)
        assert all(p.numerator * den == num * p.denominator
                   for p, num in zip(probs, table.nums.tolist())), length


def test_wide_product_levels_match_the_plain_product_and_the_fraction_oracle():
    # C2 x C2: the product's denominator passes 2^63 at L = 8
    markov = Markov.stationary(SYS2, [["1/3", "2/3"], ["2/5", "3/5"]])
    mu = product_system(markov, bern("16/17"))
    _check_wide_levels(mu, 10, 8)
    assert mu.block_distribution(8) == _oracle_dist(mu, 8)


def test_skew_joint_over_a_base_past_2_63_matches_the_plain_product():
    # the base's window paths pass 2^63; a copy whose own levels (an equal chain shares base's
    # otherwise) hold the plain product's paths gives the same joint chain and tables.
    # Staying has mass a and moving b, so paths with as many moves share a mass: ab = ba at
    # L = 3
    q = 2**62 + 3
    a, b = F(15, q), F(2**61 - 6, q)
    base = Markov.stationary(SYS3, [[a, b, b], [b, a, b], [b, b, a]])
    k = 3
    assert base._engine.den(1) < 2**63 <= base._engine.den(2)
    system = skew.make_skew(SYS3, C2, identity_hom(C2),
                            {w: sum(w) % 2 for w in itertools.product(range(3), repeat=k)})
    plain = Markov(SYS3, base.transition, base.initial)
    vars(plain)["_engine"] = shifts._Levels(base._engine.key, plain.kind)
    for length, (codes, nums) in enumerate(_plain_paths(plain, k), start=1):
        plain._engine.path_memo[length] = (codes, None, nums)
    mu, ref = skew.haar_extension(base, system), skew.haar_extension(plain, system)
    assert mu.joint._chain == ref.joint._chain
    assert base._engine.paths(k)[2].dtype == object
    for length in range(1, 6):
        a, b = mu.joint.block_table(length), ref.joint.block_table(length)
        assert np.array_equal(a.codes, b.codes) and a.nums.tolist() == b.nums.tolist()
        assert a.den == b.den


def test_hidden_emission_table_past_2_63_matches_the_fraction_oracle():
    # a convolution's levels past 2^63 multiply Python-int numerators by the object rows
    rng = random.Random(2063)
    raw = [[rng.randint(1, 2**12) for _ in range(3)] for _ in range(3)]
    markov = Markov.stationary(SYS3, [[F(x, sum(row)) for x in row] for row in raw])
    mu = Convolution(SYS3, markov, PeriodicOrbit(SYS3, (0, 1, 2)))
    wide = [length for length in range(1, 6) if mu._engine.den(length) >= 2**63]
    assert wide and wide[0] > 1
    for length in range(1, 6):
        table = mu.block_table(length)
        assert table.nums.dtype == (object if length in wide else np.int64)
        assert mu.block_distribution(length) == _oracle_dist(mu, length), length


def test_many_distinct_row_entries_merge_types_by_mass():
    # 8 states and 72 distinct row entries, and d0 past 2^63: 25^72 keys pass int64, so
    # the types merge by their masses, Python-int numerators over the common denominator
    rng = random.Random(808)
    raw = [[rng.randint(1, 2**20) for _ in range(8)] for _ in range(8)]
    mu = Markov.stationary(shift_space(cyclic(8)), [[F(x, sum(row)) for x in row] for row in raw])
    assert len(np.unique(mu._engine.steps[2])) == 72 and mu._engine.type_memo[0][0] is None
    _check_wide_levels(mu, 4, 1)
    assert mu._engine.types(4)[0] is None


def _wide_markov_with_zero_init():
    # state 0 starts with mass 0: the chain's init is not stationary, which validate=False
    # allows, and its tables are still the forward products
    rows = _wide_markov(3, 70).transition
    return Markov(SYS3, rows, (F(0), F(1, 3), F(2, 3)), validate=False)


def _wide_s3_markov():
    # 6 states with distinct rows: 36 transition entries and 6 initial ones
    rng = random.Random(306)
    raw = [[rng.randint(1, 2**16) for _ in range(6)] for _ in range(6)]
    return Markov.stationary(shift_space(symmetric(3)),
                             [[F(x, sum(row)) for x in row] for row in raw])


def _product_over_17_squared():
    # the shape of the benchmark's C2 x C2 product: entries over 17^2, past 2^63 at L = 8
    markov = Markov.stationary(SYS2, [["5/17", "12/17"], ["9/17", "8/17"]])
    return product_system(markov, bern("7/17"))


def _markov_with_entries_past_2_63():
    q = 2**64 + 13
    return Markov.stationary(SYS2, [[F(15, q), F(q - 15, q)], [F(q - 2, q), F(2, q)]])


TYPE_CASES = [
    ("criterion_5_generator_seed_506_c2", lambda: _criterion_5_chains(506)[2], 9),
    ("criterion_5_generator_seed_506_c3", lambda: _criterion_5_chains(506)[6], 7),
    ("criterion_5_generator_seed_507_c3", lambda: _criterion_5_chains(507)[7], 7),
    ("criterion_5_generator_seed_508_c3", lambda: _criterion_5_chains(508)[9], 7),
    ("s3_merged_by_mass", _wide_s3_markov, 3),
    ("zero_row_entries", lambda: _wide_markov(3, 63), 6),
    ("zero_init_entry", _wide_markov_with_zero_init, 6),
    ("markov_x_bernoulli", lambda: product_system(_wide_markov(2, 65), bern("5/17")), 5),
    ("bernoulli_x_markov", lambda: product_system(bern("16/17"), _wide_markov(2, 66)), 5),
    ("markov_x_periodic_01", lambda: product_system(_wide_markov(2, 67),
                                                    PeriodicOrbit(SYS2, (0, 1))), 6),
    ("entries_past_2_63", _markov_with_entries_past_2_63, 3),
]


@pytest.mark.parametrize("make, length", [pytest.param(make, length, id=name)
                                          for name, make, length in TYPE_CASES])
def test_type_entropy_matches_the_table_and_the_fraction_oracle(make, length):
    mu = make()
    assert _emits_its_state(mu) and mu._engine.den(length) >= 2**63
    for ell in range(1, length + 1):
        oracle = _oracle_dist(mu, ell)
        expected = math.fsum(neg_xlogx(float(p)) for p in oracle.values())
        table = mu.block_table(ell)
        assert block_entropy(mu, ell) == _table_entropy(table) == expected, ell
        assert _type_mass_counter(mu, ell) == Counter(table.nums.tolist()), ell


def _type_regime(mu, length):
    """How level L holds its masses: int64 fractions whose quotients are float64 divisions
    or Python int / int, Python-int fractions, or, merged by mass, Python-int numerators
    over one denominator."""
    keys, nums, dens, *_ = mu._engine.types(length)
    if keys is None:
        assert dens == mu._engine.den(length)
        assert nums.dtype == shifts._num_dtype((dens + 1) * len(mu._chain[0]))
        return "merged_by_mass"
    assert nums.dtype == dens.dtype and (nums <= dens).all()
    if dens.dtype == object:
        return "python_ints"
    return "float64_quotients" if (dens < 2**53).all() else "int_quotients"


def test_type_cases_reach_what_they_name():
    made = {name: make() for name, make, _ in TYPE_CASES}
    # the regimes of the levels past 2^63, where tables hold Python ints
    regimes = {name: [_type_regime(mu, ell) for ell in range(1, length + 1)
                      if mu._engine.den(ell) >= 2**63]
               for (name, mu), (_, _, length) in zip(made.items(), TYPE_CASES)}
    for name, mu in made.items():
        assert (mu._engine.type_memo[0][0] is None) == (name == "s3_merged_by_mass"), name
    assert set(regimes["s3_merged_by_mass"]) == {"merged_by_mass"}
    for name in [name for name in made if name.startswith("criterion_5")]:
        assert set(regimes[name]) == {"float64_quotients"}, name
    assert regimes["zero_row_entries"] == ["float64_quotients"] * 2 + [
        "int_quotients"] + ["python_ints"] * 2
    # the product's int64 fractions pass 2^63 at L = 8, its first level past 2^63 (the
    # oracle of its tables is test_wide_product_levels_match_the_plain_product_...)
    product = _product_over_17_squared()
    assert [_type_regime(product, ell) for ell in (6, 7, 8)] == [
        "float64_quotients", "int_quotients", "python_ints"]
    assert [product._engine.den(ell) >= 2**63 for ell in (7, 8)] == [False, True]
    assert block_entropy(product, 8) == _table_entropy(product.block_table(8))
    assert regimes["entries_past_2_63"] == ["python_ints"] * 3
    assert made["entries_past_2_63"]._engine.steps[2].dtype == object
    assert len(np.unique(made["s3_merged_by_mass"]._engine.steps[2])) > 12
    assert (made["zero_row_entries"]._engine.arrays[0] == 0).any()
    assert made["zero_init_entry"]._chain[0][0] == 0
    for name in ("markov_x_bernoulli", "bernoulli_x_markov", "markov_x_periodic_01"):
        assert isinstance(made[name], ProductMeasure), name


@pytest.mark.parametrize("make", [
    lambda: PeriodicOrbit(SYS2, (0, 1)),
    lambda: PeriodicOrbit(SYS3, (0, 1, 2)),
    lambda: bern("5/17"),
    _markov_with_zeros,
    lambda: Markov.stationary(SYS2, [["1", "0"], ["1/2", "1/2"]]),
], ids=["periodic_01", "periodic_012", "bernoulli", "markov_with_zeros", "transient_state"])
def test_types_hold_the_table_masses_below_2_63(make):
    # a chain that emits its state takes the types route at every level, below 2^63 too
    mu = make()
    assert _emits_its_state(mu)
    for length in range(1, 8):
        table = mu.block_table(length)
        assert mu._engine.den(length) < 2**63
        assert _type_mass_counter(mu, length) == Counter(table.nums.tolist()), length
        masses, counts = _type_masses(mu, length)
        assert mass_entropy(np.array(masses), np.array(counts), mu._engine.den(length)) == (
            _table_entropy(table)) == block_entropy(mu, length), length


def test_type_entropy_raises_at_the_same_depth_as_the_table():
    # the types hold a few classes where the table would hold |G|^L words, but the 2^24
    # guard stands: C3 stops past L = 15 and C2 past L = 24
    q = 2**62 + 3
    a, b = F(15, q), F(2**61 - 6, q)
    c3 = Markov.stationary(SYS3, [[a, b, b], [b, a, b], [b, b, a]])
    c2 = Markov.stationary(SYS2, [[a, 1 - a], [1 - a, a]])
    for mu, deepest in [(c3, 15), (c2, 24)]:
        assert _emits_its_state(mu) and mu._engine.den(2) >= 2**63
        h = block_entropy(mu, deepest) - block_entropy(mu, deepest - 1)
        assert deepest in mu._engine.type_memo and mu._engine.tables == {}
        assert abs(h - closed_form_entropy(mu)) < 1e-12
        with pytest.raises(DepthLimitExceeded):
            mu.block_table(deepest + 1)
        with pytest.raises(DepthLimitExceeded):
            block_entropy(mu, deepest + 1)


# -- forward-vector classes: H_L of a chain that does not emit its own state ----------------


def _markov_c2():
    return Markov.stationary(SYS2, [["2/3", "1/3"], ["1/4", "3/4"]])


def _markov_c3():
    return Markov.stationary(SYS3, [["1/2", "1/3", "1/6"], ["1/4", "1/2", "1/4"],
                                    ["1/5", "2/5", "2/5"]])


def _bernoulli_c3():
    return Bernoulli(SYS3, measure(C3, [F(2, 17), F(5, 17), F(10, 17)]))


def _s3_convolution():
    # 36 states, 6 of them emitting each element of S3; every entry over 21
    g = symmetric(3)
    system = shift_space(g)
    c = [F(k, 21) for k in range(1, 7)]
    markov = Markov(system, tuple(tuple(c[(j - i) % 6] for j in range(6)) for i in range(6)),
                    (F(1, 6),) * 6)
    return Convolution(system, Bernoulli(system, measure(g, c[::-1])), markov)


CLASS_CASES = [
    ("periodic_10", lambda: PeriodicOrbit(SYS2, (1, 0)), 10),
    ("periodic_0011", lambda: PeriodicOrbit(SYS2, (0, 0, 1, 1)), 10),
    ("periodic_c3_2011", lambda: PeriodicOrbit(SYS3, (2, 0, 1, 1)), 7),
    ("mixture", lambda: Mixture(SYS2, ((F(1, 3), bern("1/4")), (F(2, 3), _markov_c2()))), 10),
    ("markov_x_periodic_c2", lambda: Convolution(SYS2, _markov_c2(),
                                                 PeriodicOrbit(SYS2, (0, 1, 1))), 10),
    ("bernoulli_x_periodic_c2", lambda: Convolution(SYS2, bern("5/17"),
                                                    PeriodicOrbit(SYS2, (0, 1))), 10),
    ("markov_x_periodic_c3", lambda: Convolution(SYS3, _markov_c3(),
                                                 PeriodicOrbit(SYS3, (0, 2))), 7),
    ("bernoulli_x_periodic_c3", lambda: Convolution(SYS3, _bernoulli_c3(),
                                                    PeriodicOrbit(SYS3, (1, 0, 2))), 7),
    ("markov_x_bernoulli", lambda: Convolution(SYS2, _markov_c2(), bern("1/3")), 10),
    ("s3_convolution", _s3_convolution, 4),
    ("product_with_orbit", lambda: product_system(_markov_c2(), PeriodicOrbit(SYS2, (0, 1, 1))),
     6),
    ("zero_row_entries", lambda: Convolution(SYS3, _markov_with_zeros(),
                                             PeriodicOrbit(SYS3, (0, 0, 1))), 7),
    # state 1 is transient, so its stationary mass is 0
    ("zero_init_entry", lambda: Convolution(SYS2, Markov.stationary(
        SYS2, [["1", "0"], ["1/2", "1/2"]]), PeriodicOrbit(SYS2, (0, 1))), 10),
    ("skew_joint", lambda: _skew_joint_with_window_2(), 5),
]


@pytest.mark.parametrize("make, depth", [pytest.param(make, depth, id=name)
                                         for name, make, depth in CLASS_CASES])
def test_class_entropy_equals_the_table_entropy_and_builds_no_table(make, depth):
    # every level up to a table of at most 4^6 words; the bound is the test's time, the
    # guard itself is test_class_entropy_keeps_the_table_contract's
    mu = make()
    got = [block_entropy(mu, length) for length in range(depth + 1)]
    assert not _emits_its_state(mu)
    assert mu._engine.tables == {} and sorted(mu._engine.class_memo) == list(range(depth + 1))
    assert got[0] == 0.0
    for length in range(1, depth + 1):
        assert got[length] == _table_entropy(mu.block_table(length)), length


def test_class_cases_reach_what_they_name():
    made = {name: make() for name, make, _ in CLASS_CASES}
    for name, mu in made.items():
        assert mu._chain[4] != tuple(range(mu.system.alphabet.order)), name
    for name in ("periodic_10", "periodic_0011", "periodic_c3_2011"):
        assert made[name].word != tuple(range(made[name].period)), name
    # from some state, one symbol leads to two successors: the chain is not unifilar
    rows, _, emit = made["markov_x_bernoulli"]._engine.arrays
    assert any(len(set(emit[row != 0].tolist())) < np.count_nonzero(row) for row in rows)
    assert made["s3_convolution"].system.alphabet.order == 6
    assert isinstance(made["product_with_orbit"], ProductMeasure)
    assert (made["zero_row_entries"]._engine.arrays[0] == 0).any()
    assert 0 in made["zero_init_entry"]._chain[0]
    assert made["skew_joint"].kind == "skew_joint"


def _fraction_classes(mu, length):
    """The words of positive mass grouped by (last symbol, forward vector on the states
    that emit it), the vector of Fraction masses built word by word."""
    init, d0, rows, dt, emit = mu._chain
    classes = Counter()
    for word in itertools.product(range(mu.system.alphabet.order), repeat=length):
        vec = {s: F(init[s], d0) for s, e in enumerate(emit) if e == word[0]}
        for symbol in word[1:]:
            vec = {t: sum(p * F(rows[s][t], dt) for s, p in vec.items())
                   for t, e in enumerate(emit) if e == symbol}
        if any(vec.values()):
            classes[word[-1], tuple(vec.values())] += 1
    return classes


@pytest.mark.parametrize("make, depth", [pytest.param(make, depth, id=name)
                                         for name, make, depth in CLASS_CASES])
def test_classes_are_the_words_grouped_by_fraction_forward_vectors(make, depth):
    mu = make()
    sizes = [len(block) for block in mu._engine.blocks[0]]
    for length in range(1, depth + 1):
        if mu.system.alphabet.order**length > 3**6:
            break
        vecs, counts, bounds = mu._engine.classes(length)
        assert vecs.dtype == np.int64
        den = mu._engine.den(length)
        got = Counter()
        for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            for vec, count in zip(vecs[lo:hi, : sizes[b]].tolist(), counts[lo:hi].tolist()):
                got[b, tuple(F(x, den) for x in vec)] += count
        assert got == _fraction_classes(mu, length), length


def _hidden_state_past_2_63():
    # entries over row sums near 2^7
    rng = random.Random(0)
    raw = [[rng.randint(1, 2**6) for _ in range(3)] for _ in range(3)]
    markov = Markov.stationary(SYS3, [[F(x, sum(row)) for x in row] for row in raw])
    return Convolution(SYS3, markov, PeriodicOrbit(SYS3, (0, 1, 2)))


def test_hidden_state_levels_past_2_63_take_python_int_classes():
    # the denominators pass 2^63 at L = 4, where the
    # classes' vectors become Python ints; no level builds a table
    mu = _hidden_state_past_2_63()
    wide = next(length for length in range(1, 8) if mu._engine.den(length) >= 2**63)
    assert wide == 4 and not _emits_its_state(mu)
    h = [block_entropy(mu, length) for length in range(1, wide + 2)]
    assert mu._engine.tables == {}
    for length in range(1, wide + 2):
        vecs = mu._engine.classes(length)[0]
        assert vecs.dtype == (object if length >= wide else np.int64), length
        assert h[length - 1] == _table_entropy(mu.block_table(length)), length
    # row entries past 2^63 under a uniform init: `blocks` holds Python ints from L = 1,
    # whose vectors, over d0 = 2, are still int64
    q = 2**64 + 13
    flip = Markov(SYS2, ((F(15, q), F(q - 15, q)), (F(q - 15, q), F(15, q))), (F(1, 2),) * 2)
    mu = Convolution(SYS2, flip, PeriodicOrbit(SYS2, (0, 1)))
    assert mu._engine.den(1) < 2**63 <= mu._chain[3]
    h = [block_entropy(mu, length) for length in (1, 2, 3)]
    assert mu._engine.tables == {} and mu._engine.blocks[0][0].dtype == object
    for length in (1, 2, 3):
        assert mu._engine.classes(length)[0].dtype == (np.int64 if length == 1 else object), length
        assert h[length - 1] == _table_entropy(mu.block_table(length)), length


def _s3_markov_over_30():
    # 6 states, every row over 30: with the initial row's entries, 17 entry classes, so
    # 25^17 * 6 type keys pass int64 and the types merge by mass
    rng = random.Random(1)
    rows = []
    for _ in range(6):
        cuts = sorted(rng.sample(range(1, 30), 5))
        rows.append([F(b - a, 30) for a, b in zip([0] + cuts, cuts + [30])])
    return Markov.stationary(shift_space(symmetric(3)), rows)


def test_types_merged_by_mass_stay_int64_below_2_63():
    # mass * 6 + last state stays below 2^63 at every level, so the masses are int64
    mu = _s3_markov_over_30()
    assert len(np.unique(mu._engine.steps[2])) == 17 and mu._engine.type_memo[0][0] is None
    h = [block_entropy(mu, length) for length in range(1, 8)]
    assert mu._engine.tables == {}
    for length in range(1, 8):
        keys, nums, dens, *_ = mu._engine.types(length)
        assert keys is None and dens == mu._engine.den(length) and (dens + 1) * 6 < 2**63, length
        assert nums.dtype == np.int64, length
        table = mu.block_table(length)
        assert _type_mass_counter(mu, length) == Counter(table.nums.tolist()), length
        assert h[length - 1] == _table_entropy(table), length


def _type_fractions(mu, length):
    """The words of each mass of level L's types, the masses as Fractions."""
    _, nums, dens, types, _, counts = mu._engine.types(length)
    dens = dens.tolist() if isinstance(dens, np.ndarray) else [dens] * len(nums)
    merged = Counter()
    for num, den, words in zip(nums.tolist(), dens,
                               np.bincount(types, counts, len(nums)).astype(np.int64).tolist()):
        merged[F(num, den)] += words
    return merged


def _check_type_fractions(mu):
    """The types' masses against the table at L = 1..8, and against the Fraction oracle at
    L = 7, the level of int64 fractions past 2^53."""
    for length in range(1, 9):
        assert _type_mass_counter(mu, length) == Counter(mu.block_table(length).nums.tolist())
    assert _type_fractions(mu, 7) == Counter(_oracle_dist(mu, 7).values())


def test_type_fractions_skip_the_gcd_where_no_entry_can_cancel(monkeypatch):
    # seed 3's draw of the benchmark's C2 x C2 product: its reduced entries' numerators share
    # no prime with their denominators, 17^2 and 17 * 19, so no product of them reduces
    mu = product_system(Markov.stationary(SYS2, [["11/17", "6/17"], ["13/17", "4/17"]]),
                        bern("3/17"))
    assert mu._engine.type_steps[4]

    def refused(*args):
        raise AssertionError("a gcd pass where nothing can cancel")

    monkeypatch.setattr(np, "gcd", refused)
    # int64 fractions past 2^53 at L = 7, Python ints at L = 8
    wide = [length for length in range(1, 9) if (mu._engine.types(length)[2] >= 2**53).any()]
    assert wide == [7, 8] and mu._engine.types(7)[2].dtype == np.int64
    _check_type_fractions(mu)


def test_type_fractions_reduce_where_an_entry_can_cancel(monkeypatch):
    # the product of _product_over_17_squared: init's 30/119 times the row entry 35/289
    # shares a 7, so the int64 fractions past 2^53 reduce (Python-int ones, from L = 8, do not)
    mu = _product_over_17_squared()
    assert not mu._engine.type_steps[4]
    real, reduced = np.gcd, []

    def spy(*args):
        gcd = real(*args)
        reduced.append(int((gcd > 1).sum()))
        return gcd

    monkeypatch.setattr(np, "gcd", spy)
    for length in range(1, 9):
        _, nums, dens, *_ = mu._engine.types(length)
        assert dens.dtype == object or all(
            math.gcd(num, den) == 1 for num, den in zip(nums.tolist(), dens.tolist())
            if den >= 2**53), length
    assert sum(reduced) > 0
    _check_type_fractions(mu)


NO_TABLE_CASES = [
    ("bernoulli", lambda: bern("1/4"), 8, True),
    ("markov", _markov_c3, 6, True),
    ("periodic_orbit", lambda: PeriodicOrbit(SYS2, (0, 1, 1)), 8, False),
    ("periodic_orbit_emitting_its_phase", lambda: PeriodicOrbit(SYS2, (0, 1)), 8, True),
    ("mixture", lambda: Mixture(SYS2, ((F(1, 3), bern("1/4")), (F(2, 3), _markov_c2()))), 8,
     False),
    ("convolution", lambda: Convolution(SYS2, _markov_c2(), bern("1/3")), 8, False),
    ("product", lambda: product_system(_markov_c2(), bern("1/3")), 5, True),
    ("product_with_orbit", lambda: product_system(_markov_c2(), PeriodicOrbit(SYS2, (0, 1, 1))),
     5, False),
    ("state_emitting_past_2_63", _markov_with_entries_past_2_63, 6, True),
    ("hidden_state_past_2_63", _hidden_state_past_2_63, 5, False),
    ("skew_joint", lambda: _skew_haar_over(_markov_with_zeros(), 2), 4, False),
    ("skew_joint_emitting_its_pair", lambda: _skew_haar_over(bern("1/4"), 1), 4, True),
]


@pytest.mark.parametrize("make, depth, emits", [pytest.param(make, depth, emits, id=name)
                                                for name, make, depth, emits in NO_TABLE_CASES])
def test_entropy_rate_builds_no_table(make, depth, emits):
    # a skew measure's trail is `skew_entropy`'s, from its joint chain's block entropies. Live
    # measures of an equal chain share its levels and may have built some, so the call must
    # add no table, and levels 0..depth on its route alone
    mu = make()
    joint = mu.joint if isinstance(mu, skew.SkewMeasure) else mu
    levels = joint._engine
    engines = [levels] if joint is mu else [levels, mu.base_measure._engine]
    route, other = ("type_memo", "class_memo") if emits else ("class_memo", "type_memo")

    def built():
        memo = {name: set(vars(levels).get(name, ())) for name in (route, other)}
        return [set(engine.tables) for engine in engines], memo[route], memo[other]

    tables, on_route, off_route = built()
    if joint is mu:
        entropy_rate(mu, depth)
    else:
        skew.skew_entropy(mu, depth)
    assert _emits_its_state(joint) == emits
    assert built() == (tables, on_route | set(range(depth + 1)), off_route)


C1 = cyclic(1)
SYS1 = shift_space(C1)


@pytest.mark.parametrize("make", [
    lambda: Bernoulli(SYS1, haar(C1)),
    lambda: Markov(SYS1, ((F(1),),), (F(1),)),
    lambda: PeriodicOrbit(SYS1, (0,)),
    lambda: Mixture(SYS1, ((F(1, 3), PeriodicOrbit(SYS1, (0,))),
                           (F(2, 3), Bernoulli(SYS1, haar(C1))))),
], ids=["bernoulli", "markov", "periodic_orbit", "mixture"])
def test_one_symbol_chains_have_zero_block_entropy_at_any_depth(make):
    # one word a level, so no guard; a state-emitting chain's one type runs past TYPE_RADIX
    mu = make()
    h = block_entropy(mu, 40)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0
    if _emits_its_state(mu):
        assert len(np.unique(mu._engine.steps[2])) == 1 and 40 > shifts.TYPE_RADIX
        assert mu._engine.types(40)[0].tolist() == [40]
    assert mu._engine.tables == {}


@pytest.mark.parametrize("make", [lambda: PeriodicOrbit(SYS2, (1, 0)),
                                  lambda: Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1))),
                                  lambda: _skew_joint_with_window_2(),
                                  lambda: _skew_haar_over(bern("1/4"), 1).joint],
                         ids=["periodic_10", "criterion_3_convolution", "skew_joint",
                              "skew_joint_emitting_its_pair"])
def test_class_entropy_keeps_the_table_contract(make):
    # either route raises where the table does, under the kind's own guard
    mu = make()
    deepest = next(length for length in itertools.count(1)
                   if not _guard_allows(mu, length + 1))
    # live measures of an equal chain share its levels, so the calls below must add none
    memo = mu._engine.type_memo if _emits_its_state(mu) else mu._engine.class_memo
    built = set(memo), set(mu._engine.tables)
    for length in (-1, -2):
        with pytest.raises(ValueError, match=f"block length must be >= 0, got {length}"):
            block_entropy(mu, length)
    assert block_entropy(mu, 0) == 0.0
    with pytest.raises(DepthLimitExceeded):
        block_entropy(mu, deepest + 1)
    with pytest.raises(DepthLimitExceeded):
        mu.block_table(deepest + 1)
    assert (set(memo), set(mu._engine.tables)) == built
    if mu.system.alphabet.order == 2:  # every level to the guard, in a few classes each
        h = [block_entropy(mu, length) for length in range(deepest + 1)]
        classes = [len(mu._engine.classes(length)[1]) for length in range(deepest + 1)]
        assert max(classes) <= 2 * deepest
        assert all(a - b >= -1e-15 for a, b in zip(np.diff(h), np.diff(h)[1:]))


def _guard_allows(mu, length):
    try:
        mu._guard(length)
    except DepthLimitExceeded:
        return False
    return True


def test_s4_circulant_convolution_entropy_takes_less_memory_than_its_table():
    # a 24-symbol Bernoulli * Markov convolution on S4, 576 states, 24 for each symbol;
    # H_1..H_3 from classes against H_1..H_2 from tables, each measure built fresh
    g = symmetric(4)
    system = shift_space(g)
    c = range(1, 25)
    markov_rows = tuple(tuple(F(c[(j - i) % 24], 300) for j in range(24)) for i in range(24))

    def make():
        return Convolution(system, Bernoulli(system, measure(g, [F(k, 300) for k in c])),
                           Markov(system, markov_rows, (F(1, 24),) * 24))

    Bernoulli(SYS2, haar(C2)).block_table(2)  # numpy's first-call set-up is not working memory
    by_class, by_table = [], []
    classes = _traced_peak(lambda: by_class.extend(block_entropy(make(), L) for L in (1, 2, 3)))
    tables = _traced_peak(lambda: by_table.extend(_table_entropy(make().block_table(L))
                                                  for L in (1, 2)))
    assert by_class[:2] == by_table
    assert classes <= tables


# -- the sparse successor step against the dense gather -------------------------------


def _dense_gather_levels(mu, length):
    """Levels 1..L as (codes, last, numerators), by the dense gather: every path steps to
    every state of `arrays`' rows, and the zero steps are dropped."""
    n = mu.system.alphabet.order
    rows, steps, emit = mu._engine.arrays
    codes, prev, nums = np.zeros(1, np.int64), np.array([len(rows) - 1]), np.ones(1, np.int64)
    levels = []
    for level in range(1, length + 1):
        prev = codes % n if prev is None else prev
        keep = steps[prev]
        codes = (codes[:, None] * n + emit)[keep]
        wide = mu._engine.den(level) >= 2**63
        wide_rows = rows.astype(object) if wide else rows
        nums = ((nums.astype(object) if wide else nums)[:, None] * wide_rows[prev])[keep]
        prev = None
        if mu._chain[4] != tuple(range(n)):
            key = codes * len(emit) + np.nonzero(keep)[1]
            order = np.argsort(key, kind="stable")
            key, nums = shifts._sum_runs(key[order], nums[order])
            codes, prev = key // len(emit), key % len(emit)
        levels.append((codes, prev, nums))
    return levels


def _skew_haar_over(base, k):
    # a C2 fiber moved by the sum of a k-window; over a Bernoulli base with k = 1 the joint
    # chain emits its own state, the pair symbol
    system = skew.make_skew(base.system, C2, identity_hom(C2), {
        w: sum(w) % 2 for w in itertools.product(range(base.system.alphabet.order), repeat=k)})
    return skew.haar_extension(base, system)


def _skew_joint_with_window_2():
    # a C2 fiber over a C3 Markov base with zeros, moved by the sum of a 2-window
    return _skew_haar_over(_markov_with_zeros(), 2).joint


def _wide_markov(n, seed):
    """A chain on C_n whose denominators pass 2^63 within a few levels; past C2 it has
    zeros on the diagonal."""
    rng = random.Random(seed)
    raw = [[0 if i == j and n > 2 else rng.randint(1, 2**12) for j in range(n)] for i in range(n)]
    return Markov.stationary(shift_space(cyclic(n)), [[F(x, sum(row)) for x in row] for row in raw])


SPARSE_STEP_CASES = [
    ("periodic_convolution", lambda: Convolution(SYS3, _markov_with_zeros(),
                                                 PeriodicOrbit(SYS3, (0, 0, 1))), 7),
    ("bernoulli_periodic_convolution", lambda: Convolution(SYS2, bern("5/17"),
                                                           PeriodicOrbit(SYS2, (0, 1, 1))), 9),
    ("mixture", lambda: Mixture(SYS3, ((F(1, 3), PeriodicOrbit(SYS3, (0, 1, 2))),
                                       (F(2, 3), _markov_with_zeros()))), 7),
    ("skew_joint_window_2", _skew_joint_with_window_2, 4),
    # state 1 is transient, so the init row has a zero
    ("init_with_zeros", lambda: Markov.stationary(SYS2, [["1", "0"], ["1/2", "1/2"]]), 8),
    ("hidden_past_2_63", lambda: Convolution(SYS3, _wide_markov(3, 2063),
                                             PeriodicOrbit(SYS3, (0, 1, 2))), 6),
    ("interned_past_2_63", lambda: _wide_markov(3, 63), 7),
    ("interned_product_past_2_63", lambda: product_system(
        _wide_markov(2, 64), Markov.stationary(SYS2, [["1", "0"], ["1/2", "1/2"]])), 6),
]


@pytest.mark.parametrize("make, length", [pytest.param(make, length, id=name)
                                          for name, make, length in SPARSE_STEP_CASES])
def test_sparse_step_matches_the_dense_gather(make, length):
    mu = make()
    for level, (codes, last, nums) in enumerate(_dense_gather_levels(mu, length), start=1):
        got_codes, got_last, got_nums = mu._engine.paths(level)
        assert np.array_equal(got_codes, codes) and got_codes.dtype == codes.dtype, level
        assert (got_last is None) == (last is None), level
        assert last is None or np.array_equal(got_last, last), level
        assert got_nums.dtype == nums.dtype and got_nums.tolist() == nums.tolist(), level


def test_sparse_step_cases_reach_what_they_name():
    # zero entries in every case, and hidden- and identity-emission levels past 2^63
    made = {name: (make(), length) for name, make, length in SPARSE_STEP_CASES}
    for name, (mu, length) in made.items():
        assert (mu._engine.arrays[0] == 0).any(), name
    assert 0 in made["init_with_zeros"][0]._chain[0]
    hidden, length = made["hidden_past_2_63"]
    assert hidden._chain[4] != tuple(range(3)) and hidden._engine.den(length) >= 2**63
    for name in ("interned_past_2_63", "interned_product_past_2_63"):
        mu, length = made[name]
        assert mu._chain[4] == tuple(range(mu.system.alphabet.order)), name
        assert mu._engine.den(length) >= 2**63, name


def test_steps_hold_each_row_s_nonzero_entries_in_state_order():
    mu = Mixture(SYS3, ((F(1, 3), PeriodicOrbit(SYS3, (0, 1, 2))), (F(2, 3), _markov_with_zeros())))
    start, succ, entries = mu._engine.steps
    rows = mu._engine.arrays[0]
    assert succ.dtype == shifts._code_dtype(rows.shape[1]) and entries.dtype == rows.dtype
    for s, row in enumerate(rows):
        assert succ[start[s] : start[s + 1]].tolist() == np.flatnonzero(row).tolist()
        assert entries[start[s] : start[s + 1]].tolist() == row[row != 0].tolist()
    assert start[-1] == len(succ) == len(entries) == np.count_nonzero(rows)


@pytest.mark.parametrize("make", [_markov_with_zeros, lambda: product_system(
    _wide_markov(2, 64), Markov.stationary(SYS2, [["1", "0"], ["1/2", "1/2"]]))])
def test_steps_built_from_the_rows_of_arrays_are_the_same(make):
    # once `arrays` is read, the steps come from its dense rows, not from a second copy; two
    # fresh engines of one chain, as two measures of it share one
    mu = make()
    own, shared = (shifts._Levels(mu._engine.key, mu.kind) for _ in range(2))
    assert "arrays" not in vars(own) and shared.arrays[0].size
    for a, b in zip(own.steps, shared.steps):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


# -- one level engine per chain -------------------------------------------------------


def test_equal_chains_share_one_engine_and_its_levels():
    # a natural extension is a new record with the same chain, as is a measure built again
    for make in (lambda: Markov.stationary(SYS3, [["1/2", "1/3", "1/6"], ["1/4", "1/2", "1/4"],
                                                  ["1/5", "2/5", "2/5"]]),
                 lambda: Convolution(SYS2, _markov_c2(), PeriodicOrbit(SYS2, (0, 1, 1)))):
        mu = make()
        ext, again = natural_extension(mu), make()
        assert ext is not mu and ext._engine is mu._engine and again._engine is mu._engine
        table = mu.block_table(4)
        assert ext.block_table(4) is table and again.block_table(4) is table
        assert block_entropy(ext, 5) == block_entropy(mu, 5)


def test_an_equal_chain_on_another_alphabet_order_has_its_own_engine():
    # table codes and the default guard read the order: the word (1, 0) is code 2 on C2 and
    # code 3 on C3, and C3 refuses L = 16 where C2 allows it
    on_c2, on_c3 = PeriodicOrbit(SYS2, (0, 1)), PeriodicOrbit(SYS3, (0, 1))
    assert on_c2._chain == on_c3._chain and on_c2._engine is not on_c3._engine
    assert on_c2.block_table(2).codes.tolist() == [1, 2]
    assert on_c3.block_table(2).codes.tolist() == [1, 3]
    assert block_entropy(on_c2, 16) == block_entropy(on_c3, 15) == math.log(2)
    with pytest.raises(DepthLimitExceeded):
        block_entropy(on_c3, 16)


def test_an_unequal_chain_of_equal_hash_takes_the_registry_slot():
    # a hash collision never shares: the newer engine is registered, the older one kept
    mu = bern("5/1013")
    key = (2, mu._chain)
    decoy = shifts._Levels((3, mu._chain), "decoy")
    shifts._LEVELS[hash(key)] = decoy
    assert mu._engine is not decoy and mu._engine.key == key
    assert shifts._LEVELS[hash(key)] is mu._engine


def test_the_engine_dies_with_the_last_measure_of_its_chain():
    mu = bern("7/1013")
    ext = natural_extension(mu)
    assert ext.block_table(3) is mu.block_table(3)
    engine, key = weakref.ref(mu._engine), hash(mu._engine.key)
    del mu
    gc.collect()
    assert engine() is ext._engine and shifts._LEVELS[key] is ext._engine
    del ext
    gc.collect()
    assert engine() is None and key not in shifts._LEVELS


def test_a_level_built_under_a_looser_guard_is_refused_by_a_stricter_one():
    # the joint of a C2 fiber over a Bernoulli base, window 1, guards 2^L * 2 block states;
    # an equal chain on the same pair alphabet guards 4^L, so it refuses L = 13
    joint = _skew_haar_over(bern("1/4"), 1).joint
    strict = _StartedChain(joint.system, joint._chain)
    assert strict._engine is joint._engine and _emits_its_state(joint)
    h = block_entropy(joint, 13)
    assert len(joint.block_table(13)) == 2**14 and 13 in joint._engine.type_memo
    with pytest.raises(DepthLimitExceeded):
        block_entropy(strict, 13)
    with pytest.raises(DepthLimitExceeded):
        strict.block_table(13)
    assert block_entropy(strict, 12) == block_entropy(joint, 12) < h


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_skew_report_on_c12_over_c12_keeps_its_memory_to_the_sparse_rows():
    # the dense gather held a full row per path: a 54 MB peak at L = 4, where the
    # fiber roll over one base table took 20.1 MB
    c12 = cyclic(12)
    sys12 = shift_space(c12)
    sk = skew.make_skew(sys12, c12, identity_hom(c12), skew.first_symbol_cocycle(sys12, c12))
    base = shift_haar(sys12)
    skew.entropy_addition_report(sk, base, L=1)  # numpy's first-call set-up is not working memory
    assert _traced_peak(lambda: skew.entropy_addition_report(sk, base, L=4)) <= 20.1e6


def test_dense_bernoulli_table_on_576_symbols_keeps_the_dense_gather_memory():
    # every row is dense here; the dense gather took an 11.4 MB peak
    g = direct_product(symmetric(4), symmetric(4))
    system = shift_space(g)
    Bernoulli(SYS2, haar(C2)).block_table(2)  # numpy's first-call set-up is not working memory
    assert _traced_peak(lambda: Bernoulli(system, haar(g)).block_table(2)) <= 11.4e6


def test_markov_sample_builds_its_cell_table_once(monkeypatch):
    # 16 chunks share one table, and every symbol stays the per-step walk's
    real, built = shifts._cell_table, []

    def counted(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(shifts, "_cell_table", counted)
    monkeypatch.setattr(shifts, "CHUNK_SYMBOLS", 64)
    mu = Markov.stationary(SYS2, [["7/17", "10/17"], ["9/17", "8/17"]])
    assert np.array_equal(mu.sample(1000, 5), _naive_markov_walk(mu, 1000, 5))
    assert len(built) == 1 and built[0] is not None
