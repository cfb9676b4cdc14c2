import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab import cyclic, entropy, haar, measure
from ergolab.entropy import (
    EntropyEstimate,
    block_entropy,
    closed_form_entropy,
    empirical_block_entropy,
    entropy_rate,
)
from ergolab.errors import InsufficientData, MonotonicityViolated, UnsupportedKind
from ergolab.exact import entropy_nats, neg_xlogx
from ergolab.shifts import (
    Bernoulli,
    BlockTable,
    Convolution,
    Markov,
    Mixture,
    PeriodicOrbit,
    ProductMeasure,
    shift_haar,
    shift_space,
)

C2 = cyclic(2)
SYS2 = shift_space(C2)
LN2 = math.log(2)


def bern(p_one: str) -> Bernoulli:
    p = F(p_one)
    return Bernoulli(SYS2, measure(C2, [1 - p, p]))


def h2(p: float) -> float:
    """Binary entropy in nats; the closed-form oracle."""
    q = 1 - p
    return -(p * math.log(p) + q * math.log(q))


MARKOV_23 = Markov.stationary(SYS2, [["2/3", "1/3"], ["1/3", "2/3"]])
MARKOV_23_RATE = (2 / 3) * math.log(3 / 2) + (1 / 3) * math.log(3)


def h_L(mu, L: int) -> float:
    """The conditional block entropy h_L = H_L - H_{L-1}, with H_0 = 0."""
    return block_entropy(mu, L) - block_entropy(mu, L - 1)


# -- static entropy -------------------------------------------------------------


def test_static_entropy_values():
    assert entropy_nats(measure(C2, [1, 0]).weights) == 0.0
    assert entropy_nats(haar(C2).weights) == pytest.approx(LN2, abs=1e-15)
    assert entropy_nats(measure(C2, ["3/4", "1/4"]).weights) == pytest.approx(
        h2(0.25), abs=1e-15
    )
    assert h2(0.25) == pytest.approx(0.562335, abs=5e-7)


# -- block entropy ----------------------------------------------------------------


def test_block_entropy_bernoulli_additive():
    b = bern("1/4")
    for L in range(1, 9):
        assert block_entropy(b, L) == pytest.approx(L * h2(0.25), abs=1e-12)


def test_block_entropy_periodic_orbit():
    per = PeriodicOrbit(SYS2, (0, 1, 1))
    for L in range(3, 8):
        assert block_entropy(per, L) == pytest.approx(math.log(3), abs=1e-15)


def test_block_entropy_lazy_convolution_at_L2():
    lazy = Convolution(SYS2, bern("1/4"), bern("1/4"))
    assert block_entropy(lazy, 2) == pytest.approx(2 * h2(3 / 8), abs=1e-12)
    assert 2 * h2(3 / 8) == pytest.approx(1.323126, abs=5e-7)


# -- conditional block entropy -------------------------------------------------------


def test_conditional_block_entropy_bernoulli():
    b = bern("1/4")
    for L in range(1, 8):
        assert h_L(b, L) == pytest.approx(h2(0.25), abs=1e-12)


def test_markov_rate_exact_from_L2():
    for L in range(2, 11):
        assert h_L(MARKOV_23, L) == pytest.approx(
            MARKOV_23_RATE, abs=1e-12
        )
    assert MARKOV_23_RATE == pytest.approx(0.636514, abs=5e-7)


def test_periodic_conditional_entropy_drops_to_zero():
    per = PeriodicOrbit(SYS2, (0, 1))
    assert h_L(per, 1) == pytest.approx(LN2, abs=1e-15)
    for L in range(2, 8):
        assert h_L(per, L) == pytest.approx(0.0, abs=1e-15)


# -- entropy rate ---------------------------------------------------------------------


def test_entropy_rate_bernoulli_converges_immediately():
    est = entropy_rate(bern("1/4"), 4, tol=1e-9)
    assert est.value == pytest.approx(h2(0.25), abs=1e-12)
    assert est.converged and est.gap < 1e-12
    assert est.method == "block_exact"


def test_entropy_rate_uniform_is_ln2_at_L1():
    est = entropy_rate(shift_haar(SYS2), 1, tol=1e-9)
    assert est.value == pytest.approx(LN2, abs=1e-15)


@pytest.mark.parametrize("L_max", [0, -1])
def test_entropy_rate_needs_one_level(L_max):
    with pytest.raises(ValueError, match="L_max must be >= 1"):
        entropy_rate(bern("1/4"), L_max)


def test_entropy_rate_upper_bounds_nonincreasing():
    est = entropy_rate(Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1))), 8)
    for a, b in zip(est.upper_bounds, est.upper_bounds[1:]):
        assert b <= a + 1e-12


def test_entropy_rate_of_periodic_bernoulli_convolution():
    # independent oracle: the convolved process is, up to a bijection of
    # words, the even mixture of Bernoulli(1/4)^L and Bernoulli(3/4)^L, so
    # H_L depends only on the number of ones.
    p, q = F(1, 4), F(3, 4)

    def mixture_H(L: int) -> float:
        return math.fsum(
            -math.comb(L, j)
            * float((p**j * q ** (L - j) + p ** (L - j) * q**j) / 2)
            * math.log(float((p**j * q ** (L - j) + p ** (L - j) * q**j) / 2))
            for j in range(L + 1)
        )

    conv = Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))
    est = entropy_rate(conv, 10, tol=1e-6)
    oracle_h10 = mixture_H(10) - mixture_H(9)
    assert est.value == pytest.approx(oracle_h10, abs=1e-12)
    # the trail descends toward the true rate H(1/4) but has not reached it
    assert est.value > h2(0.25)
    assert not est.converged


def test_monotonicity_violation_detected():
    forced = Markov(
        SYS2,
        ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        (F(1), F(0)),
        validate=False,
    )
    with pytest.raises(MonotonicityViolated):
        entropy_rate(forced, 3)


# -- closed forms -----------------------------------------------------------------------


def test_closed_form_entropy():
    assert closed_form_entropy(shift_haar(SYS2)) == pytest.approx(LN2, abs=1e-15)
    b = Bernoulli(SYS2, measure(C2, ["5/8", "3/8"]))
    assert closed_form_entropy(b) == pytest.approx(h2(3 / 8), abs=1e-15)
    assert h2(3 / 8) == pytest.approx(0.661563, abs=5e-7)
    frozen = Markov(
        SYS2, ((F(1), F(0)), (F(0), F(1))), (F(1, 2), F(1, 2))
    )
    assert closed_form_entropy(frozen) == 0.0
    with pytest.raises(UnsupportedKind):
        closed_form_entropy(PeriodicOrbit(SYS2, (0, 1)))


def test_closed_form_agrees_with_blocks():
    assert closed_form_entropy(bern("1/4")) == pytest.approx(
        h_L(bern("1/4"), 3), abs=1e-9
    )
    assert closed_form_entropy(MARKOV_23) == pytest.approx(
        h_L(MARKOV_23, 4), abs=1e-9
    )


# -- empirical entropy ---------------------------------------------------------------


def test_empirical_periodic_orbit_is_deterministic():
    per = PeriodicOrbit(SYS2, (0, 1))
    arrays = [per.sample(500, s)[None] for s in range(3)]
    est = empirical_block_entropy(arrays, 2, alphabet_size=2)
    assert est.value == 0.0
    assert est.method == "empirical"
    assert "Miller-Madow" in est.note


def test_empirical_bernoulli_half():
    arrays = [shift_haar(SYS2).sample(10**6, 21)[None]]
    est = empirical_block_entropy(arrays, 8, alphabet_size=2)
    assert abs(est.value - LN2) < 0.01


def test_empirical_markov():
    arrays = [MARKOV_23.sample(10**6, 22)[None]]
    est = empirical_block_entropy(arrays, 10, alphabet_size=2)
    assert abs(est.value - MARKOV_23_RATE) < 0.01


def test_empirical_insufficient_data():
    with pytest.raises(InsufficientData):
        empirical_block_entropy([np.array([[0, 1] * 10])], 8, alphabet_size=2)


@pytest.mark.parametrize("words", [
    [np.empty((0, 5), np.int8)],
    [np.empty((1, 0), np.int8), np.empty((0, 0), np.int64)],
    [],
])
def test_empirical_entropy_without_symbols_names_the_data_requirement(words):
    with pytest.raises(InsufficientData, match=r"0 symbols < 100 \* 2\^3"):
        empirical_block_entropy(words, 3, alphabet_size=2)


# -- exact table entropy against the per-entry sum ------------------------------------


def _per_entry_table_entropy(table: BlockTable) -> float:
    """One neg_xlogx term per table entry; the oracle for the distinct-mass sum."""
    den = table.den
    return math.fsum(neg_xlogx(num / den) for num in table.nums.tolist())


def _ints(values) -> np.ndarray:
    """Integers as `mass_entropy` takes them: int64 below 2^63, Python ints past it."""
    values = np.asarray(values, object).tolist()
    return np.array(values, np.int64 if max(values, default=0) < 2**63 else object)


def _mass_counts(table: BlockTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's distinct numerators, ascending, and how many entries hold each."""
    return np.unique(table.nums, return_counts=True)


def _table_entropy(table: BlockTable) -> float:
    """H of a table by `mass_entropy` over its distinct numerators, one logarithm each."""
    return entropy.mass_entropy(*_mass_counts(table), table.den)


C3 = cyclic(3)
SYS3 = shift_space(C3)
ORACLE_STATES = 2**12  # the largest table each kind is checked on


def _table_kinds():
    markov_zeros = Markov.stationary(
        SYS3, [["0", "1/2", "1/2"], ["1", "0", "0"], ["1/3", "1/3", "1/3"]]
    )
    yield "bernoulli", bern("1/4")
    yield "bernoulli_c3", Bernoulli(SYS3, measure(C3, ["1/6", "1/3", "1/2"]))
    yield "haar", shift_haar(SYS2)
    yield "markov", MARKOV_23
    yield "markov_zeros", markov_zeros
    yield "periodic_orbit", PeriodicOrbit(SYS2, (0, 1, 1))
    yield "mixture", Mixture(
        SYS3, ((F(1, 3), PeriodicOrbit(SYS3, (0, 1, 2))), (F(2, 3), markov_zeros))
    )
    yield "convolution", Convolution(SYS2, bern("1/4"), PeriodicOrbit(SYS2, (0, 1)))
    yield "product", ProductMeasure(shift_space(cyclic(4)), bern("1/4"), MARKOV_23)


@pytest.mark.parametrize("mu", [pytest.param(mu, id=kind) for kind, mu in _table_kinds()])
def test_table_entropy_equals_per_entry_sum_for_every_kind(mu):
    length = 0
    while mu.system.alphabet.order**length <= ORACLE_STATES:
        table = mu.block_table(length)
        assert _table_entropy(table) == _per_entry_table_entropy(table), length
        assert block_entropy(mu, length) == _per_entry_table_entropy(table), length
        length += 1
    assert length >= 6


def test_table_entropy_of_one_atom_is_positive_zero():
    tables = [bern("1/4").block_table(0), PeriodicOrbit(SYS3, (2,)).block_table(3)]
    tables += [PeriodicOrbit(SYS2, (0,)).block_table(length) for length in range(4)]
    for table in tables:
        h = _table_entropy(table)
        assert h == _per_entry_table_entropy(table) == 0.0
        assert math.copysign(1.0, h) == 1.0  # neg_xlogx(1.0) is -0.0


def test_table_entropy_with_a_denominator_past_int64():
    tiny = F(1, 3**41)  # 3^41 > 2^63, so numerators stay Python ints
    mu = Bernoulli(SYS2, measure(C2, [1 - tiny, tiny]))
    for length in (1, 2, 5):
        table = mu.block_table(length)
        assert table.den > 2**63 and table.nums.dtype == object
        assert _table_entropy(table) == _per_entry_table_entropy(table)
    wide = BlockTable(2, 2, np.arange(4), np.array([2**70, 2**70, 3, 2**71 - 3], object), 2**72)
    assert _table_entropy(wide) == _per_entry_table_entropy(wide)


def test_table_entropy_of_a_scaled_table_with_zero_numerators():
    # 3/5 of a table with zero numerators, and 0 times a measure's table
    padded = BlockTable(2, 3, np.arange(8), np.array([2, 0, 1, 0, 0, 3, 0, 1], object), 7)
    markov = MARKOV_23.block_table(3)
    for table in (BlockTable(2, 3, padded.codes, padded.nums * 3, padded.den * 5),
                  BlockTable(2, 3, markov.codes, markov.nums * 0, markov.den)):
        assert (table.nums == 0).any()
        assert _table_entropy(table) == _per_entry_table_entropy(table)


@st.composite
def _random_table(draw):
    # a small pool of masses makes repeats, the case the distinct-mass sum groups;
    # the numerators are int64 below a 2^63 denominator, as in a measure's tables
    pool = draw(st.lists(st.integers(0, draw(st.sampled_from([2**20, 2**80]))), min_size=1,
                         max_size=6))
    pool += [0] * draw(st.integers(0, 1))  # a zero mass, as in a scaled or pulled-back table
    nums = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=64))
    den = max(sum(nums), 1) * draw(st.integers(1, draw(st.sampled_from([2**30, 2**70]))))
    dtype = np.int64 if den < 2**63 else object
    return BlockTable(2, 6, np.arange(len(nums)), np.array(nums, dtype), den)


@settings(max_examples=100, deadline=None)
@given(_random_table())
def test_table_entropy_equals_per_entry_sum_on_random_tables(table):
    assert _table_entropy(table) == _per_entry_table_entropy(table)


@pytest.mark.parametrize("repeats", [2, 3, 2**10 + 1, 2**20])
@pytest.mark.parametrize("wide", [False, True], ids=["int64", "python_ints"])
def test_table_entropy_of_one_mass_repeated_many_times(repeats, wide):
    # count * term enters fsum as two exact halves; a count this large shows a lost half
    rng = random.Random(repeats)
    den = rng.randrange(2**80, 2**81) if wide else rng.randrange(2**61, 2**62)
    mass = rng.randrange(1, den // (4 * repeats))
    others = [rng.randrange(1, den // 8) for _ in range(5)]
    nums = [mass] * repeats + others + [0, den - mass * repeats - sum(others)]
    table = BlockTable(2, 21, np.arange(len(nums)), np.array(nums, object if wide else np.int64),
                       den)
    assert _table_entropy(table) == _per_entry_table_entropy(table)


def test_table_entropy_of_terms_below_the_split_range():
    # 2^20 / 2^1000 has a term near 2^-970.6, so count * lo could lose bits: the term repeats
    den, tiny = 2**1000, 2**20
    assert 0 < neg_xlogx(tiny / den) < 2.0**-969
    nums = [tiny] * 7 + [3 * tiny] * 2 + [den // 3, den - den // 3 - 13 * tiny]
    table = BlockTable(2, 4, np.arange(len(nums)), np.array(nums, object), den)
    assert _table_entropy(table) == _per_entry_table_entropy(table)
    small = BlockTable(2, 2, np.arange(3), np.array([tiny, tiny, den - 2 * tiny], object), den)
    assert _table_entropy(small) == _per_entry_table_entropy(small)


ARRAY_MIN = entropy.ENTROPY_ARRAY_MIN_MASSES


def _table_with_masses(k, den, rng, zero=False):
    """A table of exactly k distinct masses over den, each small one on 1-3 words, and a
    zero numerator if asked, as in a scaled or pulled-back table."""
    small = set()
    while len(small) < k - 1:
        small.add(rng.randrange(1, den // (4 * k)))
    nums = [m for m in small for _ in range(rng.randint(1, 3))]
    nums += [den - sum(nums)] + [0] * zero
    dtype = np.int64 if den < 2**63 else object
    return BlockTable(2, 20, np.arange(len(nums)), np.array(nums, dtype), den)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("den_bits", [40, 60, 90])
def test_table_entropy_at_the_array_crossover(offset, den_bits):
    # below the crossover the per-mass loop sums, from it on the array passes
    rng = random.Random(3 * den_bits + offset)
    table = _table_with_masses(ARRAY_MIN + offset, rng.randrange(2 ** (den_bits - 1),
                                                                 2**den_bits), rng)
    assert len(_mass_counts(table)[0]) == ARRAY_MIN + offset
    assert _table_entropy(table) == _per_entry_table_entropy(table)


def test_table_entropy_array_path_with_a_zero_numerator():
    table = _table_with_masses(ARRAY_MIN, 2**40 + 7, random.Random(0), zero=True)
    assert 0 in _mass_counts(table)[0] and len(_mass_counts(table)[0]) == ARRAY_MIN + 1
    assert _table_entropy(table) == _per_entry_table_entropy(table)


def _exact_repeated_sum(masses, counts, den):
    """The correctly rounded sum of each mass's term repeated by its count, as fsum of the
    repeated terms gives it, from one exact rational sum."""
    masses, counts = np.asarray(masses, object).tolist(), np.asarray(counts, object).tolist()
    return float(sum(F(neg_xlogx(num / den)) * count for num, count in zip(masses, counts)))


def test_table_entropy_array_path_repeats_terms_outside_the_split_range(monkeypatch):
    # terms below 2^-969 and counts from SPLIT_MAX_COUNT on repeat. The count bound is
    # lowered from 2^26 to 2^12 so that the repeated list stays small; the masses go to
    # mass_entropy with their counts, as their table would hold 2^13 words
    monkeypatch.setattr(entropy, "SPLIT_MAX_COUNT", 2**12)
    den = 2**1000
    masses = [2**20 + i for i in range(8)]  # terms near 2^-970.6
    masses += [den >> 40, (den >> 40) + 1]  # on 2^12 and 2^12 + 3 words
    masses += [(den >> 8) + 977 * i for i in range(ARRAY_MIN)]
    counts = [5] * 8 + [2**12, 2**12 + 3] + [1 + i % 4 for i in range(ARRAY_MIN)]
    assert all(0 < neg_xlogx(m / den) < entropy.SPLIT_MIN_TERM for m in masses[:8])
    assert sum(m * c for m, c in zip(masses, counts)) < den
    h = entropy.mass_entropy(_ints(masses), _ints(counts), den)
    assert h == _exact_repeated_sum(masses, counts, den)
    monkeypatch.setattr(entropy, "ENTROPY_ARRAY_MIN_MASSES", 10**9)
    assert entropy.mass_entropy(_ints(masses), _ints(counts), den) == h  # the per-mass loop


def _split(masses, counts, i, part):
    """The same words with mass i's count split into part and the rest, as two entries."""
    masses, counts = np.asarray(masses, object).tolist(), np.asarray(counts, object).tolist()
    return (_ints(masses + [masses[i]]),
            _ints(counts[:i] + [counts[i] - part] + counts[i + 1 :] + [part]))


@pytest.mark.parametrize("k", [8, ARRAY_MIN], ids=["per_mass_loop", "array_passes"])
def test_mass_entropy_is_unchanged_when_a_mass_is_split(k, monkeypatch):
    # the types of a chain may share a mass, so one mass can arrive as several entries; a
    # split count's halves, or a repeated term's copies, sum exactly to the whole
    monkeypatch.setattr(entropy, "SPLIT_MAX_COUNT", 2**12)  # so a repeated count stays small
    den = 2**1000
    masses = [2**20, den >> 40, (den >> 40) + 1]  # a term near 2^-970.6, and two counts of 2^12
    masses += [(den >> 8) + 977 * i for i in range(k - len(masses))]
    counts = [5, 2**12, 2**12 + 3] + [1 + i % 4 for i in range(k - 3)]
    assert neg_xlogx(masses[0] / den) < entropy.SPLIT_MIN_TERM
    h = entropy.mass_entropy(_ints(masses), _ints(counts), den)
    assert h == _exact_repeated_sum(masses, counts, den)
    for i, part in [(0, 2), (1, 1), (1, 2**11), (2, 4), (k - 1, 1), (k - 2, 2)]:
        split = _split(masses, counts, i, part)
        assert (len(split[0]) >= ARRAY_MIN) == (k == ARRAY_MIN)
        assert entropy.mass_entropy(*split, den) == h, (i, part)
    small = BlockTable(2, 10, np.arange(k), np.arange(1, k + 1, dtype=np.int64), k * (k + 1))
    for i in range(k):  # one word per mass, each split off as one of two entries
        assert entropy.mass_entropy(*_split(*_mass_counts(small), i, 1), small.den) == (
            _table_entropy(small))


# operands on both sides of 2^53 (exact in float64) and of 2^63 (int64)
_OPERANDS = st.one_of(st.integers(1, 2**53), st.integers(2**53 - 3, 2**53 + 3),
                      st.integers(2**53, 2**63 - 1), st.integers(2**63 - 3, 2**63 + 3),
                      st.integers(2**63, 2**90))


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(_OPERANDS | st.just(0), _OPERANDS), min_size=1, max_size=12),
       as_object=st.booleans())
@example(pairs=[(2**53 + 1, 2), (2**53 + 3, 2), (2**54 + 6, 4)], as_object=False)  # exact ties
@example(pairs=[(2**53 + 1, 3), (2**63 - 1, 2**63 - 2)], as_object=False)  # float64 rounds twice
@example(pairs=[(2**53 + 1, 3), (2**63 + 1, 3)], as_object=True)
def test_quotients_are_the_fraction_floats(pairs, as_object):
    nums, dens = (list(column) for column in zip(*pairs))
    dtype = object if as_object or max(nums + dens) >= 2**63 else np.int64
    expected = [float(F(n, d)) for n, d in pairs]
    got = entropy.quotients(np.array(nums, dtype), np.array(dens, dtype))
    assert got.dtype == np.float64 and got.tolist() == expected
    # one denominator for every numerator, as a table has
    got = entropy.quotients(np.array(nums, dtype), dens[0])
    assert got.tolist() == [float(F(n, dens[0])) for n in nums]


def test_mass_entropy_terms_are_the_same_on_both_paths():
    # a mass's term is the same float in the per-mass loop and in the array passes
    rng = random.Random(11)
    den = rng.randrange(2**70, 2**71)
    masses = [rng.randrange(1, den // ARRAY_MIN) for _ in range(ARRAY_MIN)]
    loop = [entropy.mass_entropy(_ints([m]), _ints([1]), den) for m in masses]
    arrays = [entropy.mass_entropy(_ints([m] + [0] * (ARRAY_MIN - 1)), _ints([1] * ARRAY_MIN), den)
              for m in masses]
    assert loop == arrays == [neg_xlogx(m / den) for m in masses]


def test_exact_repeated_sum_is_the_per_entry_oracle():
    table = _table_with_masses(ARRAY_MIN, 2**61 + 1, random.Random(5))
    assert _exact_repeated_sum(*_mass_counts(table), table.den) == _per_entry_table_entropy(table)


def test_table_entropy_divides_exactly_past_2_53():
    # an int64 table with 2^53 <= den < 2^63: float64 operands would round den and the
    # two large masses, and that float division changes this table's sum (seed chosen so)
    rng = random.Random(3)
    den = 2**62 + 2**40 + 1
    small = sorted({rng.randrange(1, 2**20) for _ in range(ARRAY_MIN + 3)})
    rest = den - sum(small)
    nums = small + [rest // 3 + rng.randrange(2**30)]
    nums.append(rest - nums[-1])
    table = BlockTable(2, 20, np.arange(len(nums)), np.array(nums, np.int64), den)
    masses, counts = _mass_counts(table)
    assert len(masses) >= ARRAY_MIN
    rounded = (np.array(masses, dtype=float) / float(den)).tolist()
    naive = math.fsum(-p * math.log(p) * count for p, count in zip(rounded, counts))
    assert naive != _per_entry_table_entropy(table)
    assert _table_entropy(table) == _per_entry_table_entropy(table)


# -- convolution entropy inequalities (estimator-level shadows) -----------------------


def test_subadditivity_on_provable_pairs():
    # pairs where the finite-L shadow of the subadditivity inequality
    # provably holds: exact bernoulli closure, a uniform factor, two
    # high-entropy factors, and two zero-rate factors
    pairs = [
        (bern("1/4"), bern("1/3")),
        (MARKOV_23, shift_haar(SYS2)),
        (MARKOV_23, Markov.stationary(SYS2, [["3/5", "2/5"], ["2/5", "3/5"]])),
        (PeriodicOrbit(SYS2, (0, 1)), PeriodicOrbit(SYS2, (0, 1))),
    ]
    from ergolab.shifts import convolve_shift

    for mu, nu in pairs:
        conv = convolve_shift(mu, nu)
        c = entropy_rate(conv, 6).value
        a = entropy_rate(mu, 6).value
        b = entropy_rate(nu, 6).value
        assert c <= a + b + 1e-9


def test_superadditivity_with_gap_reporting():
    pairs = [
        (bern("1/4"), PeriodicOrbit(SYS2, (0, 1))),
        (MARKOV_23, PeriodicOrbit(SYS2, (0, 1))),
        (bern("1/4"), bern("1/3")),
    ]
    for mu, nu in pairs:
        conv = Convolution(SYS2, mu, nu)
        est_c = entropy_rate(conv, 8)
        est_mu = entropy_rate(mu, 8)
        est_nu = entropy_rate(nu, 8)
        best, gap = max(
            (est_mu.value, est_mu.gap), (est_nu.value, est_nu.gap)
        )
        assert est_c.value + 1e-6 >= best - gap


def test_haar_maximality_over_test_grid():
    for p in ("1/10", "1/4", "2/5", "3/5", "9/10"):
        assert entropy_rate(bern(p), 3).value < LN2 - 1e-6
    assert entropy_rate(MARKOV_23, 3).value < LN2 - 1e-6


def test_product_additivity_per_level():
    prod_sys = shift_space(cyclic(4))
    pm = ProductMeasure(prod_sys, bern("1/4"), shift_haar(SYS2))
    for L in range(1, 7):
        lhs = block_entropy(pm, L)
        rhs = block_entropy(bern("1/4"), L) + block_entropy(shift_haar(SYS2), L)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_product_of_periodic_orbits_blocks_add():
    prod_sys = shift_space(cyclic(4))
    per = PeriodicOrbit(SYS2, (0, 1))
    pm = ProductMeasure(prod_sys, per, per)
    for L in range(1, 6):
        assert block_entropy(pm, L) == pytest.approx(
            2 * block_entropy(per, L), abs=1e-12
        )
    # four equally likely joint phases from L = 1 on
    assert block_entropy(pm, 2) == pytest.approx(math.log(4), abs=1e-15)


# -- empirical entropy against a dict-count oracle ----------------------------------------


def _dict_count_h_levels(words, length):
    """h_1..h_L by counting every in-word window in a dict, level by level."""
    h_levels = []
    for ell in range(1, length + 1):
        counts = {}
        for w in words:
            w = [int(s) for s in w]
            for i in range(len(w) - ell + 1):
                key = tuple(w[i : i + ell])
                counts[key] = counts.get(key, 0) + 1
        total = sum(counts.values())
        if ell == 1:
            h_levels.append(math.fsum(-(c / total) * math.log(c / total) for c in counts.values()))
            continue
        prefix = {}
        for key, c in counts.items():
            prefix[key[:-1]] = prefix.get(key[:-1], 0) + c
        h_levels.append(
            math.fsum((c / total) * math.log(prefix[key[:-1]] / c) for key, c in counts.items())
        )
    return tuple(h_levels), len(counts), total


def _rows(arrays):
    """The words the estimator reads: every row of every array."""
    return [row for array in arrays for row in array]


def _one_row_each(*words):
    """Each word as a one-row array."""
    return [np.array([w]) for w in words]


@st.composite
def _row_source(draw):
    """2-D arrays over range(k) of mixed widths, some empty, with enough symbols for L."""
    k = draw(st.integers(1, 5))
    length = draw(st.integers(1, max(L for L in range(1, 5) if k**L <= 250)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = [rng.choice([0, 1, 2, 5]) for _ in range(k)]
    weights[rng.randrange(k)] += 1
    widths = [1, length - 1, length, length + 2, 57]
    shapes = draw(st.lists(st.tuples(st.sampled_from([0, 1, 2, 7]), st.sampled_from(widths)),
                           max_size=6))
    while (sum(r * w for r, w in shapes) < 100 * k**length
           or max((w for r, w in shapes if r), default=0) < length):
        shapes.append((rng.choice([0, 1, 3, 20]), rng.choice(widths + [300])))
    arrays = [np.array(rng.choices(range(k), weights, k=r * w), rng.choice([np.int8, np.int64]))
              .reshape(r, w) for r, w in shapes]
    return arrays, length, k


@settings(max_examples=40, deadline=None)
@given(_row_source())
def test_empirical_entropy_matches_dict_counts(case):
    arrays, length, k = case
    est = empirical_block_entropy(arrays, length, alphabet_size=k)
    h_levels, observed, total = _dict_count_h_levels(_rows(arrays), length)
    assert est.upper_bounds == h_levels
    assert est.value == h_levels[-1]
    mm = (observed - 1) / (2 * total)
    assert est.note.endswith(f"would add {mm:.2e} nats to H_L")


def _masked_bincount_levels(words, length, k):
    """Per-level window counts and h_L as the estimator took them before one roll to depth L.

    The int64 window codes are rolled one symbol per level, a validity mask is
    narrowed level by level, and each level counts `np.bincount(codes[valid])`.
    """
    sizes = [len(w) for w in words]
    digits = np.concatenate([w for w in words if len(w)])
    cont = np.ones(len(digits), dtype=bool)
    cont[np.cumsum([n for n in sizes if n]) - 1] = False
    level_counts, h_levels = [], []
    codes = digits.astype(np.int64)
    valid = np.ones(len(digits), dtype=bool)
    for ell in range(1, length + 1):
        n_win = len(digits) - ell + 1
        if ell > 1:
            codes = codes[:n_win]
            codes *= k
            codes += digits[ell - 1 :]
            valid = valid[:n_win]
            valid &= cont[ell - 2 : ell - 2 + n_win]
        counts = np.bincount(codes[valid], minlength=k**ell)
        level_counts.append(counts)
        total = int(counts.sum())
        seen = np.flatnonzero(counts)
        if ell == 1:
            h_levels.append(math.fsum(neg_xlogx(c / total) for c in counts[seen].tolist()))
        else:
            prefix = counts.reshape(-1, k).sum(1)
            h_levels.append(math.fsum(
                (c / total) * math.log(p / c)
                for c, p in zip(counts[seen].tolist(), prefix[seen // k].tolist())
            ))
    return level_counts, tuple(h_levels)


@settings(max_examples=40, deadline=None)
@given(_row_source())
@example((_one_row_each([0, 1, 1] * 534, [1], [0, 1]), 4, 2))  # rows shorter than L - 1
@example((_one_row_each([1, 0] * 801, [0, 1, 1], [1, 1, 0, 1]), 4, 2))  # a row of exactly L - 1
@example(([np.array([[0, 1] * 800]), np.array([[1, 1, 0], [0, 1, 1]])], 4, 2))  # L - 1 wide
@example((_one_row_each([0] * 300, [0] * 299, [0]), 300, 1))  # one code per level for k = 1
def test_level_counts_match_per_level_masked_bincount(case):
    arrays, length, k = case
    counts, h_levels = _masked_bincount_levels(_rows(arrays), length, k)
    got = entropy._word_counts(arrays, k, length)
    assert len(got) == length
    for ell, (a, b) in enumerate(zip(got, counts), start=1):
        assert a.dtype == np.int64 and np.array_equal(a, b), f"level {ell}"
    assert empirical_block_entropy(arrays, length, alphabet_size=k).upper_bounds == h_levels


@settings(max_examples=60, deadline=None)
@given(_row_source(), st.integers(1, 400))
@example((_one_row_each([0, 1, 0, 1, 1], [1]), 4, 2), 5)  # a last run of fewer than L - 1 symbols
def test_counts_run_by_run_match_one_pass(case, chunk):
    # runs end mid-array, a row can outrun a chunk, and a run of short rows
    # has no window of length L
    arrays, length, k = case
    one_pass = entropy._word_counts(arrays, k, length)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(entropy, "CHUNK_SYMBOLS", chunk)
        runs = list(entropy._runs(arrays))
        by_runs = entropy._word_counts(arrays, k, length)
    steps = [(a, max(1, chunk // a.shape[1])) for a in arrays if a.size]
    expected = [a[i : i + step] for a, step in steps for i in range(0, len(a), step)]
    assert len(runs) == len(expected)
    for run, rows in zip(runs, expected):  # whole rows, as views
        assert run.shape == rows.shape and np.shares_memory(run, rows)
    for ell, (a, b) in enumerate(zip(by_runs, one_pass), start=1):
        assert a.dtype == np.int64 and np.array_equal(a, b), f"level {ell}"


@pytest.mark.parametrize("chunk", [1, 6, 7, 50, 2**16])
@pytest.mark.parametrize("width", [3, 7])
def test_empirical_entropy_reads_a_2d_array_like_its_rows(chunk, width, monkeypatch):
    # a run is a slice of one array's rows, whatever the chunk, so an array reads
    # like its rows cut into arrays anywhere
    monkeypatch.setattr(entropy, "CHUNK_SYMBOLS", chunk)
    rows = np.random.default_rng(width).integers(0, 3, size=(1000, width), dtype=np.int8)
    got = empirical_block_entropy([rows], 3, alphabet_size=3)
    assert got == empirical_block_entropy(np.split(rows, [1, 2, 300, 999]), 3, alphabet_size=3)
    assert got == empirical_block_entropy([row[None] for row in rows], 3, alphabet_size=3)
    assert got.upper_bounds == _dict_count_h_levels(rows, 3)[0]
    rows[999, 2] = 3
    with pytest.raises(ValueError, match="symbol 3 outside range\\(3\\)"):
        empirical_block_entropy([rows], 3, alphabet_size=3)


@pytest.mark.parametrize("k, bad", [(3, 2), (2, -1)])
def test_empirical_entropy_rejects_symbols_outside_the_alphabet(k, bad):
    # a uniform C3 source read as binary once passed 2 off as a word break
    arrays = [np.array([random.Random(3).choices(range(k), k=1000)])]
    arrays[0][0, 500] = bad
    with pytest.raises(ValueError, match=f"symbol {bad} outside range\\(2\\)"):
        empirical_block_entropy(arrays, 2, alphabet_size=2)


def test_empirical_entropy_needs_a_word_as_long_as_L():
    arrays = [np.array([[0, 1, 1]] * 1000), np.empty((0, 9), np.int8)]
    with pytest.raises(InsufficientData, match="L=4: the longest word has 3 symbols"):
        empirical_block_entropy(arrays, 4, alphabet_size=2)
