import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from ergolab.circle import (
    CircleSystem,
    _coded_blocks,
    circle_entropy_report,
    lebesgue,
    periodic_atomic,
    sample_lebesgue_coding,
    symbolic_coding,
    times_k,
)
from ergolab.entropy import empirical_block_entropy
from ergolab.errors import BadK


def test_times_k_construction():
    assert times_k(2).k == 2
    assert times_k(3).k == 3
    with pytest.raises(BadK):
        times_k(1)


def test_times_k_of_a_huge_multiplier():
    # no check builds the k^2 partition pieces
    k = 2**64 + 1
    sys = times_k(k)
    assert sys.k == k
    words = sample_lebesgue_coding(sys, 45, 3)
    assert [w.tolist() for w in words] == _naive_lebesgue_coding(k, 45, 3)


@pytest.mark.parametrize("k", [2.5, 3.0, "3", True])
def test_non_integer_multiplier_rejected(k):
    with pytest.raises(BadK, match="integer >= 2"):
        times_k(k)
    with pytest.raises(BadK):
        CircleSystem(k)


def test_coding_fixed_point():
    assert list(symbolic_coding(times_k(2), 0, 8)) == [0] * 8


def test_coding_one_third_alternates():
    # exact rational orbit 1/3 -> 2/3 -> 1/3
    assert list(symbolic_coding(times_k(2), F(1, 3), 8)) == [0, 1] * 4


def test_float_start_is_rejected():
    # orbits are exact: a float start has no exact value to iterate
    with pytest.raises(TypeError, match="not an exact rational"):
        symbolic_coding(times_k(2), 0.3, 8)


def test_lebesgue_sampler_symbol_frequency():
    words = sample_lebesgue_coding(times_k(2), 10**6, seed=4)
    flat = np.concatenate([np.asarray(w) for w in words])
    freq = float((flat == 0).mean())
    assert abs(freq - 0.5) < 0.002


def test_lebesgue_coding_matches_uniform_bernoulli_blocks():
    # measure-isomorphism check: length-3 coded block frequencies vs 1/8
    words = sample_lebesgue_coding(times_k(2), 4 * 10**5, seed=9)
    codes = np.concatenate([w[:-2] * 4 + w[1:-1] * 2 + w[2:] for w in words])
    counts = np.bincount(codes, minlength=8)
    total = len(codes)
    p = 1 / 8
    sigma = (p * (1 - p) / total) ** 0.5
    for c in counts:
        assert abs(c / total - p) < 4 * sigma


def test_periodic_atomic_orbit():
    mu = periodic_atomic(times_k(2), "1/3")
    assert mu.orbit == (F(1, 3), F(2, 3))
    with pytest.raises(ValueError):
        periodic_atomic(times_k(2), "1/6")  # shares the factor 2 with k


def test_periodic_atomic_entropy_exactly_zero():
    est = circle_entropy_report(times_k(2), periodic_atomic(times_k(2), "1/3"), depth=4)
    assert est.value == 0.0


def test_lebesgue_entropy_near_ln_k():
    est = circle_entropy_report(
        times_k(2), lebesgue(), depth=8, n_symbols=5 * 10**5, seeds=2, base_seed=11
    )
    assert abs(est.value - math.log(2)) < 0.02
    est3 = circle_entropy_report(
        times_k(3), lebesgue(), depth=5, n_symbols=4 * 10**5, seeds=2, base_seed=12
    )
    assert abs(est3.value - math.log(3)) < 0.03


def test_strict_maximality_gap_on_circle():
    sys = times_k(2)
    h_atomic = circle_entropy_report(sys, periodic_atomic(sys, "1/5"), depth=6).value
    h_leb = circle_entropy_report(
        sys, lebesgue(), depth=8, n_symbols=5 * 10**5, seeds=1, base_seed=2
    ).value
    assert h_atomic == 0.0
    assert h_leb - h_atomic >= math.log(2) - 0.03


# -- Lebesgue coding against the symbol-by-symbol bigint loop ---------------------------


def _naive_coded_block(rng, k, length):
    """One symbol per step: multiply the dyadic point by k, take the integer part."""
    bits_per_symbol = max(1, (k - 1).bit_length())
    precision = length * bits_per_symbol + 64
    num = rng.getrandbits(precision)  # the point num / 2^precision
    mask = (1 << precision) - 1
    out = []
    for _ in range(length):
        num *= k
        out.append(num >> precision)
        num &= mask
    return out


def _naive_lebesgue_coding(k, n_symbols, seed):
    rng = random.Random(seed)
    words = []
    remaining = n_symbols
    while remaining > 0:
        length = min(40, remaining)
        words.append(_naive_coded_block(rng, k, length))
        remaining -= length
    return words


# c digits a limb pass, the largest c with k^c < 2^32: c = 31 at k = 2, 20 at k = 3,
# 9 at k = 10, 4 at k = 255 and 256, 2 at k = 65535, and 1 from k = 65536 on; from
# k = 2^32 on the limbs are Python ints. Blocks of c - 1, c and c + 1 symbols (30-32 at
# k = 2, 19-21 at k = 3), alone or as the tail after a full block (71, 72), end on a short
# pass, on a full one, or on a one-digit pass after a full one.
@pytest.mark.parametrize(
    "k", [2, 3, 5, 7, 10, 16, 255, 256, 65535, 65536, 2**31 + 11, 2**32 - 1, 2**32, 2**32 + 1]
)
@pytest.mark.parametrize("n", [1, 17, 40, 120, 123, 4017, 19, 20, 21, 30, 31, 32, 71, 72])
def test_lebesgue_coding_matches_bigint_loop(k, n):
    for seed in (0, 9):
        words = sample_lebesgue_coding(CircleSystem(k), n, seed)
        assert [w.tolist() for w in words] == _naive_lebesgue_coding(k, n, seed)
        assert all(w.dtype == np.min_scalar_type(-k) for w in words)
    if k <= 16:
        assert words[0].dtype == np.int8


@pytest.mark.parametrize("k", [2, 3, 10, 65535, 2**32 + 1])
@pytest.mark.parametrize("length, count", [(40, 3), (31, 1), (71, 2)])
def test_coded_blocks_leave_the_generator_as_the_naive_loop(k, length, count):
    # one getrandbits call for every point leaves the shared generator where `count`
    # per-point calls leave it, whatever the number of digits a pass takes
    rng, naive_rng = random.Random(11), random.Random(11)
    rng.random(), naive_rng.random()
    digits = _coded_blocks(rng, k, length, count)
    assert digits.tolist() == [_naive_coded_block(naive_rng, k, length) for _ in range(count)]
    assert rng.getstate() == naive_rng.getstate()
    assert rng.random() == naive_rng.random()


@pytest.mark.parametrize("k", [2**40 + 15, 2**62, 2**62 + 1, 2**63 + 5, 3**90])
def test_lebesgue_coding_of_a_large_multiplier(k):
    # one digit per chunk: int64 chunks up to k = 2^62, Python ints above it
    words = sample_lebesgue_coding(CircleSystem(k), 45, 2)
    assert [w.tolist() for w in words] == _naive_lebesgue_coding(k, 45, 2)


@pytest.mark.parametrize("n", [0, 40, 4000, 39, 4001, 4039])
def test_lebesgue_sample_is_one_array_when_every_block_is_full(n):
    words = sample_lebesgue_coding(times_k(3), n, 5)
    if n % 40 == 0:
        assert isinstance(words, np.ndarray) and words.shape == (n // 40, 40)
    else:
        assert isinstance(words, list) and [len(w) for w in words] == [40] * (n // 40) + [n % 40]
    assert [w.tolist() for w in words] == _naive_lebesgue_coding(3, n, 5)


def test_lebesgue_estimate_keeps_its_working_memory_to_a_chunk():
    # concatenating the sample's rows and bincounting its intp window codes in one
    # pass peaked at about 13.7 MB; a run of rows is a view, counted a chunk at a time
    blocks = sample_lebesgue_coding(times_k(2), 10**6, seed=4)
    empirical_block_entropy([blocks[:3000]], 2, alphabet_size=2)  # numpy's first-call set-up
    tracemalloc.start()
    try:
        est = empirical_block_entropy([blocks], 12, alphabet_size=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 10**6
    assert est == circle_entropy_report(times_k(2), lebesgue(), 12, n_symbols=10**6, base_seed=4)


@pytest.mark.parametrize("sizes, last", [
    ([5 * 10**5] * 4, [40] * 4),
    ([5 * 10**5 + 3] * 2 + [5 * 10**5 + 2] * 2, [3, 3, 2, 2]),  # short tail blocks
])
def test_multi_seed_lebesgue_estimate_reads_each_seed_array(sizes, last):
    # flattening every seed's (blocks, 40) array into one list of row views peaked at
    # 10.4 MB here, 10.9 MB with short tail blocks, whose seeds went as 1-D words, and
    # the estimator concatenated them again; each seed's full blocks and its (1, tail)
    # block go as 2-D arrays, whose runs of rows are views, counted a chunk at a time
    circle_entropy_report(times_k(2), lebesgue(), 2, n_symbols=10**4 + 3, seeds=2)  # set-up
    tracemalloc.start()
    try:
        est = circle_entropy_report(times_k(2), lebesgue(), 12, n_symbols=sum(sizes), seeds=4,
                                    base_seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 10**6
    samples = [sample_lebesgue_coding(times_k(2), n, 4 + s) for s, n in enumerate(sizes)]
    assert [len(sample[-1]) for sample in samples] == last
    arrays = [np.array(part) for n, sample in zip(sizes, samples)
              for part in (sample[: n // 40], sample[n // 40 :])]
    assert est == empirical_block_entropy(arrays, 12, alphabet_size=2)


def test_circle_entropy_report_uses_every_symbol(monkeypatch):
    from ergolab import circle

    drawn = []

    def recording(sys, n_symbols, seed):
        drawn.append((n_symbols, seed))
        return lebesgue_blocks(sys, n_symbols, seed)

    lebesgue_blocks = circle._lebesgue_blocks
    monkeypatch.setattr(circle, "_lebesgue_blocks", recording)
    circle_entropy_report(times_k(2), lebesgue(), 3, n_symbols=10**4 + 1, seeds=3, base_seed=5)
    # the first n_symbols % seeds seeds take one extra symbol each
    assert drawn == [(3334, 5), (3334, 6), (3333, 7)]
    drawn.clear()
    circle_entropy_report(times_k(2), lebesgue(), 3, n_symbols=9000, seeds=3)
    assert drawn == [(3000, 0), (3000, 1), (3000, 2)]


@pytest.mark.parametrize("mu", [lebesgue(), periodic_atomic(times_k(2), "1/3")])
def test_circle_entropy_report_needs_a_seed(mu):
    with pytest.raises(ValueError, match="at least 1 seed, got 0"):
        circle_entropy_report(times_k(2), mu, 3, n_symbols=10**4, seeds=0)


def test_negative_symbol_count_is_rejected():
    # it was read as 0: an empty (0, 40) sample, and a report of "0 symbols < 100 * 2^3"
    with pytest.raises(ValueError, match="must be >= 0, got n=-5"):
        sample_lebesgue_coding(times_k(2), -5, 0)
    for seeds in (1, 3):
        with pytest.raises(ValueError, match="must be >= 0, got n=-5"):
            circle_entropy_report(times_k(2), lebesgue(), 3, n_symbols=-5, seeds=seeds)
