"""Entropy computations: block, conditional block, and empirical.

Everything is in nats. Probabilities arrive as exact rationals and become
floats by one correctly rounded division each (`quotients`); float sums go
through `math.fsum` for order-independent results. An exact block entropy
reads only masses and how many words hold each (`mass_entropy`, which gives why the float
equals the sum of one term per word), never a block table: a chain that emits its own state
has one path per word, so its words' masses are its types' (`shifts._Levels.types`),
fractions whose parts depend only on how often the path steps by each entry; a chain that
hides its state sums over paths, so they are its forward-vector classes' sums
(`_Levels.classes`). The canonical estimator for the entropy rate of a stationary
measure is the conditional block entropy h_L = H_L - H_{L-1}, a nonincreasing upper bound
on the rate.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import truediv
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InsufficientData, MonotonicityViolated, UnsupportedKind
from .exact import entropy_nats, neg_xlogx
from .record import Record
from .shifts import CHUNK_SYMBOLS, Bernoulli, Markov, ShiftMeasure, _code_dtype, _sum_runs

MONOTONE_SLACK = 1e-12
VELTKAMP = 2.0**27 + 1  # splits a double into two halves of 26 significant bits
SPLIT_MIN_TERM = 2.0**-969
SPLIT_MAX_COUNT = 2**26
ENTROPY_ARRAY_MIN_MASSES = 64  # the measured crossover: below it the per-mass loop is faster


class EntropyEstimate(Record):
    """An entropy value with its h_L trail and convergence status."""

    value: float
    upper_bounds: tuple[float, ...]
    method: str  # closed_form | block_exact | empirical
    L_max: int
    converged: bool
    gap: float
    note: str = ""


def quotients(nums: np.ndarray, dens) -> np.ndarray:
    """float(Fraction(num, den)) for each num, over one den or its own (an array like nums).
    IEEE division of two operands below 2^53, exact in float64, rounds correctly; so does
    Python's int / int, which divides the others."""
    if not isinstance(dens, np.ndarray):  # one den
        if dens < 2**53 and nums.max(initial=0) < 2**53:
            return nums.astype(float) / dens
        return np.fromiter(map(truediv, nums.tolist(), repeat(dens)), float, len(nums))
    p = nums / dens  # float64 division of int64s, or int / int on Python ints
    if p.dtype == object:
        return p.astype(float)
    wide = np.flatnonzero((nums >= 2**53) | (dens >= 2**53))
    p[wide] = list(map(truediv, nums[wide].tolist(), dens[wide].tolist()))
    return p


def mass_entropy(masses: np.ndarray, counts: np.ndarray, den) -> float:
    """-sum p ln p over words: `counts[i]` of them of mass `masses[i]` / den (or / den[i]).

    Each mass's term is Veltkamp-split into hi + lo, each of at most 26 significant bits,
    so count * hi and count * lo are exact for a count below 2^26 and a term above 2^-969,
    where lo stays a normal float; a term outside that range is repeated. Every term fsum
    sees is exact, so the sum is the correctly rounded sum of one term per word, however
    the words are grouped: a mass listed twice gives the same float.

    The masses and counts are integer arrays, int64 or Python ints, and so is den where
    each mass has its own. With fewer than ENTROPY_ARRAY_MIN_MASSES masses, each term is
    computed on its own; otherwise the `quotients`, split and products are array passes
    and math.log maps over them, so each term is the per-mass loop's.
    """
    if len(masses) < ENTROPY_ARRAY_MIN_MASSES:
        dens = den.tolist() if isinstance(den, np.ndarray) else repeat(den)
        terms = []
        for num, d, count in zip(masses.tolist(), dens, counts.tolist()):
            # int / int is correctly rounded, so each term equals neg_xlogx(float(Fraction))
            x = neg_xlogx(num / d)
            t = VELTKAMP * x
            hi = t - (t - x)
            rare = x < SPLIT_MIN_TERM or count >= SPLIT_MAX_COUNT
            terms += repeat(x, count) if rare else (count * hi, count * (x - hi))
        return math.fsum(terms)
    p = quotients(masses, den)
    # a zero mass (or quotient) takes log(1.0), so a zero term, which fsum ignores
    x = -1.0 * p * np.fromiter(map(math.log, memoryview(p + (p == 0.0))), float, len(p))
    counts = counts.astype(float)
    rare = np.flatnonzero((x < SPLIT_MIN_TERM) | (counts >= SPLIT_MAX_COUNT))
    terms = [term for term, count in zip(x[rare].tolist(), counts[rare].tolist())
             for term in repeat(term, int(count))]
    x[rare] = 0.0  # a rare term repeats in place of its halves
    t = VELTKAMP * x
    hi = t - (t - x)
    # a memoryview yields its floats one at a time, where a list would hold them all
    return math.fsum(chain(terms, memoryview(counts * hi), memoryview(counts * (x - hi))))


def block_entropy(mu: ShiftMeasure, length: int) -> float:
    """H_L of the exact length-L cylinder distribution, under mu's own guard as `block_table`
    (wherever the levels it shares were built), by the chain's shape: a chain that emits its
    own state has one path per word, so a word's mass is a product and the words of one type
    share it (`types`); one that hides its state sums over paths, so the words of one forward
    vector share it (`classes`)."""
    if length < 0:
        raise ValueError(f"block length must be >= 0, got {length}")
    if length == 0:
        return 0.0
    mu._guard(length)
    levels = mu._engine
    if mu._chain[4] == tuple(range(mu.system.alphabet.order)):
        _, nums, dens, types, _, counts = levels.types(length)
        return mass_entropy(nums, np.bincount(types, counts, len(nums)).astype(np.int64), dens)
    vecs, counts, _ = levels.classes(length)
    masses = vecs.sum(axis=1)
    order = np.argsort(masses)  # the classes of one mass share a logarithm
    return mass_entropy(*_sum_runs(masses[order], counts[order]), levels.den(length))


def entropy_rate(mu: ShiftMeasure, L_max: int, tol: float = 1e-9) -> EntropyEstimate:
    """Upper-bound estimate h_{L_max} with the full nonincreasing h_L trail."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return trail_estimate((block_entropy(mu, length) for length in range(1, L_max + 1)), tol)


def trail_estimate(
    block_entropies: Iterable[float], tol: float, closed_form: Optional[float] = None
) -> EntropyEstimate:
    """The h_L = H_L - H_{L-1} trail of H_1, H_2, ..., checked nonincreasing.

    The value is the last h_L, or the closed-form rate when one is given;
    every h_L is an upper bound, so none may fall below that rate.
    """
    H = list(block_entropies)
    if not H:
        raise ValueError("L_max must be >= 1: the trail needs at least H_1")
    h_levels = tuple(b - a for a, b in zip([0.0] + H, H))
    for a, b in zip(h_levels, h_levels[1:]):
        if b > a + MONOTONE_SLACK:
            raise MonotonicityViolated(
                f"h_L increased by {b - a:.3e}; input non-invariant or buggy"
            )
    for ell, h in enumerate(h_levels, start=1):
        if closed_form is not None and h < closed_form - MONOTONE_SLACK:
            raise MonotonicityViolated(
                f"h_{ell} = {h!r} is {closed_form - h:.3e} below the closed-form rate "
                f"{closed_form!r}"
            )
    gap = abs(h_levels[-1] - h_levels[-2]) if len(h_levels) >= 2 else float("inf")
    return EntropyEstimate(
        value=h_levels[-1] if closed_form is None else closed_form,
        upper_bounds=h_levels,
        method="block_exact" if closed_form is None else "closed_form",
        L_max=len(h_levels),
        converged=gap < tol,
        gap=gap,
    )


def closed_form_entropy(mu: ShiftMeasure) -> float:
    """Exact rate for the two kinds with textbook closed forms."""
    if isinstance(mu, Bernoulli):
        return entropy_nats(mu.marginal.weights)
    if isinstance(mu, Markov):
        return math.fsum(
            float(pi_i) * entropy_nats(row)
            for pi_i, row in zip(mu.initial, mu.transition)
        )
    raise UnsupportedKind(f"no closed form for kind {mu.kind}")


def require_symbols(n_symbols: int, k: int, length: int) -> None:
    """The plug-in estimator's data requirement: at least 100 * k^L symbols."""
    if n_symbols < 100 * k**length:
        raise InsufficientData(f"{n_symbols} symbols < 100 * {k}^{length}")


def _runs(arrays: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Each array's nonempty rows in runs of whole rows, about CHUNK_SYMBOLS symbols each.

    A run is a view, a slice of one array's rows; a row longer than a chunk is
    a run of its own.
    """
    for array in (a for a in arrays if a.size):
        step = max(1, CHUNK_SYMBOLS // array.shape[1])
        for start in range(0, len(array), step):
            yield array[start : start + step]


def _word_counts(arrays: Sequence[np.ndarray], k: int, length: int) -> list[np.ndarray]:
    """Counts of the in-row windows at levels 1..L; a symbol outside range(k) raises.

    Every row of the 2-D arrays is a word, and no window crosses a row, so the
    exact counts add up run by run (`_runs`). A run's windows of length L are
    base-k codes, rolled once over the start columns 0..w - L in the narrowest
    code dtype and counted by one bincount; its rows' tails, their last
    ell < L symbols, are counted level by level. A window of level ell is
    a prefix of one of level ell + 1 or a row's tail of length ell, so the
    levels below L are summed down once, from the totals.
    """
    dtype = _code_dtype(k**length)
    counts = [np.zeros(k**ell, np.int64) for ell in range(1, length + 1)]  # level ell at ell - 1
    for run in _runs(arrays):
        if run.min() < 0 or run.max() >= k:
            bad = run[(run < 0) | (run >= k)][0]
            raise ValueError(f"symbol {bad} outside range({k})")
        run = run.astype(dtype)
        width = run.shape[1]
        n_win = width - length + 1
        if n_win > 0:
            codes = run[:, :n_win].copy()
            for i in range(1, length):
                codes *= k
                codes += run[:, i : i + n_win]
            counts[-1] += np.bincount(codes.ravel(), minlength=k**length)
        tail = np.zeros(len(run), dtype)
        for ell in range(1, min(length, width + 1)):
            tail += run[:, width - ell] * dtype.type(k ** (ell - 1))
            counts[ell - 1] += np.bincount(tail, minlength=k**ell)
    for ell in range(length - 1, 0, -1):  # level ell's tails end where level ell + 1's begin
        counts[ell - 1] += counts[ell].reshape(-1, k).sum(1)
    return counts


def empirical_block_entropy(
    arrays: Sequence[np.ndarray], length: int, alphabet_size: int
) -> EntropyEstimate:
    """Plug-in conditional block entropy from sampled words, the rows of 2-D arrays.

    `arrays` is a sequence of 2-D integer arrays, which may differ in width;
    each row is one word. Requires at least 100 * |alphabet|^L symbols, every
    one in range(|alphabet|), and a row of length >= L. Each level's estimate
    is the conditional plug-in over one window table: h_L sums (c_w/T) times
    ln(c_prefix/c_w), so deterministic continuations give exactly 0. The
    window counts are exact integers, taken once at depth L and summed down
    level by level (`_word_counts`), per run of whole rows of about
    CHUNK_SYMBOLS symbols (`_runs`), so the working memory is one run's. The
    note reports the Miller-Madow bias correction magnitude for the
    underlying block entropy rather than applying it.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    k = alphabet_size
    require_symbols(sum(a.size for a in arrays), k, length)
    longest = max((a.shape[1] for a in arrays if a.size), default=0)
    if longest < length:
        raise InsufficientData(
            f"no window of length L={length}: the longest word has {longest} symbols"
        )
    h_levels = []
    for ell, counts in enumerate(_word_counts(arrays, k, length), start=1):
        total = int(counts.sum())
        seen = np.flatnonzero(counts)
        # each term is -(c/T) ln(c/T) at level 1, else (c/T) ln(prefix/c). The counts are
        # below 2^53, so every float64 division is correctly rounded, as Python's int / int;
        # the logarithm is libm's through math.log, which numpy's vector log need not match
        c = counts[seen]
        x = c / total if ell == 1 else counts.reshape(-1, k).sum(1)[seen // k] / c
        logs = np.fromiter(map(math.log, x.tolist()), float, len(x))
        h_levels.append(math.fsum((-x * logs if ell == 1 else c / total * logs).tolist()))
    mm = (len(seen) - 1) / (2 * total)
    gap = abs(h_levels[-1] - h_levels[-2]) if length >= 2 else float("inf")
    return EntropyEstimate(
        value=h_levels[-1],
        upper_bounds=tuple(h_levels),
        method="empirical",
        L_max=length,
        converged=False,
        gap=gap,
        note=f"plug-in estimate; Miller-Madow bias correction would add {mm:.2e} nats to H_L",
    )
