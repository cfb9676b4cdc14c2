"""Circle endomorphisms x -> kx mod 1: the non-symbolic carrier.

Itineraries through the generating partition [i/k, (i+1)/k) are computed in
exact arithmetic for rational starting points. Lebesgue-typical sampling
draws a fresh high-precision random dyadic point per 40-symbol block rather
than shadowing one float orbit, which loses a bit of precision per step.

A block's coding stays exact through one integer product: for a point x in
[0, 1), floor(k^i x) = floor(floor(k^L x) / k^(L-i)) for i <= L, so the
itinerary floor(k^(i+1) x) mod k, i < L, is the L base-k digits of the single
integer floor(k^L x), most significant first.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

import numpy as np

from .entropy import EntropyEstimate, empirical_block_entropy, entropy_rate
from .errors import BadK
from .exact import parse_ratio
from .groups import cyclic
from .shifts import PeriodicOrbit, shift_space

BLOCK_SYMBOLS = 40
FLOAT_PRECISION_BUDGET_BITS = 40


@dataclass(frozen=True)
class CircleSystem:
    """x -> kx mod 1 with the generating partition into k equal intervals."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise BadK(f"the multiplier must be an integer >= 2, got {self.k!r}")


def times_k(k: int) -> CircleSystem:
    return CircleSystem(k)


def symbolic_coding(
    sys: CircleSystem, x0: Union[Fraction, int, str, float], n: int
) -> np.ndarray:
    """Itinerary of x0 through the generating partition, length n.

    Rational starting points iterate exactly; float starting points iterate
    in double precision with a warning once the orbit outruns the precision
    budget (about 40 doublings).
    """
    if n < 1:
        raise ValueError("itinerary length must be >= 1")
    k = sys.k
    out = np.empty(n, dtype=np.int64)
    if isinstance(x0, float):
        if n * math.log2(k) > FLOAT_PRECISION_BUDGET_BITS:
            warnings.warn(
                f"float orbit of length {n} exceeds the {FLOAT_PRECISION_BUDGET_BITS}-bit "
                "precision budget; symbols beyond it are unreliable",
                stacklevel=2,
            )
        x = x0 % 1.0
        for i in range(n):
            x *= k
            s = int(x)
            s = k - 1 if s >= k else s
            out[i] = s
            x -= s
        return out
    x = parse_ratio(x0) % 1
    for i in range(n):
        x *= k
        s = int(x)
        out[i] = s
        x -= s
    return out


def _coded_blocks(rng: random.Random, k: int, length: int, count: int) -> np.ndarray:
    """Exact itineraries of `count` fresh random dyadic points, one row each.

    The point x = num / 2^precision codes to the L base-k digits of the one
    integer floor(k^L x) = (num * k^L) >> precision. Each such integer is split
    into chunks of `width` digits, and the digits of all rows are then peeled
    off at once. For k <= 2^62 a chunk is below k^width <= 2^62 and fits int64;
    a larger k takes one digit per chunk, and chunks and digits stay Python ints.
    """
    bits_per_symbol = max(1, (k - 1).bit_length())
    precision = length * bits_per_symbol + 64
    n_chunks = -(-length // max(1, 62 // bits_per_symbol))
    width = -(-length // n_chunks)
    scale, size = k**length, k**width
    int_type, digit_type = (np.int64, np.min_scalar_type(-k)) if k <= 2**62 else (object, object)
    chunks = []
    for _ in range(count):
        value = (rng.getrandbits(precision) * scale) >> precision
        for _ in range(n_chunks):
            value, c = divmod(value, size)
            chunks.append(c)
    cols = np.array(chunks, dtype=int_type).reshape(count, n_chunks)
    digits = np.empty((count, n_chunks * width), dtype=digit_type)
    for j in range(n_chunks * width):  # the j-th digit from the right
        col = cols[:, j // width]
        digits[:, -1 - j] = col % k
        col //= k
    return digits[:, n_chunks * width - length :]


def sample_lebesgue_coding(sys: CircleSystem, n_symbols: int, seed: int) -> list[np.ndarray]:
    """Blocks of coded symbols from independent Lebesgue-distributed points."""
    rng = random.Random(seed)
    full, tail = divmod(max(0, n_symbols), BLOCK_SYMBOLS)
    words = list(_coded_blocks(rng, sys.k, BLOCK_SYMBOLS, full))
    if tail:
        words.extend(_coded_blocks(rng, sys.k, tail, 1))
    return words


@dataclass(frozen=True)
class CircleMeasure:
    kind: str  # lebesgue | periodic_atomic
    orbit: tuple[Fraction, ...] = ()


def lebesgue() -> CircleMeasure:
    return CircleMeasure("lebesgue")


def periodic_atomic(sys: CircleSystem, point: Union[Fraction, str]) -> CircleMeasure:
    """Equal atoms on the (purely periodic) orbit of a rational p/q, gcd(q, k) = 1."""
    x0 = parse_ratio(point) % 1
    if gcd(x0.denominator, sys.k) != 1:
        raise ValueError(
            f"denominator {x0.denominator} shares a factor with k={sys.k}; orbit not periodic"
        )
    orbit = [x0]
    x = (sys.k * x0) % 1
    while x != x0:
        orbit.append(x)
        x = (sys.k * x) % 1
    return CircleMeasure("periodic_atomic", tuple(orbit))


def circle_entropy_report(
    sys: CircleSystem,
    mu: CircleMeasure,
    depth: int,
    n_symbols: int = 10**6,
    seeds: int = 1,
    base_seed: int = 0,
) -> EntropyEstimate:
    """Entropy through the generating partition.

    Lebesgue: empirical conditional block entropy over coded sample blocks,
    expected ln k. Periodic atoms: the itinerary is an exactly periodic word,
    so the rate is exactly zero.
    """
    if seeds < 1:
        raise ValueError(f"need at least 1 seed, got {seeds}")
    if mu.kind == "periodic_atomic":
        period = len(mu.orbit)
        word = symbolic_coding(sys, mu.orbit[0], period)
        coded = PeriodicOrbit(shift_space(cyclic(sys.k)), tuple(int(s) for s in word))
        return entropy_rate(coded, max(2, period + 1), tol=1e-12)
    words: list[np.ndarray] = []
    per_seed, extra = divmod(n_symbols, seeds)
    for s in range(seeds):
        words.extend(sample_lebesgue_coding(sys, per_seed + (s < extra), base_seed + s))
    return empirical_block_entropy(words, depth, alphabet_size=sys.k)
