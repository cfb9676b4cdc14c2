"""Circle endomorphisms x -> kx mod 1: the non-symbolic carrier.

Itineraries through the generating partition [i/k, (i+1)/k) are computed in
exact arithmetic; starting points are exact rationals only, so a float start
raises TypeError in `parse_ratio`. Lebesgue-typical sampling
draws a fresh high-precision random dyadic point per 40-symbol block rather
than shadowing one float orbit, which loses a bit of precision per step.

A block's coding stays exact on integers: for x = num / 2^P, each step
multiplies num by k, and the part above P bits is the symbol. The blocks of
a sample take c such steps together, on the 32-bit limbs of their points:
one multiply by k^c, the largest power below 2^32, whose part above P bits
holds the next c symbols as one base-k number. One call to the generator
draws every point (`_coded_blocks`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Union

import numpy as np

from .entropy import EntropyEstimate, empirical_block_entropy, entropy_rate
from .errors import BadK
from .exact import parse_ratio
from .groups import cyclic
from .record import Record
from .shifts import PeriodicOrbit, _check_length, shift_space

BLOCK_SYMBOLS = 40


class CircleSystem(Record):
    """x -> kx mod 1 with the generating partition into k equal intervals."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise BadK(f"the multiplier must be an integer >= 2, got {self.k!r}")


def times_k(k: int) -> CircleSystem:
    return CircleSystem(k)


def symbolic_coding(sys: CircleSystem, x0: Union[Fraction, int, str], n: int) -> np.ndarray:
    """Exact itinerary of the rational x0 through the generating partition, length n.

    x0 is a Fraction, an int or a string such as "1/3"; a float raises TypeError.
    """
    if n < 1:
        raise ValueError("itinerary length must be >= 1")
    k = sys.k
    out = np.empty(n, dtype=np.int64)
    x = parse_ratio(x0) % 1
    for i in range(n):
        x *= k
        s = int(x)
        out[i] = s
        x -= s
    return out


def _coded_blocks(rng: random.Random, k: int, length: int, count: int) -> np.ndarray:
    """Exact itineraries of `count` fresh random dyadic points, one row each.

    The point x = num / 2^precision, num = rng.getrandbits(precision), codes
    to the digits of the per-step loop: num *= k, the part above the precision
    is the digit, and the rest is the next num. c steps of that loop are one
    step num *= k^c, whose part above the precision is the next c digits as
    one base-k number, first digit most significant (radix conversion by a
    power of the radix; Knuth, TAOCP Vol. 2, 4.4). c is the largest count
    with k^c < 2^32. Every point runs that step at once, on its
    m = ceil(precision / 32) limbs, least significant first: m - 1 of 32 bits
    and a top one of the precision's last bits, whose carry out is the c
    digits, split by c - 1 divisions by k. A limb is below 2^32 and the carry
    into it below k^c, so limb * k^c + carry < 2^64 and the limbs are uint64
    for k < 2^32; past it they are Python ints, with c = 1.
    getrandbits(precision) joins m 32-bit outputs of the generator, the last
    shifted right to those bits, so one getrandbits(32 m count) holds every
    point's outputs, and it leaves the generator as `count` calls would.
    """
    bits_per_symbol = max(1, (k - 1).bit_length())
    precision = length * bits_per_symbol + 64
    m = -(-precision // 32)
    outputs = rng.getrandbits(32 * m * count).to_bytes(4 * m * count, "little")
    limbs = np.frombuffer(outputs, dtype="<u4").reshape(count, m).T
    limbs = limbs.astype(np.uint64 if k < 2**32 else object, order="C")
    widths = [32] * (m - 1) + [precision - 32 * (m - 1)]
    limbs[-1] >>= 32 - widths[-1]
    c = 1  # digits per pass: the largest c with k^c < 2^32, 1 on Python-int limbs
    while k ** (c + 1) < 2**32:
        c += 1
    digits = np.empty((count, length), dtype=np.min_scalar_type(-k))
    for start in range(0, length, c):
        end = min(start + c, length)
        carry = 0
        for limb, width in zip(limbs, widths):
            limb *= k ** (end - start)
            limb += carry
            carry = limb >> width
            limb &= (1 << width) - 1
        for j in range(end - 1, start, -1):  # the carry's base-k digits, last first
            q = carry // k
            digits[:, j] = carry - q * k
            carry = q
        digits[:, start] = carry
    return digits


def sample_lebesgue_coding(
    sys: CircleSystem, n_symbols: int, seed: int
) -> Union[np.ndarray, list[np.ndarray]]:
    """Blocks of coded symbols from independent Lebesgue-distributed points.

    A sequence of 1-D words either way: when every block is full, the
    (blocks, 40) digit array itself, one block a row; otherwise its rows and
    the shorter tail block.
    """
    blocks, *tail = _lebesgue_blocks(sys, n_symbols, seed)
    return [*blocks, *tail[0]] if tail else blocks


def _lebesgue_blocks(sys: CircleSystem, n_symbols: int, seed: int) -> list[np.ndarray]:
    """`sample_lebesgue_coding`'s words as 2-D arrays: the full blocks, then a (1, tail) one."""
    _check_length(n_symbols)
    rng = random.Random(seed)
    full, tail = divmod(n_symbols, BLOCK_SYMBOLS)
    arrays = [_coded_blocks(rng, sys.k, BLOCK_SYMBOLS, full)]
    if tail:
        arrays.append(_coded_blocks(rng, sys.k, tail, 1))
    return arrays


class CircleMeasure(Record):
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
    _check_length(n_symbols)  # before the split, which would name one seed's share
    per_seed, extra = divmod(n_symbols, seeds)
    arrays = [array for s in range(seeds)
              for array in _lebesgue_blocks(sys, per_seed + (s < extra), base_seed + s)]
    return empirical_block_entropy(arrays, depth, alphabet_size=sys.k)
