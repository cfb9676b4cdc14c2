"""Exact-rational plumbing: parsing, weight checks, entropy sums, stationary solves.

Probabilities stay exact rationals end to end. `exact_vector` admits a weight
vector of ints or Fractions, nonnegative and summing to exactly 1, and returns
the integer numerators over one common denominator that `groups`, `shifts` and
`skew` compute in. Logarithms are the only place values cross into floating
point, and float sums go through `math.fsum` so they do not depend on order.
Because `math.fsum` is correctly rounded, a block table's entropy takes one
logarithm per distinct mass and sums those terms repeated by multiplicity:
the same correctly rounded value as one term per word.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def parse_ratio(value) -> Fraction:
    """Parse an exact rational from "3/4", "1", an int, or a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational literal: {value!r}")


def exact_vector(weights: Sequence, what: str = "weights") -> tuple[tuple[int, ...], int]:
    """An exact probability vector's numerators over the lcm of its denominators, and the lcm."""
    for w in weights:
        if not isinstance(w, (int, Fraction)):
            raise TypeError(f"weight is not an int or a Fraction: {w!r}")
    den = math.lcm(*(w.denominator for w in weights))
    nums = tuple(den // w.denominator * w.numerator for w in weights)
    if any(n < 0 for n in nums):
        raise ValueError(f"{what} must be nonnegative")
    if sum(nums) != den:
        raise ValueError(f"{what} must sum to exactly 1")
    return nums, den


def neg_xlogx(x: float) -> float:
    """-x*ln(x) with the 0*ln(0) = 0 convention."""
    return 0.0 if x == 0.0 else -x * math.log(x)


def entropy_nats(weights: Iterable[Fraction]) -> float:
    """Shannon entropy in nats of an exact probability vector."""
    return math.fsum(neg_xlogx(float(w)) for w in weights)


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve an (possibly overdetermined but consistent) linear system exactly.

    Gaussian elimination over Fraction. Raises ValueError if the system is
    rank-deficient in the unknowns or inconsistent.
    """
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    if len(pivots) < n_cols:
        raise ValueError("linear system is rank-deficient")
    for i in range(r, n_rows):
        if m[i][n_cols] != 0:
            raise ValueError("linear system is inconsistent")
    x = [Fraction(0)] * n_cols
    for row_i, c in enumerate(pivots):
        x[c] = m[row_i][n_cols]
    return x


def stationary_distribution(transition: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Unique stationary row vector of an exact row-stochastic matrix.

    Solves pi P = pi together with sum(pi) = 1. Raises ValueError when the
    stationary distribution is not unique (reducible chain).
    """
    n = len(transition)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for j in range(n):
        # sum_i pi_i (P_ij - delta_ij) = 0
        rows.append([transition[i][j] - (1 if i == j else 0) for i in range(n)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * n)
    rhs.append(Fraction(1))
    pi = solve_exact(rows, rhs)
    if any(p < 0 for p in pi):
        raise ValueError("no nonnegative stationary distribution")
    return tuple(pi)
