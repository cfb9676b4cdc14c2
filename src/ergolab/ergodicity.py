"""Ergodicity verdicts: exact for every kind, with Birkhoff evidence as a cross-check.

Every measure is the output of a finite stationary chain, and its
positive-mass states split into closed classes. Each class's output is
ergodic, as a factor of an irreducible stationary chain, so the measure is
ergodic exactly when every class emits the same measure, which Tzeng's basis
search decides. Time averages over sampled orbits, compared against exact
cylinder probabilities with an across-seed dispersion statistic, are a
calibrated heuristic, never a proof, and the report says so.

Disjointness of two factor systems is certified structurally (trivial
factor, or periodic against full-support mixing), never computed; the
`declared` escape hatch is flagged as unverified in the report. The
Theorem 4.1 check that combines these pieces is the `convolution_ergodicity`
scenario kind in `scenarios`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .errors import CertificateInvalid, DepthLimitExceeded, InsufficientSteps
from .record import Record
from .shifts import (
    Bernoulli,
    Mixture,
    PeriodicOrbit,
    ShiftMeasure,
    ShiftSystem,
    Word,
    _code_dtype,
)

MIN_BIRKHOFF_STEPS = 10_000
DISPERSION_THRESHOLD = 5e-3


class ErgodicityVerdict(Record):
    verdict: str  # ergodic | non_ergodic
    method: str  # exact_<kind>: bernoulli, markov, orbit, mixture, convolution, product, skew_joint
    witness: Optional[str] = None


def _reached(edges: np.ndarray, start: int) -> np.ndarray:
    """The states that a breadth-first search reaches from start in one step or more."""
    seen = frontier = edges[start]
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


def _disagreement(mu: ShiftMeasure, a: np.ndarray, b: np.ndarray) -> Optional[int]:
    """The length of a shortest word whose mass differs when mu's chain starts in states a
    or in states b, by init normalised on each; None if no word's does.

    Tzeng's basis search (SIAM J. Comput. 21(2), 1992), breadth first over words, keeps a
    word's forward difference vector when it leaves the span of those kept, reduced to 0
    at their pivot states: at most one per state, and per symbol, as a word's vector lives
    on the states that emit its last symbol. Every word's vector lies in the span of the
    kept ones no longer than it, so the first kept one of nonzero mass ends such a word.
    Vectors are exact integer multiples of the rational ones, divided by their gcd.
    """
    rows, _, emit = mu._engine.arrays
    rows = rows.astype(object, copy=False)  # the vectors outgrow int64: Python ints
    init = rows[-1]  # the start state's row
    diff = np.zeros(len(init), dtype=object)
    diff[a] = init[a] * init[b].sum()  # init on a over its mass, minus init on b over its
    diff[b] = -init[b] * init[a].sum()
    # per symbol (a set, as np.unique would import numpy.ma): its states, their rows, a basis
    blocks = [(at, rows[at], {}) for at in (np.flatnonzero(emit == s) for s in set(emit.tolist()))]
    level, depth = [diff], 0
    while level:
        depth, ahead = depth + 1, []
        for u in level:
            for states, out, basis in blocks:
                v = u[states]
                for pivot, kept in basis.items():
                    if v[pivot]:
                        v = v * kept[pivot] - kept * v[pivot]
                nonzero = np.flatnonzero(v)
                if len(nonzero):
                    if v.sum():
                        return depth
                    basis[nonzero[0]] = v = v // np.gcd.reduce(v)
                    ahead.append(v @ out)
        level = ahead
    return None


def same_measure(mu: ShiftMeasure, nu: ShiftMeasure) -> bool:
    """Whether two measures on one system give every cylinder the same mass.

    They are the two blocks of the chain of their even mixture.
    """
    both = Mixture(mu.system, ((Fraction(1, 2), mu), (Fraction(1, 2), nu)))
    k = len(mu._chain[0])
    return _disagreement(both, np.arange(k), np.arange(k, len(both._chain[0]))) is None


def is_ergodic_exact(mu: ShiftMeasure) -> ErgodicityVerdict:
    """Exact verdict for every kind: its chain's closed classes must all emit one measure.

    Searches forward and backward from each positive-mass state not yet in a class find
    its class, unless it reaches a state that does not reach it back (only an unvalidated
    Markov init can), and then the chain is not irreducible on its support.
    """
    method = "exact_" + mu.kind.removeprefix("periodic_")
    _, steps, _ = mu._engine.arrays
    live = np.flatnonzero(steps[-1])  # the start state's row: init
    edges = steps[np.ix_(live, live)]
    classes, left = [], np.ones(len(live), dtype=bool)
    while left.any():
        start = np.flatnonzero(left)[0]
        ahead = _reached(edges, start)
        if not ahead[start] or (ahead != _reached(edges.T, start)).any():
            return ErgodicityVerdict("non_ergodic", method, "transition support is not irreducible")
        classes.append(live[ahead])
        left &= ~ahead
    for i, states in enumerate(classes[1:], start=1):
        depth = _disagreement(mu, classes[0], states)
        if depth is not None:
            return ErgodicityVerdict(
                "non_ergodic", method, f"closed classes 0 and {i} disagree at depth {depth}"
            )
    return ErgodicityVerdict("ergodic", method)


class BirkhoffRow(Record):
    word: Word
    exact: float
    mean: float
    bound: float  # 3 sigma binomial at the step count
    dispersion: float  # across-seed standard deviation
    mean_ok: bool  # |mean - exact| <= bound, up to 1e-12
    dispersion_ok: bool  # dispersion < the report's threshold

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.dispersion_ok


class BirkhoffReport(Record):
    rows: tuple[BirkhoffRow, ...]
    n_steps: int
    n_seeds: int
    dispersion_threshold: float
    consistent: bool
    note: str = "time-average evidence; heuristic, not a proof"


def default_observables(system: ShiftSystem, seed: int = 0) -> list[Word]:
    """All cylinders of length <= 2 plus 3 seeded random length-4 cylinders."""
    n = system.alphabet.order
    obs: list[Word] = [(s,) for s in range(n)]
    obs += [(a, b) for a in range(n) for b in range(n)]
    rng = np.random.default_rng(seed)
    for _ in range(3):
        obs.append(tuple(int(v) for v in rng.integers(0, n, size=4)))
    return obs


def _window_counts(word: np.ndarray, observables: list[Word], n_steps: int, base: int) -> list[int]:
    """How many of a word's first n_steps windows spell each observable.

    One base-|G| window code is rolled in place from length 1 to the longest
    observable, and each observable is counted by equality at its own length.
    Codes and symbols share the narrowest dtype that holds |G|^max_len codes
    (`shifts._code_dtype`), so every pass is a same-dtype pass; a sample comes
    in `_code_dtype(|G|)`, and where that already holds the codes it is not copied.
    """
    max_len = max(map(len, observables))
    word = word.astype(_code_dtype(base**max_len), copy=False)
    code = word[:n_steps].copy()
    counts = [n_steps] * len(observables)  # the empty word fits every window
    for level in range(1, max_len + 1):
        for i, obs in enumerate(observables):
            if len(obs) == level:
                counts[i] = np.count_nonzero(code == reduce(lambda c, s: c * base + s, obs))
        if level < max_len:
            code *= base
            code += word[level : level + n_steps]
    return counts


def birkhoff_report(
    mu: ShiftMeasure,
    observables: Sequence[Word],
    n_steps: int,
    n_seeds: int,
    base_seed: int = 0,
    dispersion_threshold: float = DISPERSION_THRESHOLD,
) -> BirkhoffReport:
    """Per-observable time averages across seeds versus exact cylinder masses."""
    if n_steps < MIN_BIRKHOFF_STEPS:
        raise InsufficientSteps(f"need at least {MIN_BIRKHOFF_STEPS} steps")
    if n_seeds < 1:
        raise ValueError(f"need at least 1 seed, got {n_seeds}")
    observables = [tuple(w) for w in observables]
    # before sampling: a window code would alias a symbol outside the alphabet
    exact = [float(mu.cylinder_prob(obs)) for obs in observables]
    n = mu.system.alphabet.order
    max_len = max(len(w) for w in observables)
    if n**max_len > 2**63:
        raise DepthLimitExceeded(f"{n}^{max_len} window codes exceed the int64 limit 2^63")
    means = np.zeros((len(observables), n_seeds))
    word_length = n_steps + max_len - 1
    for s in range(n_seeds):  # a word lives only in the helper's call, so one at a time
        means[:, s] = _window_counts(mu.sample(word_length, base_seed + s), observables, n_steps, n)
    means /= n_steps  # exactly hits.mean() for integer counts
    rows = []
    for i, obs in enumerate(observables):
        p = exact[i]
        grand = float(means[i].mean())
        disp = float(means[i].std())
        bound = 3.0 * (p * (1.0 - p) / n_steps) ** 0.5
        rows.append(BirkhoffRow(obs, p, grand, bound, disp,
                                abs(grand - p) <= bound + 1e-12, disp < dispersion_threshold))
    return BirkhoffReport(
        tuple(rows), n_steps, n_seeds, dispersion_threshold, all(r.passed for r in rows)
    )


class DisjointnessCertificate(Record):
    kind: str  # point_mass | periodic_vs_mixing | declared
    justification: str = ""


def _is_fixed_point_mass(mu: ShiftMeasure) -> bool:
    return isinstance(mu, PeriodicOrbit) and mu.period == 1


def _is_full_support_bernoulli(mu: ShiftMeasure) -> bool:
    return isinstance(mu, Bernoulli) and all(mu.marginal.nums)


def validate_certificate(
    cert: DisjointnessCertificate, mu: ShiftMeasure, nu: ShiftMeasure
) -> bool:
    """Structural check; returns False only for the unverified `declared` kind."""
    if cert.kind == "point_mass":
        if not (_is_fixed_point_mass(mu) or _is_fixed_point_mass(nu)):
            raise CertificateInvalid("point_mass needs a factor on a single fixed point")
        return True
    if cert.kind == "periodic_vs_mixing":
        pairs = ((mu, nu), (nu, mu))
        if not any(
            isinstance(a, PeriodicOrbit) and _is_full_support_bernoulli(b)
            for a, b in pairs
        ):
            raise CertificateInvalid(
                "periodic_vs_mixing needs a periodic orbit against a full-support bernoulli"
            )
        return True
    if cert.kind == "declared":
        return False
    raise CertificateInvalid(f"unknown certificate kind {cert.kind!r}")
