"""Group shift spaces and exactly evaluable invariant measures on them.

The carrier is G^N (one-sided; the shift is a surjective |G|-to-1
homomorphism) or G^Z (two-sided; the shift is bijective) over a finite
alphabet group G. Measures are represented by their exact finite-dimensional
marginals: every kind can produce the rational probability of any cylinder,
and the full distribution of length-L blocks up to the enumeration guard.

Fractions are the API boundary: `cylinder` and `block_distribution` return
`fractions.Fraction`, and verifier witnesses print them. Weights pass
`exact.exact_vector`, so a float raises TypeError. Inside, a length-L block
distribution is a `BlockTable`: integer numerators over one common
denominator, int64 while the denominator is below 2^63 and Python ints past
it (`_num_dtype`). Every exact verifier, here and in `skew` and
`ergodicity`, compares tables, taking marginals by dropping the first or the
last symbol of a longer table.

All six kinds are functions of finite stationary Markov chains (Blackwell
1957), and `ShiftMeasure` gives every cylinder and table by forward products
over the chain's integers. A Bernoulli chain has every row its marginal, a
Markov measure is its own chain, and a periodic orbit is the cycle on its
phases, phase i emitting word[i]. A mixture is the block-diagonal union of
its components' chains. A convolution or a product is the product chain of
its factors, state (a, b) emitting g.op(a's symbol, b's symbol) or the pair
symbol. Only sampling stays per kind.

Stationarity makes cylinder probabilities independent of window position, so
words are plain tuples of element indices.
"""

from __future__ import annotations

import logging
import math
import weakref
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DepthLimitExceeded, SystemMismatch, UnsupportedKind
from .exact import exact_vector, parse_ratio, stationary_distribution
from .groups import DenseMeasure, FiniteGroup, convolve as convolve_dense, haar
from .record import Record, replace

DEPTH_GUARD_STATES = 2**24
# above every level 2^24 block states allow on two or more symbols, so above every type count
# (on one symbol a level holds one word, so one type)
TYPE_RADIX = DEPTH_GUARD_STATES.bit_length()
BERNOULLI_COUNT_MAX_SYMBOLS = 96  # above it a binary search beats one pass per bound
CHUNK_SYMBOLS = 1 << 16  # symbols per pass of a sampler's or the estimator's wide temporaries

Word = tuple[int, ...]

log = logging.getLogger(__name__)
_LEVELS: "weakref.WeakValueDictionary[int, _Levels]" = weakref.WeakValueDictionary()

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"


class ShiftSystem(Record):
    """The shift (Tx)_i = x_{i+1} on G^N or G^Z, a surjective homomorphism of the group."""

    alphabet: FiniteGroup
    sidedness: str = ONE_SIDED

    def __post_init__(self):
        if self.sidedness not in (ONE_SIDED, TWO_SIDED):
            raise ValueError(f"bad sidedness: {self.sidedness!r}")

    @property
    def one_sided(self) -> bool:
        return self.sidedness == ONE_SIDED

    def two_sided_version(self) -> "ShiftSystem":
        return ShiftSystem(self.alphabet, TWO_SIDED)


def shift_space(alphabet: FiniteGroup, sidedness: str = ONE_SIDED) -> ShiftSystem:
    return ShiftSystem(alphabet, sidedness)


class BlockTable(Record):
    """A length-L block distribution in integer form: P([word]) = num / den.

    `codes` are the support words as base-|G| integers, first symbol most
    significant, strictly ascending; `nums` are their numerators, positive in
    a measure's own tables; `den` is shared by every entry. A numerator is at
    most `den`, so `nums` is int64 while `den < 2^63` and Python ints in an
    object array past it (`_num_dtype`); an arithmetic step that can leave
    [0, den] picks its dtype from the bound it can reach.
    """

    base: int
    length: int
    codes: np.ndarray
    nums: np.ndarray
    den: int

    def __post_init__(self):
        # tables are memoized and shared by every caller
        self.codes.flags.writeable = False
        self.nums.flags.writeable = False

    def __len__(self) -> int:
        return len(self.codes)

    def digits(self) -> np.ndarray:
        """The support words, one row of symbols each."""
        return self.codes[:, None] // _place_values(self.base, self.length) % self.base

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Numerators of the words with the given codes; 0 off the support."""
        at = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        return np.where(self.codes[at] == codes, self.nums[at], 0)

    def drop_first(self) -> "BlockTable":
        """The length-(L-1) marginal with the first symbol summed out."""
        return _merged(self.base, self.length - 1, self.codes % self.base ** (self.length - 1),
                       self.nums, self.den)

    def drop_last(self) -> "BlockTable":
        """The length-(L-1) marginal with the last symbol summed out."""
        return _merged(self.base, self.length - 1, self.codes // self.base, self.nums, self.den)

    def __eq__(self, other: "BlockTable") -> bool:
        """Exact equality: the same mass on every word."""
        return _first_difference(self, other) is None

    def to_dict(self) -> dict[Word, Fraction]:
        den = self.den
        return {
            tuple(word): Fraction(num, den)
            for word, num in zip(self.digits().tolist(), self.nums.tolist())
        }


def _num_dtype(bound: int) -> np.dtype:
    """The numerator dtype for integers in [0, bound]: int64 below 2^63, else Python ints."""
    return np.dtype(np.int64) if bound < 2**63 else np.dtype(object)


def _place_values(base: int, length: int) -> np.ndarray:
    return base ** np.arange(length - 1, -1, -1, dtype=np.int64)


def _sum_runs(keys: np.ndarray, nums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of sorted keys, and the sum of the numerators of each."""
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)])
    return keys[starts], np.add.reduceat(nums, starts)


def _merged(base: int, length: int, codes: np.ndarray, nums: np.ndarray, den: int) -> BlockTable:
    """A table from unsorted codes; the numerators of repeated codes are summed."""
    order = np.argsort(codes, kind="stable")
    return BlockTable(base, length, *_sum_runs(codes[order], nums[order]), den)


def _first_difference(a: BlockTable, b: BlockTable) -> Optional[Word]:
    """The first word, in code order, where two same-length tables differ; None if equal."""
    if a is b:  # one table, as equal chains share theirs
        return None
    codes = np.concatenate((a.codes, b.codes))  # np.union1d would import numpy.ma
    codes.sort()
    codes = codes[np.diff(codes, prepend=-1) != 0]
    # the masses over the lcm of the denominators, where each is at most that lcm
    den = math.lcm(a.den, b.den)
    wide = _num_dtype(den)
    differs = np.flatnonzero(a.lookup(codes).astype(wide, copy=False) * (den // a.den)
                             != b.lookup(codes).astype(wide, copy=False) * (den // b.den))
    if len(differs) == 0:
        return None
    return tuple((codes[differs[0]] // _place_values(a.base, a.length) % a.base).tolist())


class ShiftMeasure:
    """A shift-invariant measure: a function of a finite stationary Markov chain.

    Each kind holds its chain in integers as `_chain = (init, d0, rows, dt,
    emit)`: the chain starts in state s with probability init[s] / d0, steps
    from s to t with probability rows[s][t] / dt, and emits the symbol emit[s]
    in state s. Cylinders and tables come from the chain alone, through one
    `_Levels` per alphabet order and chain that every live measure with equal
    ones shares (a natural extension and its measure), each under its own guard.
    """

    system: ShiftSystem
    kind: str = "abstract"

    def cylinder(self, word: Sequence[int]) -> Fraction:
        """Exact probability of [word] (position-free): a forward product over its states."""
        if not word:
            return Fraction(1)
        init, d0, rows, dt, emit = self._chain
        nums = {s: p for s, p in enumerate(init) if emit[s] == word[0]}
        for symbol in word[1:]:
            nums = {t: sum(num * rows[s][t] for s, num in nums.items())
                    for t, e in enumerate(emit) if e == symbol}
        return Fraction(sum(nums.values()), d0 * dt ** (len(word) - 1))

    def sample(self, n: int, seed) -> np.ndarray:
        """A length-n word per the marginals; deterministic in seed, an int or a SeedSequence.

        Every kind returns its symbols in `_code_dtype(|G|)`, uint8 up to 256
        symbols. Arithmetic in that dtype wraps silently, so a caller that
        computes on symbols (a pair or window code) widens them first.
        """
        raise NotImplementedError

    def _extended(self) -> "ShiftMeasure":
        """The same measure on the two-sided system; composite kinds extend their parts."""
        return replace(self, system=self.system.two_sided_version())

    def block_distribution(self, length: int) -> dict[Word, Fraction]:
        """Exact distribution of length-L blocks; guarded at 2^24 states."""
        return self.block_table(length).to_dict()

    def block_table(self, length: int) -> BlockTable:
        """The length-L block distribution in integer form, memoized; guarded at 2^24 states."""
        if length < 0:
            raise ValueError(f"block length must be >= 0, got {length}")
        self._guard(length)
        return self._engine.table(length)

    def _guard(self, length: int) -> None:
        """Raise DepthLimitExceeded past |G|^L = 2^24 block states; a kind may guard otherwise."""
        n = self.system.alphabet.order
        if n**length > DEPTH_GUARD_STATES:
            raise DepthLimitExceeded(f"{n}^{length} block states exceed 2^24")

    @cached_property
    def _engine(self) -> "_Levels":
        """The levels of this chain on this alphabet order, which table codes and the default
        guard read; keyed by their hash, taken once, as a tuple hashes anew at every call."""
        key = (self.system.alphabet.order, self._chain)
        h = hash(key)
        engine = _LEVELS.get(h)
        if engine is None or engine.key != key:  # an unequal key of equal hash takes the slot
            engine = _LEVELS[h] = _Levels(key, self.kind)
        return engine

    def cylinder_prob(self, word: Sequence[int]) -> Fraction:
        for s in word:
            if not 0 <= s < self.system.alphabet.order:
                raise ValueError(f"symbol {s} outside the alphabet")
        return self.cylinder(tuple(word))


class _Levels:
    """The exact levels of one chain on one alphabet order, built once for every live measure
    that has both (`ShiftMeasure._engine`, through `_LEVELS`, whose entry dies with the last of
    them): tables, state paths, forward-vector classes and mass types by length, and the arrays
    they step by. Nothing here guards a depth: a measure calls its own `_guard(L)` before it
    reads a level, so a stricter guard refuses a level that a looser one built. DEBUG lines
    name the first measure's kind.
    """

    def __init__(self, key: tuple, kind: str):
        self.key, self.kind = key, kind
        self.order, self.chain = key
        self.tables: dict[int, BlockTable] = {}
        # the empty path, in a start state whose row is init
        self.path_memo = {0: (np.zeros(1, np.int64), np.array([len(self.chain[0])]),
                              np.ones(1, np.int64))}
        # the empty word, in a start state of symbol |G|, row init
        self.class_memo = {0: (np.ones((1, 1), np.int64), np.ones(1, np.int64),
                               [0] * (self.order + 1) + [1])}

    def table(self, length: int) -> BlockTable:
        """The length-L table, memoized; for L >= 1 summed over the paths of each word."""
        table = self.tables.get(length)
        if table is None:
            if length == 0:
                table = BlockTable(self.order, 0, np.zeros(1, np.int64), np.ones(1, np.int64), 1)
            else:
                codes, last, nums = self.paths(length)
                if last is not None:  # the paths are in (word, last state) order
                    codes, nums = _sum_runs(codes, nums)
                table = BlockTable(self.order, length, codes, nums, self.den(length))
            self.tables[length] = table
        return table

    def paths(self, length: int) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """The length-L state paths of positive mass, memoized: (codes, last states, numerators).

        A level steps each path along its last state's nonzero entries (`steps`),
        in ascending state order. Under the identity emission the paths are their
        words, in code order, and `last` is None. Otherwise the paths that share
        their word and last state merge, in (word, last state) order, so a level
        holds at most |G|^L * |states| of them. Tables are built from them; H_L reads
        `types` or `classes` instead. A level's numerators are at most its
        denominator and take its `_num_dtype`: past 2^63 they are Python ints,
        multiplied by the entries as Python ints.
        """
        paths = self.path_memo.get(length)
        if paths is None:
            n = self.order
            codes, prev, nums = self.paths(length - 1)
            _, succ, entries = self.steps
            deg, at = self.children(codes % n if prev is None else prev)
            states = succ[at]
            # `at` is rebound to its gather, so each wide temporary is freed before the next;
            # object times int64 is Python-int arithmetic
            at = (entries.astype(object) if self.den(length) >= 2**63 else entries)[at]
            at *= np.repeat(nums, deg)
            nums = at
            if self.chain[4] == tuple(range(n)):
                codes = np.repeat(codes * n, deg)
                codes += states
                paths = (codes, None, nums)
            else:  # the key (word, last state) of a child is its parent's word's plus its state's
                size = len(self.chain[4])
                key = (np.array(self.chain[4]) * size + np.arange(size))[states]
                key += np.repeat(codes * (n * size), deg)
                order = np.argsort(key, kind="stable")
                key, nums = _sum_runs(key[order], nums[order])
                paths = (key // size, key % size, nums)
            self.path_memo[length] = paths
        return paths

    def children(self, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """How many steps leave each last state, and each step's index into `steps`."""
        start = self.steps[0]
        deg = start[last + 1] - start[last]
        at = np.repeat(start[last] - (deg.cumsum() - deg), deg)  # each first step's place
        at += np.arange(len(at))
        return deg, at

    def classes(self, length: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Level L, memoized: (vecs, counts, bounds), one forward vector per class of the words
        that share it, each class's word count, and where each last symbol's run starts.

        The words of one forward vector (the mass of their paths that end in each state) share
        their mass and their children (Blackwell 1957). Rows bounds[b]:bounds[b + 1] end in b
        and hold their vectors on S_b, the states that emit b, padded with zeros; their children
        by c are the rows @ R[S_b, S_c]. Zero rows drop; the rest merge by one sort on (c, a hash
        of the row), where a collision can only split a class. An entry is at most `den(L)`, as
        is every partial sum, so a level takes its `_num_dtype`: int64 below 2^63 and Python
        ints past it, where the hash is taken exactly and masked back to int64."""
        level = self.class_memo.get(length)
        if level is None:
            prev, counts, bounds = self.classes(length - 1)
            blocks, weights = self.blocks
            n, width = len(blocks) - 1, len(weights)
            dtype = _num_dtype(self.den(length))
            prev, vecs = prev.astype(dtype, copy=False), np.empty((len(prev), n, width), dtype)
            for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if lo < hi:  # the run of b, on its |S_b| columns
                    vecs[lo:hi] = (prev[lo:hi, : len(blocks[b])] @ blocks[b]).reshape(-1, n, width)
            shift = 63 - n.bit_length()  # the symbol above the hash's low bits
            hashes = (vecs @ weights & (1 << shift) - 1).astype(np.int64, copy=False)
            keys = (hashes | np.arange(n) << shift).ravel()
            vecs = vecs.reshape(-1, width)
            live = np.flatnonzero(vecs.any(axis=1))
            order = live[np.argsort(keys[live])]
            keys, vecs, counts = keys[order], vecs[order], np.repeat(counts, n)[order]
            new = (keys[1:] != keys[:-1]) | (vecs[1:] != vecs[:-1]).any(axis=1)
            starts = np.flatnonzero(np.concatenate(([True], new)))
            bounds = np.searchsorted(keys[starts] >> shift, np.arange(n + 2)).tolist()
            level = vecs[starts], np.add.reduceat(counts, starts), bounds
            if log.isEnabledFor(logging.DEBUG):
                log.debug("%s classes at L=%d: %d for %d words", self.kind, length, len(starts),
                          int(counts.sum()))
            self.class_memo[length] = level
        return level

    @cached_property
    def blocks(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Per symbol b (|G|: the start state's), R[S_b, S_c] for every c, side by side and each
        padded to the widest S_c, in the dense rows' dtype; and hash multipliers, powers of
        2^64 / golden ratio in int64."""
        emit = np.array(self.chain[4] + (self.order,))
        states = [np.flatnonzero(emit == b) for b in range(emit[-1] + 1)]
        zero = np.full(max(map(len, states)), len(emit) - 1)  # past the last state: zeros
        cols = np.concatenate([np.append(s, zero[len(s) :]) for s in states[:-1]])
        rows = np.hstack((_dense_rows(self.chain), np.zeros((len(emit), 1), np.int64)))
        weights = (-0x61C8864680B583EB) ** np.arange(1, len(zero) + 1, dtype=np.int64)
        return [rows[np.ix_(s, cols)] for s in states], weights

    def types(self, length: int) -> tuple:
        """Level L, memoized: (keys, nums, dens, types, last, counts), its types' keys and
        masses, and its (type, last state) classes, ascending, with their word counts.

        A path's mass is the product of its entries, init's included, so it depends only on
        its type: how often it steps by each class of equal entries (the method of types;
        Csiszar and Korner, 1981). One sort of the children's class keys, type key * |states|
        + last, gives the classes and the types as its runs. A mass is the fraction nums /
        dens, its parent's times its step's entry in lowest terms (`type_steps`), reduced
        where int64 dens pass 2^53 if an entry's numerator and another's denominator share a
        prime, and in Python ints from where it would pass 2^63. Where keys would, they are
        None and a type is its mass: numerators over dens = `den(L)`, held as `paths` holds
        them, in the `_num_dtype` of the class keys mass * |states| + last.
        """
        level = self.type_memo.get(length)
        if level is None:
            keys, nums, dens, types, last, counts = self.types(length - 1)
            deg, at = self.children(last)
            size = len(self.chain[0])
            parent = np.repeat(types, deg)
            if keys is None:  # by mass, in room for mass * |states| + last
                wide = _num_dtype((self.den(length) + 1) * size)
                key = nums.astype(wide, copy=False)[parent] * self.steps[2][at] * size
                key += self.steps[1][at]
            else:  # by type
                key = keys[parent] * size + self.type_steps[0][at]
            order = np.argsort(key)
            key = key[order]
            starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            counts = np.add.reduceat(np.repeat(counts, deg)[order], starts)
            key, last = key[starts] // size, (key[starts] % size).astype(np.int64)
            first = np.concatenate(([True], key[1:] != key[:-1]))  # a type's first class
            child = order[starts[first]]  # a child of each type
            if keys is None:
                nums, dens = key[first], self.den(length)
            else:
                p, step = parent[child], at[child]
                _, v, d, top, coprime = self.type_steps
                keys, nums, dens = key[first], nums[p], dens[p]
                if dens.dtype != object and (dens <= top[step]).all():  # num <= den, v <= d
                    nums, dens = nums * v[step], dens * d[step]
                    wide = () if coprime else np.flatnonzero(dens >= 2**53)
                    if len(wide):  # some may cancel
                        gcd = np.gcd(nums[wide], dens[wide])
                        nums[wide], dens[wide] = nums[wide] // gcd, dens[wide] // gcd
                else:  # Python ints from this level on
                    nums, dens = nums.astype(object) * v[step], dens.astype(object) * d[step]
            level = self.type_memo[length] = (keys, nums, dens, first.cumsum() - 1, last, counts)
            if log.isEnabledFor(logging.DEBUG):
                log.debug("%s types at L=%d: %d types in %d classes for %d words", self.kind,
                          length, len(nums), len(counts), int(counts.sum()))
        return level

    @cached_property
    def type_memo(self) -> dict:
        # the empty word, of the empty type and mass 1, in the start state whose row is init
        zero, one = np.zeros(1, np.int64), np.ones(1, self.steps[2].dtype)
        level = (None, one, 1) if self.type_steps[0] is None else (zero, one, one)
        return {0: (*level, zero, np.array([len(self.chain[0])]), np.ones(1, np.int64))}

    @cached_property
    def type_steps(self) -> tuple:
        """Per step of `steps`: its addition to a class key, R^(entry class) * |states| + succ
        (None where R^E * |states| for E classes passes 2^63); its entry over dt (init's over
        d0) in lowest terms, reduced once per distinct entry; the largest den that this
        denominator multiplies in int64; and whether no entry's numerator over dt or over d0
        shares a prime with any such denominator, so that every product of the steps' fractions
        is in lowest terms."""
        start, succ, v = self.steps
        entries, entry = np.unique(v, return_inverse=True)
        over = np.array([self.chain[3], self.chain[1]], v.dtype)  # the rows' den, init's
        gcd = np.gcd(entries[:, None], over)
        # each distinct entry over each denominator in lowest terms, a step's at 2 * its entry
        # class, plus 1 on the init row
        nums, dens = (entries[:, None] // gcd).ravel(), (over // gcd).ravel()
        at = entry * 2
        at[start[-2]:] += 1
        coprime = math.gcd(math.prod(set(nums.tolist())), math.prod(set(dens.tolist()))) == 1
        size = len(self.chain[0])
        return (TYPE_RADIX ** entry * size + succ if TYPE_RADIX ** len(entries) * size < 2**63
                else None, nums[at], dens[at], ((2**63 - 1) // dens)[at], coprime)

    def den(self, length: int) -> int:
        """The common denominator d0 * dt^(L-1) of the length-L paths, L >= 1."""
        return self.chain[1] * self.chain[3] ** (length - 1)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The dense rows (`_dense_rows`), their nonzero mask, and emit, for `ergodicity`."""
        rows = _dense_rows(self.chain)
        return rows, rows != 0, np.array(self.chain[4], dtype=np.int64)

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows compressed (Saad 2003, section 3.4), not kept dense: (start, succ, entries).

        Row s steps to succ[start[s]:start[s + 1]], ascending, in `_code_dtype`, by the
        nonzero entries at the same places, in the dense rows' dtype (`arrays`' once read).
        """
        arrays = vars(self).get("arrays")
        rows = _dense_rows(self.chain) if arrays is None else arrays[0]
        state, succ = np.nonzero(rows)  # row-major, so each row's steps are one ascending run
        return (state.searchsorted(np.arange(len(rows) + 1)),
                succ.astype(_code_dtype(rows.shape[1])), rows[state, succ])


def _dense_rows(chain: tuple) -> np.ndarray:
    """A chain's rows with init as a last (start) row, in `_num_dtype(max(d0, dt))`.

    Init's entries are at most d0 and the rows' at most dt; a dt past 2^63 makes
    every level's numerators Python ints, the first one's too.
    """
    init, d0, rows, dt, _ = chain
    return np.array(rows + (init,), dtype=_num_dtype(max(d0, dt)))


class Bernoulli(ShiftMeasure, Record):
    """Product measure with a fixed exact marginal per coordinate."""

    system: ShiftSystem
    marginal: DenseMeasure
    kind = "bernoulli"
    cylinder = ShiftMeasure.cylinder  # in vars(cls), where perfbench's tracer wraps it
    block_distribution = ShiftMeasure.block_distribution  # likewise in vars(cls)

    def __post_init__(self):
        if self.marginal.group != self.system.alphabet:
            raise SystemMismatch("marginal must live on the alphabet group")
        # one state per symbol, every row the marginal
        nums, den = self.marginal.nums, self.marginal.den
        states = tuple(range(len(nums)))
        object.__setattr__(self, "_chain", (nums, den, (nums,) * len(nums), den, states))

    def sample(self, n, seed):
        """Generator.choice(|G|, size=n, p=marginal), symbol for symbol.

        That is searchsorted(cdf, rng.random(n), side="right"). The uniforms are
        drawn CHUNK_SYMBOLS at a time, the same stream as one rng.random(n), and
        each chunk is coded into its slice of the output; for few symbols as the
        count of bounds at or below each draw, which is cheaper than the search.
        """
        _check_length(n)
        rng = np.random.default_rng(seed)
        den = self.marginal.den  # n / den is correctly rounded, as float(Fraction) is
        probs = np.array([n / den for n in self.marginal.nums])
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        out = np.zeros(n, dtype=_code_dtype(len(cdf)))
        for start in range(0, n, CHUNK_SYMBOLS):
            u = rng.random(min(CHUNK_SYMBOLS, n - start))
            _cells(cdf[:-1], u, out[start : start + len(u)])  # every draw is below 1.0
        return out


def shift_haar(system: ShiftSystem) -> Bernoulli:
    """Haar measure on the shift group: the uniform product measure."""
    return Bernoulli(system, haar(system.alphabet))


def _code_dtype(n_codes: int) -> np.dtype:
    """The narrowest of uint8, uint16 and uint32 that holds codes 0..n_codes-1, else int64.

    Never uint64: uint64 with int64 promotes to float64, which is not exact.
    """
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n_codes <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _check_length(n: int) -> None:
    """A leaf sampler's length check: composite kinds pass n down to their leaves."""
    if n < 0:
        raise ValueError(f"sample length must be >= 0, got n={n}")


def _cells(bounds: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """searchsorted(bounds, u, side="right") written into `out`, which is zero on entry."""
    if len(bounds) >= BERNOULLI_COUNT_MAX_SYMBOLS:
        out[:] = bounds.searchsorted(u, side="right")
    else:  # for few cells, the count of bounds at or below each draw is cheaper
        for bound in bounds:
            out += u >= bound
    return out


def _cell_table(cum: np.ndarray, draws: int) -> Optional[tuple]:
    """A Markov sample's cells, built once: (bounds, nxt, agree), or None where they cost more.

    The rows' finite bounds cut [0, 1) into cells; nxt[state, cell] is a row's index on a
    cell, and agree flags the cells that send every state to one successor. Their length is
    the share a round of `_resolve_by_cells` resolves; the passes save more than they cost
    when it is at least one half and the table fits in `draws` float64 draws (a chunk's).
    """
    n_sym = len(cum)
    # every state steps to j exactly on [max_s cum[s, j - 1], min_s cum[s, j])
    lo = np.concatenate([[0.0], cum[:, :-1].max(axis=0)])
    if (np.minimum(cum.min(axis=0), 1.0) - lo).clip(0.0).sum() < 0.5:
        return None
    bounds = np.sort(cum[:, :-1], axis=None)  # np.unique would import numpy.ma
    bounds = bounds[np.diff(bounds, prepend=-np.inf) != 0]
    # each row's index is constant on a cell [bounds[c - 1], bounds[c]), so the
    # cell's lower end (-inf for the first cell) stands for all of it
    reps = np.concatenate([[-np.inf], bounds])
    dtype = _code_dtype(n_sym)
    if n_sym * len(reps) * dtype.itemsize > 8 * draws:
        return None
    nxt = np.array([row.searchsorted(reps, side="right") for row in cum], dtype=dtype)
    return bounds, nxt, (nxt == nxt[0]).all(axis=0)


def _resolve_by_cells(walk: np.ndarray, u: np.ndarray, table) -> list[tuple[int, int]]:
    """Fill the steps t >= 1 of a Markov walk that whole-array passes can; return the rest.

    Step t is bisect_right(cum[walk[t - 1]], u[t - 1]), and walk[0] is set. A
    step whose cell sends every state to one successor (`_cell_table`) needs no
    predecessor: the coalescence of a grand coupling (Propp and Wilson, 1996).
    Every step takes state 0's successor first; the others are rewritten in
    rounds while a round resolves at least half of what is left. The rest (every
    step, with no table) come back as runs [head, end) for the per-step walk.
    """
    n = len(walk)
    if table is None:
        return [(1, n)]
    bounds, nxt, agree = table
    cell = _cells(bounds, u, np.zeros(len(u), dtype=_code_dtype(len(bounds) + 1)))
    known = np.ones(n, dtype=bool)  # walk[0] is set
    np.take(agree, cell, out=known[1:])
    np.take(nxt[0], cell, out=walk[1:])
    todo = np.flatnonzero(~known)
    while todo.size:
        ready = known[todo - 1]
        step = todo[ready]
        walk[step] = nxt.take(np.ravel_multi_index((walk[step - 1], cell[step - 1]), nxt.shape))
        known[step] = True
        todo = todo[~ready]
        if 2 * step.size < step.size + todo.size:
            break
    if not todo.size:
        return []
    cut = np.flatnonzero(np.diff(todo) != 1) + 1
    return list(zip(todo[np.r_[0, cut]].tolist(), (todo[np.r_[cut - 1, -1]] + 1).tolist()))


class Markov(ShiftMeasure, Record):
    """Stationary Markov measure; the initial row must be exactly stationary."""

    system: ShiftSystem
    transition: tuple[tuple[Fraction, ...], ...]
    initial: tuple[Fraction, ...]
    validate: bool = True
    kind = "markov"
    cylinder = ShiftMeasure.cylinder  # in vars(cls), where perfbench's tracer wraps it
    block_distribution = ShiftMeasure.block_distribution  # likewise in vars(cls)

    def __post_init__(self):
        n = self.system.alphabet.order
        if len(self.transition) != n or any(len(r) != n for r in self.transition):
            raise ValueError("transition matrix must be |G| x |G|")
        if len(self.initial) != n:
            raise ValueError("initial distribution must have one entry per symbol")
        # integer views: the rows over the lcm dt of their denominators, the initial over d0
        rows = [exact_vector(row, "transition rows") for row in self.transition]
        dt = math.lcm(*(den for _, den in rows))
        rows = tuple(tuple(dt // den * p for p in nums) for nums, den in rows)
        init, d0 = exact_vector(self.initial, "initial distribution")
        # pi P = pi over the common denominator d0 * dt
        if self.validate and any(
            sum(init[i] * rows[i][j] for i in range(n)) != init[j] * dt for j in range(n)
        ):
            raise ValueError("initial distribution is not stationary for the transition")
        object.__setattr__(self, "_chain", (init, d0, rows, dt, tuple(range(n))))

    @classmethod
    def stationary(cls, system: ShiftSystem, transition) -> "Markov":
        rows = tuple(tuple(parse_ratio(p) for p in row) for row in transition)
        return cls(system, rows, stationary_distribution(rows))

    def sample(self, n, seed):
        """The per-step walk s_t = bisect_right(cdf row of s_{t-1}, u[t]), mostly in numpy.

        It draws s_0 = rng.choice(|G|, p=initial), then u = rng.random(n), and
        step t reads u[t], drawn CHUNK_SYMBOLS at a time (one rng.random(n)'s
        stream). Each chunk's steps are resolved from the last state before it:
        `_resolve_by_cells` fills every step it can from one `_cell_table`, and
        the rest run as the per-step walk, whose symbols they all equal.
        """
        _check_length(n)
        n_sym = self.system.alphabet.order
        if n == 0:
            return np.empty(0, dtype=_code_dtype(n_sym))
        rng = np.random.default_rng(seed)
        init = np.array([float(p) for p in self.initial])
        init /= init.sum()
        rows = np.array([[float(p) for p in row] for row in self.transition])
        rows /= rows.sum(axis=1, keepdims=True)
        cum = np.cumsum(rows, axis=1)
        # bisect_right makes the comparisons of searchsorted(side="right"); an infinite
        # last bound sends a draw at or above a row total rounded below 1 to the last state
        cum[:, -1] = np.inf
        walk = np.empty(n, dtype=_code_dtype(n_sym))
        walk[0] = rng.choice(n_sym, p=init)
        rows = [array("d", row) for row in cum]  # 8 bytes a bound, not a float object's 32
        cells = _cell_table(cum, min(n, CHUNK_SYMBOLS))
        for start in range(0, n, CHUNK_SYMBOLS):
            u = rng.random(min(CHUNK_SYMBOLS, n - start))
            lead = min(start, 1)  # u[0] is no step's draw; a later chunk starts on the last state
            part, draws = walk[start - lead : start + len(u)], u[1 - lead :]
            for head, end in _resolve_by_cells(part, draws, cells):  # the per-step walk per run
                s = int(part[head - 1])
                run = array("q")
                for x in memoryview(draws)[head - 1 : end - 1]:
                    s = bisect_right(rows[s], x)
                    run.append(s)
                part[head:end] = np.frombuffer(run, dtype=np.int64)
        return walk


class PeriodicOrbit(ShiftMeasure, Record):
    """Uniform measure on the shift orbit of a periodic point."""

    system: ShiftSystem
    word: Word
    kind = "periodic_orbit"
    cylinder = ShiftMeasure.cylinder  # in vars(cls), where perfbench's tracer wraps it
    block_distribution = ShiftMeasure.block_distribution  # likewise in vars(cls)

    def __post_init__(self):
        w = tuple(self.word)
        object.__setattr__(self, "word", w)
        if not w:
            raise ValueError("periodic word must be nonempty")
        bad = next((s for s in w if not 0 <= s < self.system.alphabet.order), None)
        if bad is not None:
            raise ValueError(f"periodic word symbol {bad} outside the alphabet")
        p = len(w)
        phases = {tuple(w[(k + i) % p] for i in range(p)) for k in range(p)}
        if len(phases) != p:
            raise ValueError(
                f"word {w} has {len(phases)} distinct phases, not {p}; pass the primitive word"
            )
        # the cycle on phases, each starting with mass 1/p; phase i emits w[i]
        cycle = tuple(tuple(int(t == (s + 1) % p) for t in range(p)) for s in range(p))
        object.__setattr__(self, "_chain", ((1,) * p, p, cycle, 1, w))

    @property
    def period(self) -> int:
        return len(self.word)

    def sample(self, n, seed):
        _check_length(n)
        rng = np.random.default_rng(seed)
        phase = int(rng.integers(self.period))
        filled = self.period
        tiled = np.empty(n + filled, dtype=_code_dtype(self.system.alphabet.order))
        tiled[:filled] = self.word
        while filled < len(tiled):  # copy the filled prefix after itself, doubling it
            tiled[filled : 2 * filled] = tiled[: min(filled, len(tiled) - filled)]
            filled *= 2
        return tiled[phase : phase + n]


def _child_stream(seed, i: int) -> np.random.SeedSequence:
    """Child i of a seed's stream; unlike SeedSequence.spawn, the parent is not mutated."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (i,))


def _product_chain(left: ShiftMeasure, right: ShiftMeasure, op) -> tuple:
    """The chain of two independent chains, with init and rows their Kronecker products.

    State (a, b) is a * |S_right| + b and emits op(emit_left[a], emit_right[b]).
    """
    init_l, d0_l, rows_l, dt_l, emit_l = left._chain
    init_r, d0_r, rows_r, dt_r, emit_r = right._chain
    init = tuple(p * q for p in init_l for q in init_r)
    rows = tuple(tuple(p * q for p in row_l for q in row_r) for row_l in rows_l for row_r in rows_r)
    emit = tuple(op(a, b) for a in emit_l for b in emit_r)
    return init, d0_l * d0_r, rows, dt_l * dt_r, emit


class Mixture(ShiftMeasure, Record):
    """Exact convex combination of measures on one system."""

    system: ShiftSystem
    components: tuple[tuple[Fraction, ShiftMeasure], ...]
    kind = "mixture"
    cylinder = ShiftMeasure.cylinder  # in vars(cls), where perfbench's tracer wraps it
    block_distribution = ShiftMeasure.block_distribution  # likewise in vars(cls)

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty mixture")
        if any(m.system != self.system for _, m in self.components):
            raise SystemMismatch("mixture components live on different systems")
        exact_vector([w for w, _ in self.components], "mixture weights")

    @cached_property
    def _chain(self):
        """The block-diagonal union of the positive-weight components' chains."""
        parts = [(w, m._chain) for w, m in self.components if w]
        d0 = math.lcm(*(w.denominator * chain[1] for w, chain in parts))
        dt = math.lcm(*(chain[3] for _, chain in parts))
        size = sum(len(chain[0]) for _, chain in parts)
        init, rows, emit = (), (), ()
        for w, (part_init, d, part_rows, t, part_emit) in parts:
            before, after = (0,) * len(init), (0,) * (size - len(init) - len(part_init))
            scale = w.numerator * (d0 // (w.denominator * d))
            init += tuple(scale * p for p in part_init)
            rows += tuple(before + tuple(dt // t * p for p in row) + after for row in part_rows)
            emit += part_emit
        return init, d0, rows, dt, emit

    def sample(self, n, seed):
        rng = np.random.default_rng(_child_stream(seed, 0))
        u = rng.random()
        acc = 0.0
        chosen = self.components[-1][1]
        for w, m in self.components:
            acc += float(w)
            if u < acc:
                chosen = m
                break
        return chosen.sample(n, _child_stream(seed, 1))

    def _extended(self):
        return Mixture(
            self.system.two_sided_version(),
            tuple((w, m._extended()) for w, m in self.components),
        )


class Convolution(ShiftMeasure, Record):
    """Lazy convolution: the image of left x right under pointwise products."""

    system: ShiftSystem
    left: ShiftMeasure
    right: ShiftMeasure
    kind = "convolution"
    cylinder = ShiftMeasure.cylinder  # in vars(cls), where perfbench's tracer wraps it
    block_distribution = ShiftMeasure.block_distribution  # likewise in vars(cls)

    def __post_init__(self):
        if self.left.system != self.system or self.right.system != self.system:
            raise SystemMismatch("convolution factors live on different systems")

    @cached_property
    def _chain(self):
        """The product chain of the factors; state (a, b) emits g.op(a's symbol, b's symbol)."""
        return _product_chain(self.left, self.right, self.system.alphabet.op)

    def sample(self, n, seed):
        """np_op by the flat index u * |G| + v, built in u widened to hold |G|^2 codes.

        v is freed before the output exists, and the table is gathered
        CHUNK_SYMBOLS indices at a time, so the index's intp copy is one chunk.
        """
        g = self.system.alphabet
        u = self.left.sample(n, _child_stream(seed, 0)).astype(_code_dtype(g.order**2), copy=False)
        u *= g.order
        u += self.right.sample(n, _child_stream(seed, 1))
        table = g.np_op.ravel().astype(_code_dtype(g.order))
        out = np.empty(n, dtype=table.dtype)
        for start in range(0, n, CHUNK_SYMBOLS):
            end = start + CHUNK_SYMBOLS
            np.take(table, u[start:end], out=out[start:end])
        return out

    def _extended(self):
        return convolve_shift(self.left._extended(), self.right._extended())


class ProductMeasure(ShiftMeasure, Record):
    """Product of two shift measures, over the direct-product alphabet.

    Symbol (a, b) of the product alphabet has index a*|H| + b, matching
    groups.direct_product. Built via skew.product_system.
    """

    system: ShiftSystem
    left: ShiftMeasure
    right: ShiftMeasure
    kind = "product"
    cylinder = ShiftMeasure.cylinder  # in vars(cls), where perfbench's tracer wraps it
    block_distribution = ShiftMeasure.block_distribution  # likewise in vars(cls)

    def __post_init__(self):
        expect = self.left.system.alphabet.order * self.right.system.alphabet.order
        if self.system.alphabet.order != expect:
            raise SystemMismatch("product system alphabet must be the direct product")

    @cached_property
    def _chain(self):
        """The product chain of the factors; state (a, b) emits the pair a * |H| + b."""
        m = self.right.system.alphabet.order
        return _product_chain(self.left, self.right, lambda a, b: a * m + b)

    def sample(self, n, seed):
        # the pair index u * |H| + v, built in u widened to hold |G| * |H| codes
        u = self.left.sample(n, _child_stream(seed, 0))
        u = u.astype(_code_dtype(self.system.alphabet.order), copy=False)
        u *= self.right.system.alphabet.order
        u += self.right.sample(n, _child_stream(seed, 1))
        return u

    def _extended(self):
        return ProductMeasure(
            self.system.two_sided_version(),
            self.left._extended(),
            self.right._extended(),
        )

# -- module-level operations ---------------------------------------------------


def convolve_shift(mu: ShiftMeasure, nu: ShiftMeasure) -> ShiftMeasure:
    """Convolution of shift measures; simplifies where a closed form exists."""
    if mu.system != nu.system:
        raise SystemMismatch("convolution needs measures on the same system")
    if isinstance(mu, Bernoulli) and isinstance(nu, Bernoulli):
        return Bernoulli(mu.system, convolve_dense(mu.marginal, nu.marginal))
    if isinstance(mu, Mixture):
        return Mixture(
            mu.system, tuple((w, convolve_shift(m, nu)) for w, m in mu.components)
        )
    if isinstance(nu, Mixture):
        return Mixture(
            nu.system, tuple((w, convolve_shift(mu, m)) for w, m in nu.components)
        )
    return Convolution(mu.system, mu, nu)


def is_shift_invariant(mu: ShiftMeasure, depth: int) -> bool:
    """Check mu(T^-1 [w]) = mu([w]) exactly for all words up to the depth.

    T^-1[w] is the union over first symbols g of [g w], so its masses are the
    length-(L+1) table with the first symbol summed out.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    mu._guard(depth + 1)
    for length in range(1, depth + 1):
        table = mu.block_table(length)
        if mu.block_table(length + 1).drop_first() != table:
            return False
    return True


def natural_extension(mu: ShiftMeasure) -> ShiftMeasure:
    """The two-sided stationary measure with the same finite marginals."""
    if not mu.system.one_sided:
        raise UnsupportedKind("natural extension applies to one-sided measures")
    return mu._extended()


class ExtensionReport(Record):
    passed: bool
    witness: str = ""


def verify_extension(mu: ShiftMeasure, depth: int) -> ExtensionReport:
    """Marginal consistency and two-sided invariance of the natural extension.

    Witnesses name the first failing word by length, then in word order.
    """
    ext = natural_extension(mu)
    mu._guard(depth + 1)
    for length in range(1, depth + 1):
        w = _first_difference(mu.block_table(length), ext.block_table(length))
        if w is not None:
            witness = f"marginal mismatch at {w}: {mu.cylinder(w)} vs {ext.cylinder(w)}"
            return ExtensionReport(False, witness)
    # prepend consistency at every length up to the depth is the extension's shift
    # invariance; append consistency is checked below the depth
    for length in range(1, depth + 1):
        base, longer = ext.block_table(length), ext.block_table(length + 1)
        pre = _first_difference(longer.drop_first(), base)
        post = _first_difference(longer.drop_last(), base) if length < depth else None
        if pre is not None and (post is None or pre <= post):
            return ExtensionReport(False, f"prepend inconsistency at {pre}")
        if post is not None:
            return ExtensionReport(False, f"append inconsistency at {post}")
    return ExtensionReport(True)
