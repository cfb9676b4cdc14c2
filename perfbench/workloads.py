"""Seeded workload definitions for the ergolab benchmark.

`enumerate` and `sample` are scenario configs generated from the benchmark
seed. Their sizes (depths, periods, step and symbol counts, scenario seeds)
are fixed; the seed draws only the rationals of the Bernoulli and Markov
factors and the primitive periodic words, from bounded ranges, so the cost
of a run does not depend on the seed. The same seed gives a byte-identical
config. `verify_exact` is the shipped exact acceptance suite and takes no
input from the seed.

Alongside each config the generator returns the exact parameters it drew,
so that `check.py` can compute its oracles without parsing the config back.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Every probability is k / DENOM with 2 <= k <= DENOM - 2. DENOM is prime, so
# no fraction reduces and the Fraction sizes (and so the cost) do not depend
# on the seed; full support keeps every factor ergodic; and as 2 and 3 do not
# divide 17, no drawn row is uniform, which keeps every measure at least
# 1.7e-3 nats below ln |G| (above the default 1e-3 `min_gap`), so the
# `haar_maximality` rows keep their names and verdicts.
DENOM = 17

WORKLOADS = {
    "enumerate": (
        "a few large exact block enumerations (peak 4^8 = 65k block states) "
        "through ergolab run; stresses shifts and entropy, no sampling"
    ),
    "sample": (
        "samplers, Birkhoff passes, circle coding and empirical window codes "
        "through ergolab run; almost no bulk enumeration"
    ),
    "verify_exact": (
        "ergolab verify --suite exact: many small enumerations and cylinder "
        "queries under the criteria's wall-clock budgets"
    ),
}

SCENARIO_WORKLOADS = ("enumerate", "sample")


def _cyclic(n: int) -> dict:
    return {"family": "cyclic", "n": n}


def _ratio(k: int) -> str:
    return str(Fraction(k, DENOM))


def _draw_c2_row(rng: random.Random, low: int) -> list[int]:
    k = rng.randint(low, DENOM - low)
    return [k, DENOM - k]


def _draw_c3_row(rng: random.Random) -> list[int]:
    """Three numerators >= 2 summing to DENOM."""
    while True:
        a = rng.randint(2, DENOM - 4)
        b = rng.randint(2, DENOM - 2 - a)
        c = DENOM - a - b
        if c >= 2:
            return [a, b, c]


def _draw_row(rng: random.Random, order: int, low: int = 2) -> list[int]:
    return _draw_c2_row(rng, low) if order == 2 else _draw_c3_row(rng)


def _draw_primitive_word(rng: random.Random, order: int, period: int) -> list[int]:
    """A word whose `period` cyclic rotations are pairwise distinct."""
    while True:
        word = [rng.randrange(order) for _ in range(period)]
        if len({tuple(word[k:] + word[:k]) for k in range(period)}) == period:
            return word


class _Drawer:
    """Draws measures and records the exact parameters next to the config text."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def bernoulli(self, order: int) -> tuple[dict, dict]:
        row = _draw_row(self.rng, order)
        desc = {"kind": "bernoulli", "marginal": [_ratio(k) for k in row]}
        return desc, {"kind": "bernoulli", "order": order, "marginal": row}

    def markov(self, order: int, low: int = 2) -> tuple[dict, dict]:
        """`low` bounds every C2 numerator to low..DENOM-low."""
        rows = [_draw_row(self.rng, order, low) for _ in range(order)]
        desc = {"kind": "markov", "transition": [[_ratio(k) for k in r] for r in rows]}
        return desc, {"kind": "markov", "order": order, "transition": rows}

    def periodic(self, order: int, period: int) -> tuple[dict, dict]:
        word = _draw_primitive_word(self.rng, order, period)
        desc = {"kind": "periodic_orbit", "word": word}
        return desc, {"kind": "periodic_orbit", "order": order, "word": word}


def _enumerate_scenarios(d: _Drawer) -> list[tuple[dict, dict]]:
    """Large exact enumerations.

    - three `convolution_entropy` scenarios with a periodic factor (C2
      Bernoulli and Markov at L_max = 13, C3 Markov at L_max = 8); each also
      shows the false finite-L `subadditivity` row (a known defect, counted
      as failed);
    - `product_entropy` over C2 x C2 at L = 8, the 65k-state peak, where the
      product re-enumerates its right factor for every left word;
    - `haar_maximality` on C3 at L_max = 9;
    - a C3 Markov `natural_extension` at L = 7: many point cylinder queries.

    The depths keep one repetition near 3 s, so a run holds about ten.
    """
    out = []

    def conv(sid, order, left, right, l_max):
        desc_l, spec_l = left
        desc_r, spec_r = right
        params = {"alphabet": _cyclic(order), "left": desc_l, "right": desc_r, "L_max": l_max}
        spec = {"left": spec_l, "right": spec_r, "L_max": l_max}
        out.append(({"id": sid, "kind": "convolution_entropy", "parameters": params}, spec))

    conv("conv_bernoulli_periodic_c2", 2, d.bernoulli(2), d.periodic(2, 3), 13)
    conv("conv_markov_periodic_c2", 2, d.markov(2), d.periodic(2, 3), 13)
    conv("conv_markov_periodic_c3", 3, d.markov(3), d.periodic(3, 2), 8)

    (desc_l, spec_l), (desc_r, spec_r) = d.markov(2), d.bernoulli(2)
    params = {
        "left_alphabet": _cyclic(2),
        "left": desc_l,
        "right_alphabet": _cyclic(2),
        "right": desc_r,
        "L": 8,
    }
    out.append(
        (
            {"id": "product_c2xc2", "kind": "product_entropy", "parameters": params},
            {"left": spec_l, "right": spec_r, "L": 8},
        )
    )

    (desc_b, spec_b), (desc_m, spec_m) = d.bernoulli(3), d.markov(3)
    params = {"alphabet": _cyclic(3), "measures": [desc_b, desc_m], "L_max": 9}
    out.append(
        (
            {"id": "haar_maximality_c3", "kind": "haar_maximality", "parameters": params},
            {"order": 3, "measures": [spec_b, spec_m], "L_max": 9},
        )
    )

    desc, spec = d.markov(3)
    params = {"alphabet": _cyclic(3), "measure": desc, "L": 7}
    out.append(
        (
            {"id": "natural_extension_c3", "kind": "natural_extension", "parameters": params},
            {"measure": spec, "L": 7},
        )
    )
    return out


def _sample_scenarios(d: _Drawer) -> list[tuple[dict, dict]]:
    """Sampling and empirical estimation; scenario seeds are fixed.

    - Bernoulli x periodic `convolution_ergodicity`, 1e6 steps x 10 seeds:
      Bernoulli sampling, Birkhoff passes and the depth-6 invariance precheck;
    - Markov x Bernoulli with a `declared` certificate, 1e5 steps x 5 seeds:
      the per-step Markov sampler;
    - Lebesgue coding of the doubling map at L = 12 over 1e6 symbols, and of
      the tripling map at L = 8 over 1e6 symbols: circle coding and the
      empirical window codes.
    """
    out = []
    left, right = d.bernoulli(2), d.periodic(2, 3)
    params = {
        "alphabet": _cyclic(2),
        "left": left[0],
        "right": right[0],
        "certificate": {"kind": "periodic_vs_mixing"},
        "steps": 10**6,
        "seed_count": 10,
    }
    out.append(
        (
            {"id": "ergodicity_bernoulli_periodic", "kind": "convolution_ergodicity",
             "parameters": params, "seed": 41},
            {"left": left[1], "right": right[1]},
        )
    )
    # Numerators 6..11 keep the chain's correlation |lambda| <= 5/17, so the
    # across-seed dispersion of 1e5-step averages stays well under 5e-3.
    left, right = d.markov(2, low=6), d.bernoulli(2)
    params = {
        "alphabet": _cyclic(2),
        "left": left[0],
        "right": right[0],
        "certificate": {
            "kind": "declared",
            "justification": "full-support Markov against full-support Bernoulli",
        },
        "steps": 10**5,
        "seed_count": 5,
    }
    out.append(
        (
            {"id": "ergodicity_markov_bernoulli", "kind": "convolution_ergodicity",
             "parameters": params, "seed": 43},
            {"left": left[1], "right": right[1]},
        )
    )
    for sid, k, depth, symbols, seed in (
        ("circle_doubling", 2, 12, 10**6, 7),
        ("circle_tripling", 3, 8, 10**6, 9),
    ):
        params = {"k": k, "measure": "lebesgue", "L": depth, "symbols": symbols}
        out.append(
            ({"id": sid, "kind": "circle", "parameters": params, "seed": seed}, {"k": k})
        )
    return out


def generate(workload: str, seed: int) -> tuple[str, dict[str, dict]]:
    """Config text and {scenario id: drawn parameters, with the scenario `kind`}."""
    makers = {"enumerate": _enumerate_scenarios, "sample": _sample_scenarios}
    if workload not in makers:
        raise ValueError(f"workload {workload!r} takes no generated config")
    rng = random.Random(f"ergolab-perfbench/{workload}/{seed}")
    pairs = makers[workload](_Drawer(rng))
    config = {"suite": f"perfbench-{workload}", "scenarios": [sc for sc, _ in pairs]}
    specs = {sc["id"]: dict(spec, kind=sc["kind"]) for sc, spec in pairs}
    return json.dumps(config, indent=1, sort_keys=True) + "\n", specs
