"""Scenario configs, validation, execution, and report writing.

Configs are JSON; probabilities must be rational strings ("3/4") so the
exact checks stay exact, tolerances are decimal floats. Reports are a CSV
with one row per checked quantity, a sibling JSON with full metadata, and a
two-column CSV per plotted curve. CSV and plot bytes are identical for
identical (config, seed) pairs; wall-clock runtime lives only in the JSON.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from .circle import circle_entropy_report, lebesgue, periodic_atomic, times_k
from .entropy import block_entropy, entropy_rate
from .ergodicity import (
    DisjointnessCertificate,
    convolution_ergodicity_scenario,
)
from .errors import FactorNotErgodic, ParseError, SchemaError
from .groups import FiniteGroup, haar, identity_hom, make_group, make_hom, measure
from .shifts import (
    Bernoulli,
    Markov,
    Mixture,
    PeriodicOrbit,
    ShiftMeasure,
    ShiftSystem,
    convolve_shift,
    natural_extension,
    shift_haar,
    shift_space,
    verify_extension,
)
from .groups import independence_check
from .skew import (
    constant_cocycle,
    entropy_addition_report,
    first_symbol_cocycle,
    make_skew,
    product_system,
)

THEOREM_TAGS = {
    "convolution_entropy": "Lemma 2.3; Theorem 2.1; Corollary 2.2",
    "haar_maximality": "Corollary 3.4; Theorem 3.3",
    "entropy_addition": "Lemma 2.2; Lemma 3.2; Lemma 3.3",
    "independence": "Lemma 3.12",
    "natural_extension": "Lemma 3.15; Theorem 3.3",
    "convolution_ergodicity": "Theorem 4.1; Theorem 2.2",
    "circle": "Corollary 3.4; Theorem 2.2",
    "product_entropy": "Lemma 2.2",
}

PARAMETER_SCHEMAS = {
    "convolution_entropy": "alphabet: group, left: measure, right: measure, L_max: int, expected?: float",
    "haar_maximality": "alphabet: group, measures: [measure], L_max: int; tolerances: haar, min_gap",
    "entropy_addition": "alphabet: group, base: measure, fiber: group, phi: 'first_symbol'|{'constant': int}, L?: int",
    "independence": "group: group, measure: measure|'haar', expect_independent: bool",
    "natural_extension": "alphabet: group, measure: measure, L: int",
    "convolution_ergodicity": "alphabet: group, left: measure, right: measure, certificate: {kind, justification?}, steps: int, seed_count: int, expect_rejection?: bool",
    "circle": "k: int, measure: 'lebesgue'|{'periodic_atomic': rational}, L: int, symbols?: int, seed_count?: int",
    "product_entropy": "left_alphabet: group, left: measure, right_alphabet: group, right: measure, L: int",
}


@dataclass(frozen=True)
class Row:
    quantity: str
    value: float
    lower: float
    upper: float
    tolerance: float
    passed: bool


def bounded_row(quantity, value, lower, upper, tolerance) -> Row:
    ok = (lower - tolerance) <= value <= (upper + tolerance)
    return Row(quantity, float(value), float(lower), float(upper), float(tolerance), ok)


def flag_row(quantity, ok: bool) -> Row:
    return Row(quantity, 1.0 if ok else 0.0, 1.0, 1.0, 0.0, bool(ok))


@dataclass(frozen=True)
class Scenario:
    id: str
    kind: str
    parameters: dict
    seed: int = 0
    tolerances: dict = field(default_factory=dict)


@dataclass
class ScenarioResult:
    scenario: Scenario
    theorem: str
    rows: list[Row]
    plots: dict[str, list[tuple[float, float]]]
    estimates: dict[str, Any]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _estimate_fields(est) -> dict:
    return {
        "value": est.value,
        "L_max": est.L_max,
        "gap": est.gap,
        "converged": est.converged,
        "method": est.method,
    }


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _as_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_ratio(value, path: str) -> Fraction:
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"bad rational literal {value!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    _fail(path, f"probabilities must be rational strings like '3/4', got {value!r}")


def parse_group(desc, path: str) -> FiniteGroup:
    if not isinstance(desc, dict):
        _fail(path, "group descriptor must be an object with a 'family' field")
    try:
        return make_group(desc)
    except (KeyError, ValueError, TypeError) as exc:
        _fail(path, f"bad group descriptor: {exc}")


def parse_measure(desc, system: ShiftSystem, path: str) -> ShiftMeasure:
    if desc == "haar":
        return shift_haar(system)
    if not isinstance(desc, dict):
        _fail(path, "measure descriptor must be an object or 'haar'")
    kind = _need(desc, "kind", path)
    g = system.alphabet
    if kind == "bernoulli":
        marginal = _need(desc, "marginal", path)
        if not isinstance(marginal, list) or len(marginal) != g.order:
            _fail(f"{path}.marginal", f"need {g.order} rational entries")
        weights = [_as_ratio(v, f"{path}.marginal[{i}]") for i, v in enumerate(marginal)]
        try:
            return Bernoulli(system, measure(g, weights))
        except ValueError as exc:
            _fail(f"{path}.marginal", str(exc))
    if kind == "markov":
        rows_desc = _need(desc, "transition", path)
        if not isinstance(rows_desc, list) or len(rows_desc) != g.order:
            _fail(f"{path}.transition", f"need {g.order} rows")
        rows = tuple(
            tuple(
                _as_ratio(v, f"{path}.transition[{i}][{j}]")
                for j, v in enumerate(row)
            )
            for i, row in enumerate(rows_desc)
        )
        try:
            if "initial" in desc:
                init = tuple(
                    _as_ratio(v, f"{path}.initial[{i}]")
                    for i, v in enumerate(desc["initial"])
                )
                return Markov(system, rows, init)
            return Markov.stationary(system, rows)
        except ValueError as exc:
            _fail(f"{path}.transition", str(exc))
    if kind == "periodic_orbit":
        word = _need(desc, "word", path)
        if not isinstance(word, list) or not all(
            isinstance(s, int) and 0 <= s < g.order for s in word
        ):
            _fail(f"{path}.word", f"need symbols in 0..{g.order - 1}")
        try:
            return PeriodicOrbit(system, tuple(word))
        except ValueError as exc:
            _fail(f"{path}.word", str(exc))
    if kind == "mixture":
        comps_desc = _need(desc, "components", path)
        comps = []
        for i, pair in enumerate(comps_desc):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"{path}.components[{i}]", "need [weight, measure] pairs")
            w = _as_ratio(pair[0], f"{path}.components[{i}][0]")
            comps.append((w, parse_measure(pair[1], system, f"{path}.components[{i}][1]")))
        try:
            return Mixture(system, tuple(comps))
        except ValueError as exc:
            _fail(f"{path}.components", str(exc))
    if kind == "convolution":
        left = parse_measure(_need(desc, "left", path), system, f"{path}.left")
        right = parse_measure(_need(desc, "right", path), system, f"{path}.right")
        return convolve_shift(left, right)
    _fail(path, f"unknown measure kind {kind!r}")


def parse_config(text: str) -> list[Scenario]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}")
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise SchemaError("config: top level must be an object with a 'scenarios' array")
    scenarios = []
    seen_ids = set()
    for i, sc in enumerate(doc["scenarios"]):
        path = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            _fail(path, "scenario must be an object")
        sid = _need(sc, "id", path)
        if not isinstance(sid, str) or not sid:
            _fail(f"{path}.id", "must be a nonempty string")
        if sid in seen_ids:
            _fail(f"{path}.id", f"duplicate scenario id {sid!r}")
        seen_ids.add(sid)
        kind = _need(sc, "kind", path)
        if kind not in THEOREM_TAGS:
            _fail(f"{path}.kind", f"unknown kind {kind!r}; see `ergolab list`")
        params = sc.get("parameters", {})
        if not isinstance(params, dict):
            _fail(f"{path}.parameters", "must be an object")
        seed = sc.get("seed", 0)
        seed = _as_int(seed, f"{path}.seed")
        tols = sc.get("tolerances", {})
        if not isinstance(tols, dict):
            _fail(f"{path}.tolerances", "must be an object")
        for key, v in tols.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                _fail(f"{path}.tolerances.{key}", "tolerances are decimal floats")
        scenarios.append(Scenario(sid, kind, params, seed, dict(tols)))
        # validate parameters eagerly so `run` fails before executing anything
        _build_runner(scenarios[-1], validate_only=True)
    return scenarios


# -- scenario runners ------------------------------------------------------------


def _run_convolution_entropy(sc: Scenario, validate_only=False):
    path = f"scenarios[{sc.id}].parameters"
    g = parse_group(_need(sc.parameters, "alphabet", path), f"{path}.alphabet")
    system = shift_space(g)
    left = parse_measure(_need(sc.parameters, "left", path), system, f"{path}.left")
    right = parse_measure(_need(sc.parameters, "right", path), system, f"{path}.right")
    l_max = _as_int(_need(sc.parameters, "L_max", path), f"{path}.L_max")
    if validate_only:
        return None
    tol = float(sc.tolerances.get("value", 1e-9))
    conv = convolve_shift(left, right)
    est_l = entropy_rate(left, l_max)
    est_r = entropy_rate(right, l_max)
    est_c = entropy_rate(conv, l_max)
    rows = [
        bounded_row("h_left", est_l.value, 0.0, math.log(g.order), 1e-12),
        bounded_row("h_right", est_r.value, 0.0, math.log(g.order), 1e-12),
        bounded_row("h_convolution", est_c.value, 0.0, math.log(g.order), 1e-12),
        bounded_row(
            "subadditivity", est_c.value, 0.0, est_l.value + est_r.value, 1e-9
        ),
        bounded_row(
            "superadditivity_with_gap",
            est_c.value + max(est_l.gap, est_r.gap, est_c.gap),
            max(est_l.value, est_r.value),
            float("inf"),
            1e-6,
        ),
    ]
    if "expected" in sc.parameters:
        exp = float(sc.parameters["expected"])
        rows.append(bounded_row("h_convolution_vs_expected", est_c.value, exp, exp, tol))
    plots = {"h_L": [(float(i + 1), h) for i, h in enumerate(est_c.upper_bounds)]}
    estimates = {
        "left": _estimate_fields(est_l),
        "right": _estimate_fields(est_r),
        "convolution": _estimate_fields(est_c),
    }
    return rows, plots, estimates


def _run_haar_maximality(sc: Scenario, validate_only=False):
    path = f"scenarios[{sc.id}].parameters"
    g = parse_group(_need(sc.parameters, "alphabet", path), f"{path}.alphabet")
    system = shift_space(g)
    descs = _need(sc.parameters, "measures", path)
    if not isinstance(descs, list) or not descs:
        _fail(f"{path}.measures", "need a nonempty measure list")
    mus = [
        parse_measure(d, system, f"{path}.measures[{i}]") for i, d in enumerate(descs)
    ]
    l_max = _as_int(_need(sc.parameters, "L_max", path), f"{path}.L_max")
    if validate_only:
        return None
    haar_tol = float(sc.tolerances.get("haar", 1e-12))
    min_gap = float(sc.tolerances.get("min_gap", 1e-3))
    ln_g = math.log(g.order)
    h_haar = entropy_rate(shift_haar(system), l_max).value
    rows = [bounded_row("h_haar", h_haar, ln_g, ln_g, haar_tol)]
    for i, mu in enumerate(mus):
        h = entropy_rate(mu, l_max).value
        if mu.kind == "bernoulli" and mu.marginal.weights == haar(g).weights:
            rows.append(bounded_row(f"measure_{i}_equality_case", h, ln_g, ln_g, haar_tol))
        else:
            rows.append(bounded_row(f"measure_{i}_gap", h, 0.0, ln_g - min_gap, 0.0))
    return rows, {}, {}


def _run_entropy_addition(sc: Scenario, validate_only=False):
    path = f"scenarios[{sc.id}].parameters"
    g = parse_group(_need(sc.parameters, "alphabet", path), f"{path}.alphabet")
    system = shift_space(g)
    base = parse_measure(_need(sc.parameters, "base", path), system, f"{path}.base")
    fiber = parse_group(_need(sc.parameters, "fiber", path), f"{path}.fiber")
    phi_desc = _need(sc.parameters, "phi", path)
    if phi_desc == "first_symbol":
        if g.order != fiber.order:
            _fail(f"{path}.phi", "first_symbol needs matching alphabet and fiber")
        phi = first_symbol_cocycle(system, fiber)
    elif isinstance(phi_desc, dict) and "constant" in phi_desc:
        c = _as_int(phi_desc["constant"], f"{path}.phi.constant")
        if not 0 <= c < fiber.order:
            _fail(f"{path}.phi.constant", "outside the fiber group")
        phi = constant_cocycle(system, fiber, c)
    else:
        _fail(f"{path}.phi", "expected 'first_symbol' or {'constant': g}")
    depth = _as_int(sc.parameters.get("L", 4), f"{path}.L")
    if validate_only:
        return None
    tol = float(sc.tolerances.get("value", 1e-9))
    sk = make_skew(system, fiber, identity_hom(fiber), phi)
    rep = entropy_addition_report(sk, base, L=depth, tolerance=tol)
    rows = [
        bounded_row("h_base", rep.base_entropy, 0.0, math.log(g.order), 1e-12),
        bounded_row("h_fiber", rep.fiber_entropy, 0.0, 0.0, 0.0),
        bounded_row(
            "h_skew_vs_sum",
            rep.skew_entropy,
            rep.base_entropy + rep.fiber_entropy,
            rep.base_entropy + rep.fiber_entropy,
            tol,
        ),
    ]
    return rows, {}, {}


def _run_independence(sc: Scenario, validate_only=False):
    path = f"scenarios[{sc.id}].parameters"
    g = parse_group(_need(sc.parameters, "group", path), f"{path}.group")
    desc = _need(sc.parameters, "measure", path)
    if desc == "haar":
        mu = haar(g)
    elif isinstance(desc, dict) and "weights" in desc:
        weights = [
            _as_ratio(v, f"{path}.measure.weights[{i}]")
            for i, v in enumerate(desc["weights"])
        ]
        try:
            mu = measure(g, weights)
        except ValueError as exc:
            _fail(f"{path}.measure.weights", str(exc))
    else:
        _fail(f"{path}.measure", "expected 'haar' or {'weights': [...]}")
    expect = _need(sc.parameters, "expect_independent", path)
    if not isinstance(expect, bool):
        _fail(f"{path}.expect_independent", "must be a boolean")
    if validate_only:
        return None
    rep = independence_check(mu)
    rows = [
        flag_row("independent_matches_expectation", rep.independent == expect),
        flag_row("witness_present_iff_dependent", (rep.witness is not None) == (not rep.independent)),
    ]
    return rows, {}, {}


def _run_natural_extension(sc: Scenario, validate_only=False):
    path = f"scenarios[{sc.id}].parameters"
    g = parse_group(_need(sc.parameters, "alphabet", path), f"{path}.alphabet")
    system = shift_space(g)
    mu = parse_measure(_need(sc.parameters, "measure", path), system, f"{path}.measure")
    depth = _as_int(_need(sc.parameters, "L", path), f"{path}.L")
    if validate_only:
        return None
    tol = float(sc.tolerances.get("entropy", 1e-12))
    report = verify_extension(mu, depth)
    ext = natural_extension(mu)
    worst = 0.0
    for length in range(1, depth + 1):
        worst = max(worst, abs(block_entropy(mu, length) - block_entropy(ext, length)))
    rows = [
        flag_row("marginal_consistency", report.passed),
        bounded_row("max_block_entropy_discrepancy", worst, 0.0, 0.0, tol),
    ]
    return rows, {}, {}


def _run_convolution_ergodicity(sc: Scenario, validate_only=False):
    path = f"scenarios[{sc.id}].parameters"
    g = parse_group(_need(sc.parameters, "alphabet", path), f"{path}.alphabet")
    system = shift_space(g)
    left = parse_measure(_need(sc.parameters, "left", path), system, f"{path}.left")
    right = parse_measure(_need(sc.parameters, "right", path), system, f"{path}.right")
    cert_desc = _need(sc.parameters, "certificate", path)
    if not isinstance(cert_desc, dict) or "kind" not in cert_desc:
        _fail(f"{path}.certificate", "need an object with a 'kind'")
    if cert_desc["kind"] not in ("point_mass", "periodic_vs_mixing", "declared"):
        _fail(f"{path}.certificate.kind", f"unknown kind {cert_desc['kind']!r}")
    cert = DisjointnessCertificate(
        cert_desc["kind"], cert_desc.get("justification", "")
    )
    steps = _as_int(sc.parameters.get("steps", 10**6), f"{path}.steps")
    seed_count = _as_int(sc.parameters.get("seed_count", 100), f"{path}.seed_count")
    expect_rejection = sc.parameters.get("expect_rejection", False)
    if not isinstance(expect_rejection, bool):
        _fail(f"{path}.expect_rejection", "must be a boolean")
    if validate_only:
        return None
    dispersion = float(sc.tolerances.get("dispersion", 5e-3))
    try:
        rep = convolution_ergodicity_scenario(
            left,
            right,
            cert,
            n_steps=steps,
            n_seeds=seed_count,
            base_seed=sc.seed,
            observable_seed=sc.seed,
        )
    except FactorNotErgodic:
        return [flag_row("rejected_with_factor_not_ergodic", expect_rejection)], {}, {}
    if expect_rejection:
        return [flag_row("rejected_with_factor_not_ergodic", False)], {}, {}
    rows = [
        flag_row("certificate_verified", rep.certificate_verified or cert.kind == "declared"),
        flag_row("convolution_invariant_exact", rep.invariance_exact),
    ]
    for r in rep.birkhoff.rows:
        word = "".join(str(s) for s in r.word)
        rows.append(bounded_row(f"mean[{word}]", r.mean, r.exact, r.exact, r.bound))
        rows.append(bounded_row(f"dispersion[{word}]", r.dispersion, 0.0, dispersion, 0.0))
    rows.append(flag_row("ergodic_consistent", rep.verdict == "ergodic-consistent"))
    return rows, {}, {}


def _run_circle(sc: Scenario, validate_only=False):
    path = f"scenarios[{sc.id}].parameters"
    k = _as_int(_need(sc.parameters, "k", path), f"{path}.k")
    if k < 2:
        _fail(f"{path}.k", "k must be >= 2")
    desc = _need(sc.parameters, "measure", path)
    depth = _as_int(_need(sc.parameters, "L", path), f"{path}.L")
    symbols = _as_int(sc.parameters.get("symbols", 10**6), f"{path}.symbols")
    seed_count = _as_int(sc.parameters.get("seed_count", 1), f"{path}.seed_count")
    sys = times_k(k)
    if desc == "lebesgue":
        mu = lebesgue()
    elif isinstance(desc, dict) and "periodic_atomic" in desc:
        try:
            mu = periodic_atomic(sys, _as_ratio(desc["periodic_atomic"], f"{path}.measure"))
        except ValueError as exc:
            _fail(f"{path}.measure", str(exc))
    else:
        _fail(f"{path}.measure", "expected 'lebesgue' or {'periodic_atomic': 'p/q'}")
    if validate_only:
        return None
    tol = float(sc.tolerances.get("value", 0.02))
    est = circle_entropy_report(
        sys, mu, depth, n_symbols=symbols, seeds=seed_count, base_seed=sc.seed
    )
    if mu.kind == "lebesgue":
        rows = [bounded_row("empirical_entropy_vs_ln_k", est.value, math.log(k), math.log(k), tol)]
    else:
        rows = [bounded_row("periodic_atomic_entropy", est.value, 0.0, 0.0, 0.0)]
    plots = {"h_L": [(float(i + 1), h) for i, h in enumerate(est.upper_bounds)]}
    return rows, plots, {"entropy": _estimate_fields(est)}


def _run_product_entropy(sc: Scenario, validate_only=False):
    path = f"scenarios[{sc.id}].parameters"
    g_l = parse_group(_need(sc.parameters, "left_alphabet", path), f"{path}.left_alphabet")
    g_r = parse_group(_need(sc.parameters, "right_alphabet", path), f"{path}.right_alphabet")
    left = parse_measure(_need(sc.parameters, "left", path), shift_space(g_l), f"{path}.left")
    right = parse_measure(_need(sc.parameters, "right", path), shift_space(g_r), f"{path}.right")
    depth = _as_int(_need(sc.parameters, "L", path), f"{path}.L")
    if validate_only:
        return None
    tol = float(sc.tolerances.get("per_level", 1e-12))
    pm = product_system(left, right)
    rows = []
    for length in range(1, depth + 1):
        total = block_entropy(pm, length)
        parts = block_entropy(left, length) + block_entropy(right, length)
        rows.append(bounded_row(f"H_{length}_additivity", total, parts, parts, tol))
    return rows, {}, {}


_RUNNERS: dict[str, Callable] = {
    "convolution_entropy": _run_convolution_entropy,
    "haar_maximality": _run_haar_maximality,
    "entropy_addition": _run_entropy_addition,
    "independence": _run_independence,
    "natural_extension": _run_natural_extension,
    "convolution_ergodicity": _run_convolution_ergodicity,
    "circle": _run_circle,
    "product_entropy": _run_product_entropy,
}


def _build_runner(sc: Scenario, validate_only=False):
    return _RUNNERS[sc.kind](sc, validate_only=validate_only)


def run_scenario(sc: Scenario) -> ScenarioResult:
    start = time.perf_counter()
    rows, plots, estimates = _build_runner(sc)
    elapsed = time.perf_counter() - start
    return ScenarioResult(sc, THEOREM_TAGS[sc.kind], rows, plots, estimates, elapsed)


def run_scenarios(scenarios: list[Scenario]) -> list[ScenarioResult]:
    return [run_scenario(sc) for sc in scenarios]


# -- report writing -----------------------------------------------------------------


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def write_reports(results: list[ScenarioResult], out_path: str | Path) -> None:
    out = Path(out_path)
    lines = ["scenario_id,quantity,value,lower,upper,tolerance,pass"]
    for res in results:
        for row in res.rows:
            lines.append(
                ",".join(
                    [
                        res.scenario.id,
                        row.quantity,
                        _fmt(row.value),
                        _fmt(row.lower),
                        _fmt(row.upper),
                        _fmt(row.tolerance),
                        "true" if row.passed else "false",
                    ]
                )
            )
    out.write_text("\n".join(lines) + "\n")

    meta = {
        "suite_verdict": "pass" if all(r.passed for r in results) else "fail",
        "scenarios": [
            {
                "id": res.scenario.id,
                "kind": res.scenario.kind,
                "theorem": res.theorem,
                "seed": res.scenario.seed,
                "tolerances": res.scenario.tolerances,
                "passed": res.passed,
                "estimates": res.estimates,
                "runtime_seconds": res.runtime_seconds,
                "rows": [
                    {
                        "quantity": r.quantity,
                        "value": r.value,
                        "lower": r.lower,
                        "upper": r.upper,
                        "tolerance": r.tolerance,
                        "pass": r.passed,
                    }
                    for r in res.rows
                ],
            }
            for res in results
        ],
    }
    out.with_suffix(".json").write_text(json.dumps(meta, indent=2, default=str) + "\n")

    for res in results:
        for name, series in res.plots.items():
            plot_path = out.with_name(f"{out.stem}.{res.scenario.id}.{name}.csv")
            plot_lines = [f"L,{name}"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in series]
            plot_path.write_text("\n".join(plot_lines) + "\n")


def list_kinds() -> str:
    lines = ["scenario kinds (parameters):", ""]
    for kind in sorted(THEOREM_TAGS):
        lines.append(f"{kind}")
        lines.append(f"    parameters: {PARAMETER_SCHEMAS[kind]}")
        lines.append(f"    theorem: {THEOREM_TAGS[kind]}")
    return "\n".join(lines)
