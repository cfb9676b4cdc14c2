"""Scenario configs, validation, execution, and report writing.

Configs are JSON; probabilities must be rational strings ("3/4") so the
exact checks stay exact, tolerances are decimal floats. Each scenario and
measure kind is a function whose keyword defaults are `Param` field specs,
which `parse_config` parses once and `list_kinds` prints. Reports are a CSV
with one row per checked quantity, a sibling JSON with full metadata and the
runtimes, and a two-column CSV per plotted curve; CSV and plot bytes are
identical for identical (config, seed) pairs.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .circle import circle_entropy_report, lebesgue, periodic_atomic, times_k
from .entropy import block_entropy, entropy_rate, require_symbols
from .ergodicity import (
    DISPERSION_THRESHOLD,
    MIN_BIRKHOFF_STEPS,
    DisjointnessCertificate,
    birkhoff_report,
    default_observables,
    is_ergodic_exact,
    same_measure,
    validate_certificate,
)
from .errors import DepthLimitExceeded, InsufficientData, ParseError, SchemaError
from .errors import CertificateInvalid, MissingIdentity, MissingInverse, NonAssociative
from .groups import FiniteGroup, cyclic, dihedral, direct_product, explicit_group, haar
from .groups import identity_hom, independence_check, measure, symmetric
from .record import Record, factory, replace
from .shifts import (
    DEPTH_GUARD_STATES,
    Bernoulli,
    Markov,
    Mixture,
    PeriodicOrbit,
    ShiftMeasure,
    ShiftSystem,
    convolve_shift,
    is_shift_invariant,
    natural_extension,
    shift_haar,
    shift_space,
    verify_extension,
)
from .skew import (
    constant_cocycle,
    entropy_addition_report,
    first_symbol_cocycle,
    haar_extension,
    make_skew,
    product_system,
)


class Row(Record):
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


class Scenario(Record):
    """A parsed scenario: its kind's parsed inputs and every tolerance the kind reads."""

    id: str
    kind: str
    parameters: dict
    seed: int = 0
    tolerances: dict = factory(dict)


class ScenarioResult(Record):
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


_REQUIRED = object()


class Param(Record):
    """A config field: its type text, `parse(value, path, fields parsed before)`, its default."""

    type: str
    parse: Callable[[Any, str, dict], Any]
    default: Any = _REQUIRED

    def optional(self, default) -> Param:
        return replace(self, default=default)


def _fields(make: Callable) -> dict[str, Param]:
    """The config fields `make` takes: its parameters whose defaults are `Param`s, in order."""
    params = inspect.signature(make).parameters.values()
    return {p.name: p.default for p in params if isinstance(p.default, Param)}


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _parse_fields(fields: dict[str, Param], obj, path: str, parsed: dict) -> dict:
    """Parse the object `obj` field by field, in spec order, into `parsed`."""
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    for key in obj:
        if key not in fields:
            _fail(path, f"unknown field {key!r}; expected one of {', '.join(fields)}")
    for name, p in fields.items():
        if name in obj:
            try:  # a constructor's own check on a parsed value
                parsed[name] = p.parse(obj[name], f"{path}.{name}", parsed)
            except ValueError as exc:
                _fail(f"{path}.{name}", str(exc))
        elif p.default is _REQUIRED:
            _fail(path, f"missing required field {name!r}")
        else:
            parsed[name] = p.default
    return parsed


def _scalar(text: str, ok: Callable[[Any], bool]) -> Param:
    def parse(value, path, parsed=None):
        if not ok(value):
            _fail(path, f"expected {text}, got {value!r}")
        return value

    return Param(text, parse)


def _int_at_least(minimum: int) -> Param:  # `type(v) is int` also refuses bools
    return _scalar(f"int >= {minimum}", lambda v: type(v) is int and v >= minimum)


def _as_ratio(value, path: str, parsed=None) -> Fraction:
    if type(value) not in (str, int):
        _fail(path, f"probabilities must be rational strings like '3/4', got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        _fail(path, f"bad rational literal {value!r}")


def _build(kinds: dict[str, Callable], tag: str, desc, path: str, parsed: dict):
    """`kinds[desc[tag]]` called on desc's other fields, each parsed by its `Param` spec."""
    if not isinstance(desc, dict):
        _fail(path, f"must be an object with a {tag!r} field")
    name = desc.get(tag)
    if not isinstance(name, str) or name not in kinds:
        _fail(f"{path}.{tag}", f"unknown {tag} {name!r}; expected one of {', '.join(kinds)}")
    make = kinds[name]
    fields = {key: v for key, v in desc.items() if key != tag}
    try:  # the constructor's own checks, e.g. that an explicit table is a group
        return make(**_parse_fields(_fields(make), fields, path, parsed))
    except (ValueError, MissingIdentity, MissingInverse, NonAssociative) as exc:
        _fail(path, str(exc))


COUNT = _int_at_least(1)
NATURAL = _int_at_least(0)
BOOL = _scalar("bool", lambda v: isinstance(v, bool))
NUMBER = _scalar("float", lambda v: type(v) in (int, float))
STRING = _scalar("str", lambda v: isinstance(v, str))
GROUP = Param("group", lambda value, path, parsed: parse_group(value, path))


def _list_of(item: Param, per_symbol: bool = False) -> Param:
    """A nonempty list of `item`s, with one per symbol of `parsed["system"]` if `per_symbol`."""

    def parse(value, path, parsed):
        if not isinstance(value, list) or not value:
            _fail(path, f"need a nonempty list of {item.type} entries")
        if per_symbol and len(value) != parsed["system"].alphabet.order:
            _fail(path, f"need {parsed['system'].alphabet.order} entries, one per symbol")
        return tuple(item.parse(v, f"{path}[{i}]", parsed) for i, v in enumerate(value))

    return Param(f"[{item.type}]" + (" per symbol" if per_symbol else ""), parse)


RATIONALS = _list_of(Param("rational", _as_ratio))
WEIGHTS = _list_of(Param("rational", _as_ratio), per_symbol=True)


def _guard_order(order: int, text: str) -> None:
    """Refuse a group before it is built when its order^2-entry table would pass 2^24."""
    if order * order > DEPTH_GUARD_STATES:
        raise ValueError(f"{text} gives order {order}: its {order}^2 table entries exceed 2^24")


def _cyclic(n=COUNT):
    _guard_order(n, f"n = {n}")
    return cyclic(n)


def _symmetric(n=COUNT):  # `symmetric` and `dihedral` refuse n > 4 and n > 8 before building
    return symmetric(n)


def _dihedral(n=COUNT):
    return dihedral(n)


def _direct_product(left=GROUP, right=GROUP):
    _guard_order(left.order * right.order, f"{left.order} * {right.order}")
    return direct_product(left, right)


def _explicit(table=_list_of(_list_of(NATURAL)), label=STRING.optional("G")):
    return explicit_group(table, label)


GROUP_FAMILIES = {
    f.__name__[1:]: f for f in (_cyclic, _symmetric, _dihedral, _direct_product, _explicit)
}


def parse_group(desc, path: str) -> FiniteGroup:
    return _build(GROUP_FAMILIES, "family", desc, path, {})


def _component(value, path, parsed):
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "need a [weight, measure] pair")
    return _as_ratio(value[0], f"{path}[0]"), parse_measure(value[1], parsed["system"], f"{path}[1]")


FACTOR = Param("measure", lambda value, path, parsed: parse_measure(value, parsed["system"], path))


def _bernoulli(system, marginal=WEIGHTS):
    return Bernoulli(system, measure(system.alphabet, marginal))


def _markov(system, transition=_list_of(WEIGHTS, per_symbol=True), initial=WEIGHTS.optional(None)):
    if initial is None:
        return Markov.stationary(system, transition)
    return Markov(system, transition, initial)


def _periodic_orbit(system, word=_list_of(NATURAL)):
    if any(s >= system.alphabet.order for s in word):
        raise ValueError(f"need symbols in 0..{system.alphabet.order - 1}")
    return PeriodicOrbit(system, word)


def _mixture(system, components=_list_of(Param("[rational, measure]", _component))):
    return Mixture(system, components)


def _convolution(system, left=FACTOR, right=FACTOR):
    return convolve_shift(left, right)


MEASURE_KINDS = {f.__name__[1:]: f for f in (_bernoulli, _markov, _periodic_orbit, _mixture, _convolution)}


def parse_measure(desc, system: ShiftSystem, path: str) -> ShiftMeasure:
    if desc == "haar":
        return shift_haar(system)
    return _build(MEASURE_KINDS, "kind", desc, path, {"system": system})


# -- scenario kinds ---------------------------------------------------------------------


class Kind(Record):
    """A scenario kind: `run(seed, tolerances, **parsed fields)`, its theorem tags and tolerances.

    `check(path, **parsed fields)`, if given, fails at parse time on fields
    that each parse alone but together would make `run` fail.
    """

    run: Callable[..., tuple[list[Row], dict, dict]]
    theorem: str
    tolerances: dict[str, float] = factory(dict)
    check: Callable[..., None] | None = None


def _measure_on(alphabet: str) -> Param:  # a measure on the shift over the field `alphabet`
    return Param(
        "measure",
        lambda value, path, parsed: parse_measure(value, shift_space(parsed[alphabet]), path),
    )


MEASURE = _measure_on("alphabet")


def _cocycle(value, path, parsed) -> dict:
    system, fiber = shift_space(parsed["alphabet"]), parsed["fiber"]
    if value == "first_symbol":
        if system.alphabet.order != fiber.order:
            _fail(path, "first_symbol needs matching alphabet and fiber")
        return first_symbol_cocycle(system, fiber)
    if isinstance(value, dict):
        c = _parse_fields({"constant": NATURAL}, value, path, {})["constant"]
        if c >= fiber.order:
            _fail(f"{path}.constant", "outside the fiber group")
        return constant_cocycle(system, fiber, c)
    _fail(path, "expected 'first_symbol' or {'constant': g}")


def _group_measure(value, path, parsed):
    if value == "haar":
        return haar(parsed["group"])
    if not isinstance(value, dict) or list(value) != ["weights"]:
        _fail(path, "expected 'haar' or {'weights': [...]}")
    return measure(parsed["group"], RATIONALS.parse(value["weights"], f"{path}.weights", parsed))


CERTIFICATE_FIELDS = {
    "kind": _scalar("point_mass|periodic_vs_mixing|declared",
                    lambda v: v in ("point_mass", "periodic_vs_mixing", "declared")),
    "justification": STRING.optional(""),
}


def _certificate(value, path, parsed) -> DisjointnessCertificate:
    return DisjointnessCertificate(**_parse_fields(CERTIFICATE_FIELDS, value, path, {}))


def _circle_measure(value, path, parsed):
    if value == "lebesgue":
        return lebesgue()
    if isinstance(value, dict):
        fields = _parse_fields({"periodic_atomic": Param("rational", _as_ratio)}, value, path, {})
        return periodic_atomic(times_k(parsed["k"]), fields["periodic_atomic"])
    _fail(path, "expected 'lebesgue' or {'periodic_atomic': 'p/q'}")


def _guard_at(path: str, length: int, *measures) -> None:
    """Each measure's own guard at the deepest length a run reads, checked before a table is built."""
    try:
        for mu in measures:
            mu._guard(length)
    except DepthLimitExceeded as exc:
        _fail(path, str(exc))


def _convolution_entropy(seed, tol, alphabet=GROUP, left=MEASURE, right=MEASURE, L_max=COUNT,
                         expected=NUMBER.optional(None)):
    ln_g = math.log(alphabet.order)
    conv = convolve_shift(left, right)
    est_l = entropy_rate(left, L_max)
    est_r = entropy_rate(right, L_max)
    est_c = entropy_rate(conv, L_max)
    rows = [
        bounded_row("h_left", est_l.value, 0.0, ln_g, 1e-12),
        bounded_row("h_right", est_r.value, 0.0, ln_g, 1e-12),
        bounded_row("h_convolution", est_c.value, 0.0, ln_g, 1e-12),
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
    if expected is not None:
        rows.append(
            bounded_row("h_convolution_vs_expected", est_c.value, expected, expected, tol["value"])
        )
    plots = {"h_L": [(float(i + 1), h) for i, h in enumerate(est_c.upper_bounds)]}
    estimates = {
        "left": _estimate_fields(est_l),
        "right": _estimate_fields(est_r),
        "convolution": _estimate_fields(est_c),
    }
    return rows, plots, estimates


def _convolution_depth(path, alphabet, left, right, L_max, expected):
    _guard_at(f"{path}.L_max", L_max, left, right, convolve_shift(left, right))


def _haar_maximality(seed, tol, alphabet=GROUP, measures=_list_of(MEASURE), L_max=COUNT):
    ln_g = math.log(alphabet.order)
    h_haar = entropy_rate(shift_haar(shift_space(alphabet)), L_max).value
    rows = [bounded_row("h_haar", h_haar, ln_g, ln_g, tol["haar"])]
    for i, mu in enumerate(measures):
        h = entropy_rate(mu, L_max).value
        if same_measure(mu, shift_haar(mu.system)):
            rows.append(bounded_row(f"measure_{i}_equality_case", h, ln_g, ln_g, tol["haar"]))
        else:
            rows.append(bounded_row(f"measure_{i}_gap", h, 0.0, ln_g - tol["min_gap"], 0.0))
    return rows, {}, {}


def _maximality_depth(path, alphabet, measures, L_max):
    _guard_at(f"{path}.L_max", L_max, shift_haar(shift_space(alphabet)), *measures)


def _addition_skew(alphabet, fiber, phi):
    return make_skew(shift_space(alphabet), fiber, identity_hom(fiber), phi)


def _entropy_addition(seed, tol, alphabet=GROUP, base=MEASURE, fiber=GROUP,
                      phi=Param("'first_symbol'|{'constant': int}", _cocycle), L=COUNT.optional(4)):
    rep = entropy_addition_report(_addition_skew(alphabet, fiber, phi), base, L, tol["value"])
    total = rep.base_entropy + rep.fiber_entropy
    rows = [
        bounded_row("h_base", rep.base_entropy, 0.0, math.log(alphabet.order), 1e-12),
        bounded_row("h_fiber", rep.fiber_entropy, 0.0, 0.0, 0.0),
        bounded_row("h_skew_vs_sum", rep.skew_entropy, total, total, tol["value"]),
    ]
    return rows, {}, {}


def _addition_depth(path, alphabet, base, fiber, phi, L):
    _guard_at(f"{path}.L", L, haar_extension(base, _addition_skew(alphabet, fiber, phi)).joint)


def _independence(seed, tol, group=GROUP,
                  measure=Param("'haar'|{'weights': [rational]}", _group_measure),
                  expect_independent=BOOL):
    rep = independence_check(measure)
    rows = [
        flag_row("independent_matches_expectation", rep.independent == expect_independent),
        flag_row("witness_present_iff_dependent", (rep.witness is not None) == (not rep.independent)),
    ]
    return rows, {}, {}


def _natural_extension(seed, tol, alphabet=GROUP, measure=MEASURE, L=COUNT):
    report = verify_extension(measure, L)
    ext = natural_extension(measure)
    worst = 0.0
    for length in range(1, L + 1):
        worst = max(worst, abs(block_entropy(measure, length) - block_entropy(ext, length)))
    rows = [
        flag_row("marginal_consistency", report.passed),
        bounded_row("max_block_entropy_discrepancy", worst, 0.0, 0.0, tol["entropy"]),
    ]
    return rows, {}, {}


def _extension_depth(path, alphabet, measure, L):
    # verify_extension reads the length-(L + 1) tables of the measure and its extension
    _guard_at(f"{path}.L", L + 1, measure, natural_extension(measure))


INVARIANCE_DEPTH = 6  # the depth of a convolution_ergodicity run's exact invariance check


def _convolution_ergodicity(seed, tol, alphabet=GROUP, left=MEASURE, right=MEASURE,
                            certificate=Param("{kind, justification?}", _certificate),
                            steps=_int_at_least(MIN_BIRKHOFF_STEPS).optional(10**6),
                            seed_count=COUNT.optional(100), expect_rejection=BOOL.optional(False)):
    """Theorem 4.1: two disjoint ergodic factors have an ergodic convolution.

    A factor that `is_ergodic_exact` finds non-ergodic, or an expected rejection, ends the
    run with one `rejected_with_factor_not_ergodic` row, passing when both hold; `steps`
    and `seed_count` are then validated but size nothing. Otherwise
    the rows are the convolution's exact invariance and its Birkhoff evidence over
    `default_observables` drawn from the scenario's seed.
    """
    rejected = not all(is_ergodic_exact(mu).verdict == "ergodic" for mu in (left, right))
    if expect_rejection or rejected:
        return [flag_row("rejected_with_factor_not_ergodic", expect_rejection and rejected)], {}, {}
    conv = convolve_shift(left, right)
    invariant = is_shift_invariant(conv, INVARIANCE_DEPTH)
    rep = birkhoff_report(conv, default_observables(conv.system, seed), steps, seed_count, seed,
                          tol["dispersion"])
    # a declared certificate is unverified (0), not refuted: its row passes within [0, 1]
    verified = validate_certificate(certificate, left, right)
    rows = [
        bounded_row("certificate_verified", float(verified),
                    0.0 if certificate.kind == "declared" else 1.0, 1.0, 0.0),
        flag_row("convolution_invariant_exact", invariant),
    ]
    for r in rep.rows:
        word = "".join(str(s) for s in r.word)
        # the verdict's own comparisons, so a row fails exactly when it breaks the verdict
        rows.append(Row(f"mean[{word}]", r.mean, r.exact, r.exact, r.bound, r.mean_ok))
        rows.append(Row(f"dispersion[{word}]", r.dispersion, 0.0, float(tol["dispersion"]), 0.0,
                        r.dispersion_ok))
    rows.append(flag_row("ergodic_consistent", invariant and rep.consistent))
    return rows, {}, {}


def _ergodicity_depth(path, alphabet, left, right, certificate, steps, seed_count,
                      expect_rejection):
    try:
        validate_certificate(certificate, left, right)
    except CertificateInvalid as exc:
        _fail(f"{path}.certificate", str(exc))
    # the invariance check reads the length-(INVARIANCE_DEPTH + 1) table, unless a factor's
    # rejection stops the run before it; the factors are decided only past the guard
    try:
        convolve_shift(left, right)._guard(INVARIANCE_DEPTH + 1)
    except DepthLimitExceeded as exc:
        if all(is_ergodic_exact(mu).verdict == "ergodic" for mu in (left, right)):
            _fail(f"{path}.alphabet", str(exc))


def _circle(seed, tol, k=_int_at_least(2),
            measure=Param("'lebesgue'|{'periodic_atomic': rational}", _circle_measure), L=COUNT,
            symbols=COUNT.optional(10**6), seed_count=COUNT.optional(1)):
    est = circle_entropy_report(
        times_k(k), measure, L, n_symbols=symbols, seeds=seed_count, base_seed=seed
    )
    if measure.kind == "lebesgue":
        ln_k = math.log(k)
        rows = [bounded_row("empirical_entropy_vs_ln_k", est.value, ln_k, ln_k, tol["value"])]
    else:
        rows = [bounded_row("periodic_atomic_entropy", est.value, 0.0, 0.0, 0.0)]
    plots = {"h_L": [(float(i + 1), h) for i, h in enumerate(est.upper_bounds)]}
    return rows, plots, {"entropy": _estimate_fields(est)}


def _circle_data(path, k, measure, L, symbols, seed_count):
    """The Lebesgue estimator's data requirement, checked before a symbol is drawn."""
    if measure.kind == "lebesgue":
        try:
            require_symbols(symbols, k, L)
        except InsufficientData as exc:
            _fail(f"{path}.symbols", str(exc))
        per_seed = -(-symbols // seed_count)  # the longest seed's sample
        if per_seed < L:
            _fail(f"{path}.seed_count", f"{seed_count} seeds of {symbols} symbols leave "
                  f"{per_seed} symbols per seed, fewer than L = {L}")


def _product_entropy(seed, tol, left_alphabet=GROUP, left=_measure_on("left_alphabet"),
                     right_alphabet=GROUP, right=_measure_on("right_alphabet"), L=COUNT):
    pm = product_system(left, right)
    rows = []
    for length in range(1, L + 1):
        total = block_entropy(pm, length)
        parts = block_entropy(left, length) + block_entropy(right, length)
        rows.append(bounded_row(f"H_{length}_additivity", total, parts, parts, tol["per_level"]))
    return rows, {}, {}


def _product_depth(path, left_alphabet, left, right_alphabet, right, L):
    _guard_at(f"{path}.L", L, left, right, product_system(left, right))


SCENARIO_KINDS = {
    "convolution_entropy": Kind(
        _convolution_entropy, "Lemma 2.3; Theorem 2.1; Corollary 2.2", {"value": 1e-9},
        _convolution_depth,
    ),
    "haar_maximality": Kind(
        _haar_maximality, "Corollary 3.4; Theorem 3.3", {"haar": 1e-12, "min_gap": 1e-3},
        _maximality_depth,
    ),
    "entropy_addition": Kind(_entropy_addition, "Lemma 2.2; Lemma 3.2; Lemma 3.3", {"value": 1e-9},
                             _addition_depth),
    "independence": Kind(_independence, "Lemma 3.12"),
    "natural_extension": Kind(_natural_extension, "Lemma 3.15; Theorem 3.3", {"entropy": 1e-12},
                              _extension_depth),
    "convolution_ergodicity": Kind(
        _convolution_ergodicity, "Theorem 4.1; Theorem 2.2", {"dispersion": DISPERSION_THRESHOLD},
        _ergodicity_depth,
    ),
    "circle": Kind(_circle, "Corollary 3.4; Theorem 2.2", {"value": 0.02}, _circle_data),
    "product_entropy": Kind(_product_entropy, "Lemma 2.2", {"per_level": 1e-12}, _product_depth),
}

THEOREM_TAGS = {kind: spec.theorem for kind, spec in SCENARIO_KINDS.items()}


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
        sid = sc.get("id")
        if not isinstance(sid, str) or not sid:
            _fail(f"{path}.id", "must be a nonempty string")
        if "/" in sid or "\\" in sid:  # the id is part of the plot file names
            _fail(f"{path}.id", f"{sid!r} holds a path separator")
        if sid in seen_ids:
            _fail(f"{path}.id", f"duplicate scenario id {sid!r}")
        seen_ids.add(sid)
        kind = sc.get("kind")
        if not isinstance(kind, str) or kind not in SCENARIO_KINDS:
            _fail(f"{path}.kind", f"unknown kind {kind!r}; see `ergolab list`")
        spec = SCENARIO_KINDS[kind]
        seed = NATURAL.parse(sc.get("seed", 0), f"{path}.seed")
        tol_fields = {name: NUMBER.optional(v) for name, v in spec.tolerances.items()}
        tolerances = _parse_fields(tol_fields, sc.get("tolerances", {}), f"{path}.tolerances", {})
        params = _parse_fields(
            _fields(spec.run), sc.get("parameters", {}), f"scenarios[{sid}].parameters", {}
        )
        if spec.check is not None:
            spec.check(f"scenarios[{sid}].parameters", **params)
        scenarios.append(Scenario(sid, kind, params, seed, tolerances))
    return scenarios


def run_scenario(sc: Scenario) -> ScenarioResult:
    start = time.perf_counter()
    spec = SCENARIO_KINDS[sc.kind]
    rows, plots, estimates = spec.run(sc.seed, sc.tolerances, **sc.parameters)
    elapsed = time.perf_counter() - start
    return ScenarioResult(sc, spec.theorem, rows, plots, estimates, elapsed)


def run_scenarios(scenarios: list[Scenario]) -> list[ScenarioResult]:
    return [run_scenario(sc) for sc in scenarios]


# -- report writing -----------------------------------------------------------------


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    # csv quoting lets an id with a comma or a quote round-trip through csv.reader
    with path.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def write_reports(results: list[ScenarioResult], out_path: str | Path) -> None:
    out = Path(out_path)
    header = ["scenario_id", "quantity", "value", "lower", "upper", "tolerance", "pass"]
    _write_csv(out, [header] + [
        [res.scenario.id, row.quantity, _fmt(row.value), _fmt(row.lower), _fmt(row.upper),
         _fmt(row.tolerance), "true" if row.passed else "false"]
        for res in results
        for row in res.rows
    ])

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
            _write_csv(plot_path, [["L", name]] + [[_fmt(x), _fmt(y)] for x, y in series])


def _describe(fields: dict[str, Param]) -> str:
    return ", ".join(
        f"{name}: {p.type}" if p.default is _REQUIRED else f"{name}?: {p.type} = {p.default}"
        for name, p in fields.items()
    )


def list_kinds() -> str:
    lines = ["scenario kinds (parameters):", ""]
    for kind, spec in sorted(SCENARIO_KINDS.items()):
        tols = ", ".join(f"{name} = {v}" for name, v in spec.tolerances.items())
        lines.append(kind)
        lines.append(f"    parameters: {_describe(_fields(spec.run))}")
        lines.append(f"    tolerances: {tols or 'none'}")
        lines.append(f"    theorem: {spec.theorem}")
    lines += ["", "measure kinds ('haar', or an object with a 'kind' and these fields):", ""]
    for kind, make in sorted(MEASURE_KINDS.items()):
        lines.append(kind)
        lines.append(f"    fields: {_describe(_fields(make))}")
    return "\n".join(lines)
