"""Correctness check of one benchmark repetition; its counts feed `fail_ratio`.

Operations are report rows on the scenario workloads and criteria on
`verify_exact`. An operation fails if the program reports it failed, if it
is missing, or if the benchmark's own oracle rejects its value. Exact rows
are compared with oracles computed here from the drawn rationals:

- Bernoulli and Markov rates by plain closed form, which for these factors
  also equals every h_L with L >= 2 (so the reported h_{L_max});
- periodic factors have h_L = 0 once L exceeds the period;
- the `H_L` additivity rows of `product_entropy`, H_L of a stationary
  Markov factor being H(pi) + (L - 1) h;
- every reported h_L trail is nonincreasing and ends at the reported value.

Rows of the `sample` workload are judged by their verdicts only, so a change
of random stream is not counted as wrong. Known defects are counted as
failures but do not make the run incorrect: the false finite-L
`subadditivity` rows of `convolution_entropy`, and criterion 3, which fails
by design. Any other failure does.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from workloads import DENOM

TOL = 1e-9  # reports print 12 significant digits
KNOWN_ROWS = {("convolution_entropy", "subadditivity")}
KNOWN_CRITERIA = {3}


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    known: int = 0  # failures that are known defects
    problems: list[str] = field(default_factory=list)  # unexpected failures

    @property
    def correct(self) -> bool:
        return not self.problems

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.problems.extend(other.problems)


# -- oracles ---------------------------------------------------------------------


def _h(weights) -> float:
    return math.fsum(-float(w) * math.log(float(w)) for w in weights if w)


def _stationary(rows: list[list[Fraction]]) -> list[Fraction]:
    """Solve pi P = pi, sum pi = 1 by Gauss-Jordan elimination over Fraction."""
    n = len(rows)
    # unknowns pi_0..pi_{n-1}; equations (P^T - I) pi = 0 with the last replaced by sum = 1
    m = [[rows[j][i] - (1 if i == j else 0) for j in range(n)] + [Fraction(0)] for i in range(n)]
    m[-1] = [Fraction(1)] * n + [Fraction(1)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [m[i][n] for i in range(n)]


def _weights(numerators: list[int]) -> list[Fraction]:
    return [Fraction(k, DENOM) for k in numerators]


def rate(spec: dict) -> float:
    """Entropy rate of a drawn factor."""
    if spec["kind"] == "bernoulli":
        return _h(_weights(spec["marginal"]))
    if spec["kind"] == "markov":
        rows = [_weights(r) for r in spec["transition"]]
        pi = _stationary(rows)
        return math.fsum(float(p) * _h(r) for p, r in zip(pi, rows))
    if spec["kind"] == "periodic_orbit":
        return 0.0
    raise ValueError(f"no oracle for {spec['kind']}")


def block_entropy(spec: dict, length: int) -> float:
    """H_L of a drawn Bernoulli or Markov factor."""
    if spec["kind"] == "bernoulli":
        return length * rate(spec)
    rows = [_weights(r) for r in spec["transition"]]
    return _h(_stationary(rows)) + (length - 1) * rate(spec)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# -- scenario reports ------------------------------------------------------------


def read_rows(report: Path) -> dict[str, list[dict]]:
    with open(report, newline="") as fh:
        rows: dict[str, list[dict]] = {}
        for row in csv.DictReader(fh):
            rows.setdefault(row["scenario_id"], []).append(row)
    return rows


def read_trail(report: Path, scenario_id: str) -> list[float]:
    path = report.with_name(f"{report.stem}.{scenario_id}.h_L.csv")
    with open(path, newline="") as fh:
        return [float(r["h_L"]) for r in csv.DictReader(fh)]


def _value_oracles(kind: str, spec: dict) -> dict[str, tuple[float, str]]:
    """Required rows with an oracle value: {quantity: (value, what)}."""
    if kind == "convolution_entropy":
        return {
            "h_left": (rate(spec["left"]), "closed-form rate of the left factor"),
            "h_right": (rate(spec["right"]), "closed-form rate of the right factor"),
        }
    if kind == "product_entropy":
        return {
            f"H_{n}_additivity": (
                block_entropy(spec["left"], n) + block_entropy(spec["right"], n),
                f"closed-form H_{n} of the two factors",
            )
            for n in range(1, spec["L"] + 1)
        }
    if kind == "haar_maximality":
        out = {"h_haar": (math.log(spec["order"]), "ln |G|")}
        for i, m in enumerate(spec["measures"]):
            out[f"measure_{i}_gap"] = (rate(m), f"closed-form rate of measure {i}")
        return out
    if kind == "natural_extension":
        return {"max_block_entropy_discrepancy": (0.0, "zero")}
    return {}


_REQUIRED_FLAGS = {
    "convolution_entropy": ("h_convolution",),
    "natural_extension": ("marginal_consistency",),
    "convolution_ergodicity": ("certificate_verified", "convolution_invariant_exact", "ergodic_consistent"),
    "circle": ("empirical_entropy_vs_ln_k",),
}


def check_scenario(sid: str, spec: dict, rows: list[dict], report: Path) -> Verdict:
    kind = spec["kind"]
    v = Verdict()
    oracles = _value_oracles(kind, spec)
    required = set(oracles) | set(_REQUIRED_FLAGS.get(kind, ()))
    present = {r["quantity"] for r in rows}
    for quantity in sorted(required - present):
        v.attempted += 1
        v.failed += 1
        v.problems.append(f"{sid}: row {quantity} is missing")
    for row in rows:
        quantity = row["quantity"]
        v.attempted += 1
        reason = None
        if row["pass"] != "true":
            reason = "reported pass=false"
        elif quantity in oracles:
            want, what = oracles[quantity]
            got = float(row["value"])
            if not _close(got, want):
                reason = f"value {got!r} differs from the oracle {want!r} ({what})"
        elif kind == "convolution_entropy" and quantity == "h_convolution":
            reason = _check_trail(report, sid, float(row["value"]), spec["L_max"])
        if reason is None:
            continue
        v.failed += 1
        if (kind, quantity) in KNOWN_ROWS and row["pass"] != "true":
            v.known += 1
        else:
            v.problems.append(f"{sid}: {quantity} {reason}")
    return v


def _check_trail(report: Path, sid: str, value: float, l_max: int):
    try:
        trail = read_trail(report, sid)
    except OSError as exc:
        return f"h_L trail unreadable: {exc}"
    if len(trail) != l_max:
        return f"h_L trail has {len(trail)} levels, not {l_max}"
    for level, (a, b) in enumerate(zip(trail, trail[1:]), start=2):
        if b > a + TOL:
            return f"h_L trail increases at L={level}: {a!r} -> {b!r}"
    if not _close(trail[-1], value):
        return f"h_L trail ends at {trail[-1]!r}, not the reported {value!r}"
    return None


def check_report(specs: dict[str, dict], report: Path) -> Verdict:
    """Check one `write_reports` CSV against the drawn parameters."""
    total = Verdict()
    try:
        rows = read_rows(report)
    except OSError as exc:
        rows = {}
        total.problems.append(f"report unreadable: {exc}")
    for sid, spec in specs.items():
        total.merge(check_scenario(sid, spec, rows.get(sid, []), report))
    for sid in sorted(set(rows) - set(specs)):
        total.problems.append(f"report has an unknown scenario {sid!r}")
    return total


# -- acceptance criteria ---------------------------------------------------------


def check_criteria(criteria: list[dict], expected: tuple[int, ...]) -> Verdict:
    """`criteria` holds {number, passed, detail} per criterion that ran."""
    v = Verdict()
    seen = {c["number"]: c for c in criteria}
    for number in expected:
        v.attempted += 1
        c = seen.get(number)
        if c is not None and c["passed"]:
            continue
        v.failed += 1
        if c is not None and number in KNOWN_CRITERIA:
            v.known += 1
        elif c is None:
            v.problems.append(f"criterion {number} did not run")
        else:
            v.problems.append(f"criterion {number} failed: {c['detail']}")
    return v
