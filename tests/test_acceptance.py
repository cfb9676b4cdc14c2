"""The acceptance gate: one test per criterion, each printing its verdict line.

Run with `pytest tests/test_acceptance.py -s` to see every line, or use
`ergolab verify` for the same checks outside pytest.

Criterion 3's second clause (convergence of the periodic-convolution entropy
to within 1e-6 by depth 10) is implemented exactly as stated and is expected
to fail: the exact value of the depth-10 bound is 0.583072, which sits 2.1e-2
above the limit, and the bound contracts too slowly for any feasible depth to
reach 1e-6. The test stays faithful rather than loosened.
"""

import json

from ergolab import acceptance
from ergolab.acceptance import CRITERIA, SCENARIO_CONFIGS
from ergolab.scenarios import parse_config


def _run(number: int):
    result = CRITERIA[number]()
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} criterion {result.number}: {result.title} "
          f"[{result.seconds:.2f}s / budget {result.budget_seconds:.0f}s]\n"
          f"     {result.detail}")
    assert result.passed, result.detail
    assert result.seconds < result.budget_seconds


def test_criterion_01_invariance_algebra():
    _run(1)


def test_criterion_02_haar_absorption():
    _run(2)


def test_criterion_02_names_a_failed_group_absorption(monkeypatch):
    monkeypatch.setattr(acceptance, "convolve", lambda haar_g, mu: mu)
    result = CRITERIA[2]()
    assert not result.passed and result.detail.startswith("haar absorption failed on ")


def test_criterion_02_names_the_first_non_uniform_cylinder(monkeypatch):
    # the first target, bernoulli(3/4, 1/4), in place of its convolution with haar
    monkeypatch.setattr(acceptance, "Convolution", lambda system, haar_mu, mu: mu)
    result = CRITERIA[2]()
    assert (result.passed, result.detail) == (False, "cylinder (0,) of haar*bernoulli is 3/4")


def test_criterion_03_convolution_entropy_inequalities():
    _run(3)


def test_criterion_04_haar_maximality_strict_gap():
    _run(4)


def test_criterion_05_markov_conditional_exactness():
    _run(5)


def test_criterion_06_entropy_addition():
    _run(6)


def test_criterion_07_fiber_family_maximality():
    _run(7)


def test_criterion_08_independence_criterion():
    _run(8)


def test_criterion_09_natural_extension():
    _run(9)


def test_criterion_10_convolution_ergodicity():
    _run(10)


def test_criterion_11_circle_instance():
    _run(11)


def test_scenario_criteria_configs_parse():
    parsed = {n: parse_config(json.dumps(doc)) for n, doc in SCENARIO_CONFIGS.items()}
    assert {n: [(sc.id, sc.kind, sc.seed) for sc in scs] for n, scs in parsed.items()} == {
        10: [("evidence", "convolution_ergodicity", 41), ("control", "convolution_ergodicity", 0)],
        11: [("lebesgue", "circle", 7), ("atomic", "circle", 0)],
    }
    evidence, control = parsed[10]
    assert (evidence.parameters["steps"], evidence.parameters["seed_count"]) == (10**6, 100)
    assert control.parameters["expect_rejection"]
    lebesgue, atomic = parsed[11]
    assert (lebesgue.parameters["L"], lebesgue.parameters["symbols"]) == (12, 10**7)
    assert lebesgue.tolerances == {"value": 0.02}
    assert (atomic.parameters["measure"].kind, atomic.parameters["L"]) == ("periodic_atomic", 4)


def test_scenario_criterion_fails_naming_its_failing_row(monkeypatch):
    tight = {"scenarios": [
        {"id": "atomic", "kind": "circle", "parameters": {
            "k": 2, "measure": {"periodic_atomic": "1/3"}, "L": 2}},
        {"id": "tight", "kind": "circle", "tolerances": {"value": 0}, "parameters": {
            "k": 2, "measure": "lebesgue", "L": 2, "symbols": 1000}},
    ]}
    monkeypatch.setitem(acceptance.SCENARIO_CONFIGS, 11, tight)
    result = acceptance.criterion_11()
    assert not result.passed
    assert result.detail.startswith("1 of 2 rows passed; tight:empirical_entropy_vs_ln_k = ")
    assert result.detail.endswith("bounds [0.693147, 0.693147] +/- 0")
