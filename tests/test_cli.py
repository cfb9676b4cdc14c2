import copy
import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ergolab import scenarios
from ergolab.cli import main
from ergolab.scenarios import THEOREM_TAGS, list_kinds, parse_config, run_scenarios
from ergolab.errors import ParseError, SchemaError


DEMO = {
    "suite": "demo",
    "scenarios": [
        {
            "id": "conv",
            "kind": "convolution_entropy",
            "parameters": {
                "alphabet": {"family": "cyclic", "n": 2},
                "left": {"kind": "bernoulli", "marginal": ["3/4", "1/4"]},
                "right": {"kind": "bernoulli", "marginal": ["3/4", "1/4"]},
                "L_max": 5,
                "expected": 0.6615632381579821,
            },
            "seed": 7,
            "tolerances": {"value": 1e-9},
        },
        {
            "id": "ext",
            "kind": "natural_extension",
            "parameters": {
                "alphabet": {"family": "cyclic", "n": 2},
                "measure": {
                    "kind": "markov",
                    "transition": [["2/3", "1/3"], ["1/3", "2/3"]],
                },
                "L": 5,
            },
        },
        {
            "id": "addition",
            "kind": "entropy_addition",
            "parameters": {
                "alphabet": {"family": "cyclic", "n": 2},
                "base": {"kind": "bernoulli", "marginal": ["3/4", "1/4"]},
                "fiber": {"family": "cyclic", "n": 2},
                "phi": "first_symbol",
                "L": 3,
            },
        },
        {
            "id": "product",
            "kind": "product_entropy",
            "parameters": {
                "left_alphabet": {"family": "cyclic", "n": 2},
                "left": {"kind": "bernoulli", "marginal": ["3/4", "1/4"]},
                "right_alphabet": {"family": "cyclic", "n": 2},
                "right": "haar",
                "L": 4,
            },
        },
        {
            "id": "circle-atomic",
            "kind": "circle",
            "parameters": {"k": 2, "measure": {"periodic_atomic": "1/3"}, "L": 4},
        },
        {
            "id": "ergo-control",
            "kind": "convolution_ergodicity",
            "parameters": {
                "alphabet": {"family": "cyclic", "n": 2},
                "left": {"kind": "bernoulli", "marginal": ["3/4", "1/4"]},
                "right": {
                    "kind": "mixture",
                    "components": [
                        ["1/2", {"kind": "bernoulli", "marginal": ["3/4", "1/4"]}],
                        ["1/2", {"kind": "bernoulli", "marginal": ["1/4", "3/4"]}],
                    ],
                },
                "certificate": {"kind": "declared", "justification": "control"},
                "steps": 10000,
                "seed_count": 2,
                "expect_rejection": True,
            },
        },
    ],
}


def write_demo(tmp_path: Path, doc=None) -> Path:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc if doc is not None else DEMO))
    return cfg


def test_run_demo_config_passes(tmp_path):
    cfg = write_demo(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario_id,quantity,value,lower,upper,tolerance,pass"
    assert all(line.endswith(",true") for line in lines[1:])
    meta = json.loads(out.with_suffix(".json").read_text())
    assert meta["suite_verdict"] == "pass"
    assert {s["kind"] for s in meta["scenarios"]} == {
        "convolution_entropy",
        "natural_extension",
        "entropy_addition",
        "product_entropy",
        "circle",
        "convolution_ergodicity",
    }
    # every scenario carries a theorem traceability tag
    assert all(s["theorem"] for s in meta["scenarios"])
    # plot data for the h_L curve
    plot = out.with_name("report.conv.h_L.csv")
    assert plot.exists()
    assert plot.read_text().splitlines()[0] == "L,h_L"


def test_reports_byte_identical_for_same_config_and_seed(tmp_path):
    cfg = write_demo(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (
        out1.with_name("a.conv.h_L.csv").read_bytes()
        == out2.with_name("b.conv.h_L.csv").read_bytes()
    )


GOLDEN = Path(__file__).parent / "data"


def test_demo_reports_match_golden_bytes(tmp_path):
    # the golden copies pin the CSV and plot bytes across commits, not just runs
    cfg = write_demo(tmp_path)
    assert main(["run", str(cfg), "--out", str(tmp_path / "report.csv")]) == 0
    for name in ("report.csv", "report.conv.h_L.csv", "report.circle-atomic.h_L.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / f"demo_{name}").read_bytes(), name


def test_row_failure_gives_exit_1(tmp_path):
    doc = json.loads(json.dumps(DEMO))
    doc["scenarios"] = [doc["scenarios"][0]]
    doc["scenarios"][0]["parameters"]["expected"] = 0.9  # deliberately wrong
    cfg = write_demo(tmp_path, doc)
    out = tmp_path / "report.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert any(line.endswith(",false") for line in out.read_text().splitlines()[1:])


def test_malformed_json_gives_exit_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"scenarios": [')
    assert main(["run", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2


def test_run_refuses_to_overwrite_its_config(tmp_path, capsys):
    cfg = write_demo(tmp_path)
    before = cfg.read_bytes()
    assert main(["run", str(cfg), "--out", str(tmp_path / "config.csv")]) == 2
    assert "overwrite the config" in capsys.readouterr().err
    assert cfg.read_bytes() == before
    assert not (tmp_path / "config.csv").exists()


def test_schema_error_names_the_field(tmp_path):
    doc = {"scenarios": [{"id": "x", "kind": "circle", "parameters": {"k": 2, "L": 3}}]}
    with pytest.raises(SchemaError, match=r"scenarios\[x\].parameters"):
        parse_config(json.dumps(doc))
    cfg = write_demo(tmp_path, doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2


def test_duplicate_ids_rejected():
    doc = {
        "scenarios": [
            {"id": "same", "kind": "independence",
             "parameters": {"group": {"family": "cyclic", "n": 2}, "measure": "haar",
                            "expect_independent": True}},
            {"id": "same", "kind": "independence",
             "parameters": {"group": {"family": "cyclic", "n": 2}, "measure": "haar",
                            "expect_independent": True}},
        ]
    }
    with pytest.raises(SchemaError, match="duplicate"):
        parse_config(json.dumps(doc))


def test_probabilities_must_be_rational_strings():
    doc = {
        "scenarios": [
            {
                "id": "f",
                "kind": "convolution_entropy",
                "parameters": {
                    "alphabet": {"family": "cyclic", "n": 2},
                    "left": {"kind": "bernoulli", "marginal": [0.75, 0.25]},
                    "right": "haar",
                    "L_max": 3,
                },
            }
        ]
    }
    with pytest.raises(SchemaError, match="rational strings"):
        parse_config(json.dumps(doc))


C2 = {"family": "cyclic", "n": 2}
BERN = {"kind": "bernoulli", "marginal": ["3/4", "1/4"]}

# For each kind: parameters and tolerances that set every field the kind reads, optional
# ones included, and between them every measure kind and measure field.
FULL = {
    "convolution_entropy": (
        {"alphabet": C2, "left": BERN, "right": "haar", "L_max": 3,
         "expected": 0.6931471805599453},
        {"value": 1e-9},
    ),
    "haar_maximality": (
        {"alphabet": C2, "L_max": 3, "measures": [
            BERN,
            "haar",
            {"kind": "mixture", "components": [["1/2", BERN], ["1/2", "haar"]]},
            {"kind": "convolution", "left": BERN, "right": BERN},
        ]},
        {"haar": 1e-12, "min_gap": 1e-3},
    ),
    "entropy_addition": (
        {"alphabet": C2, "base": BERN, "fiber": C2, "phi": "first_symbol", "L": 3},
        {"value": 1e-9},
    ),
    "independence": ({"group": C2, "measure": "haar", "expect_independent": True}, {}),
    "natural_extension": (
        {"alphabet": C2, "L": 3, "measure": {
            "kind": "markov",
            "transition": [["2/3", "1/3"], ["1/3", "2/3"]],
            "initial": ["1/2", "1/2"],
        }},
        {"entropy": 1e-12},
    ),
    "convolution_ergodicity": (
        {"alphabet": C2, "left": BERN, "right": {"kind": "periodic_orbit", "word": [0, 1]},
         "certificate": {"kind": "periodic_vs_mixing", "justification": "Bernoulli vs a 2-cycle"},
         "steps": 10000, "seed_count": 2, "expect_rejection": False},
        {"dispersion": 5e-3},
    ),
    "circle": (
        {"k": 2, "measure": "lebesgue", "L": 3, "symbols": 4000, "seed_count": 2},
        {"value": 0.05},
    ),
    "product_entropy": (
        {"left_alphabet": C2, "left": BERN, "right_alphabet": {"family": "cyclic", "n": 3},
         "right": "haar", "L": 2},
        {"per_level": 1e-12},
    ),
}


def full_config(kind: str, **changes) -> dict:
    """The FULL scenario of `kind`, with `changes` merged into its top-level entries."""
    params, tols = copy.deepcopy(FULL[kind])
    scenario = {"id": "s", "kind": kind, "parameters": params, "tolerances": tols}
    for key, value in changes.items():
        if isinstance(value, dict) and key in scenario:
            scenario[key].update(value)
        else:
            scenario[key] = value
    return {"scenarios": [scenario]}


def kind_blocks(text: str) -> dict[str, str]:
    """Each kind's indented block of `ergolab list` text."""
    blocks = re.split(r"^(\w+)\n", text, flags=re.MULTILINE)
    return dict(zip(blocks[1::2], blocks[2::2]))


def test_list_output_stable_and_complete():
    text = list_kinds()
    assert "convolution_ergodicity" in text
    assert "entropy_addition" in text and "parameters:" in text
    assert text == list_kinds()
    blocks = kind_blocks(text)
    assert set(FULL) == set(THEOREM_TAGS) <= set(blocks)
    for kind, (params, tols) in FULL.items():
        (sc,) = parse_config(json.dumps(full_config(kind)))
        # nothing was left to a default: the config sets every field the kind reads
        assert set(sc.parameters) == set(params) and set(sc.tolerances) == set(tols), kind
        assert run_scenarios([sc])[0].rows, kind
        parameters_line, tolerances_line = blocks[kind].splitlines()[:2]
        for name in params:
            assert re.search(rf"\b{name}\??: ", parameters_line), (kind, name)
        for name in tols:
            assert f"{name} = " in tolerances_line, (kind, name)
    for kind, fields in [("bernoulli", ["marginal"]), ("markov", ["transition", "initial"]),
                         ("periodic_orbit", ["word"]), ("mixture", ["components"]),
                         ("convolution", ["left", "right"])]:
        for name in fields:
            assert re.search(rf"\b{name}\??: ", blocks[kind]), (kind, name)


@pytest.mark.parametrize(
    "kind, changes, message",
    [
        ("convolution_entropy", {"parameters": {"L_max": 0}}, r"\.L_max: expected int >= 1, got 0"),
        ("natural_extension", {"parameters": {"L": 0}}, r"\.L: expected int >= 1, got 0"),
        ("natural_extension", {"parameters": {"L": -1}}, r"\.L: expected int >= 1, got -1"),
        ("circle", {"parameters": {"L": 0}}, r"\.L: expected int >= 1"),
        ("circle", {"parameters": {"symbols": 0}}, r"\.symbols: expected int >= 1"),
        ("circle", {"parameters": {"seed_count": 0}}, r"\.seed_count: expected int >= 1"),
        ("product_entropy", {"parameters": {"L": 0}}, r"\.L: expected int >= 1"),
        ("convolution_ergodicity", {"parameters": {"steps": 10}}, r"\.steps: expected int >= 10000"),
        ("convolution_entropy", {"parameters": {"expected": "abc"}}, r"\.expected: expected float"),
        ("convolution_entropy", {"parameters": {"expected": True}}, r"\.expected: expected float"),
        ("circle", {"seed": -1}, r"\.seed: expected int >= 0"),
        ("natural_extension", {"parameters": {"L_max": 3}}, r"parameters: unknown field 'L_max'"),
        ("natural_extension", {"tolerances": {"entrpy": 1e-9}},
         r"tolerances: unknown field 'entrpy'; expected one of entropy"),
        ("natural_extension", {"parameters": {"measure": {"kind": "markov", "transition": [5, 5]}}},
         r"\.measure\.transition\[0\]: need a nonempty list"),
        ("natural_extension", {"parameters": {"measure": {"kind": "mixture", "components": 5}}},
         r"\.measure\.components: need a nonempty list"),
        ("circle", {"parameters": {"symbols": 1}}, r"\.symbols: 1 symbols < 100 \* 2\^3"),
        ("circle", {"parameters": {"L": 6}}, r"\.symbols: 4000 symbols < 100 \* 2\^6"),
        ("circle", {"parameters": {"symbols": 800, "seed_count": 800}},
         r"\.seed_count: 800 seeds of 800 symbols leave 1 symbols per seed, fewer than L = 3"),
        ("convolution_entropy", {"id": "a/b"}, r"scenarios\[0\]\.id: 'a/b' holds a path separator"),
        ("independence", {"parameters": {"group": {"family": "cyclic", "n": 2.7}}},
         r"\.group\.n: expected int >= 1, got 2\.7"),
        ("independence", {"parameters": {"group": {"family": "cyclic", "n": True}}},
         r"\.group\.n: expected int >= 1, got True"),
        ("independence", {"parameters": {"group": {"family": "cyclic", "n": "3"}}},
         r"\.group\.n: expected int >= 1, got '3'"),
        ("independence", {"parameters": {"group": {"family": "cyclic", "n": 2, "order": 2}}},
         r"\.group: unknown field 'order'; expected one of n"),
        ("independence", {"parameters": {"group": {"family": "explicit", "table": [[0, 1], [1.9, 0]]}}},
         r"\.group\.table\[1\]\[0\]: expected int >= 0, got 1\.9"),
        ("independence", {"parameters": {"group": {"family": "explicit", "table": [[0, 1], [1, 1]]}}},
         r"\.group: G: element 1 has no two-sided inverse"),
        ("entropy_addition", {"parameters": {"phi": {"constant": 0, "junk": 5}}},
         r"\.phi: unknown field 'junk'; expected one of constant"),
        ("convolution_ergodicity",
         {"parameters": {"certificate": {"kind": "periodic_vs_mixing", "junk": 1}}},
         r"\.certificate: unknown field 'junk'; expected one of kind, justification"),
        ("convolution_ergodicity",
         {"parameters": {"certificate": {"kind": "periodic_vs_mixing", "justification": 5}}},
         r"\.certificate\.justification: expected str, got 5"),
        ("circle", {"parameters": {"measure": {"periodic_atomic": "1/3", "junk": 1}}},
         r"\.measure: unknown field 'junk'; expected one of periodic_atomic"),
        ("convolution_ergodicity",
         {"parameters": {"right": BERN, "certificate": {"kind": "point_mass"}}},
         r"scenarios\[s\]\.parameters\.certificate: point_mass needs a factor on a single fixed point"),
        ("convolution_ergodicity", {"parameters": {"right": BERN}},
         r"scenarios\[s\]\.parameters\.certificate: periodic_vs_mixing needs a periodic orbit"),
    ],
)
def test_bad_field_fails_at_parse_time_naming_it(tmp_path, kind, changes, message):
    doc = full_config(kind, **changes)
    with pytest.raises(SchemaError, match=message):
        parse_config(json.dumps(doc))
    assert main(["run", str(write_demo(tmp_path, doc)), "--out", str(tmp_path / "r.csv")]) == 2


def test_lebesgue_circle_default_symbols_checked_at_parse_time(tmp_path):
    # the default 10^6 symbols are short of 100 * 10^5
    doc = {"scenarios": [{"id": "c", "kind": "circle",
                          "parameters": {"k": 10, "measure": "lebesgue", "L": 5}}]}
    with pytest.raises(SchemaError, match=r"\.symbols: 1000000 symbols < 100 \* 10\^5"):
        parse_config(json.dumps(doc))
    assert main(["run", str(write_demo(tmp_path, doc)), "--out", str(tmp_path / "r.csv")]) == 2
    # periodic atoms have an exact rate and draw no symbols
    doc["scenarios"][0]["parameters"]["measure"] = {"periodic_atomic": "1/3"}
    assert parse_config(json.dumps(doc))


def test_each_scenario_is_parsed_once(monkeypatch):
    calls = {"group": 0, "measure": 0}

    def counting(name, parse):
        def wrapped(*args):
            calls[name] += 1
            return parse(*args)

        return wrapped

    monkeypatch.setattr(scenarios, "parse_group", counting("group", scenarios.parse_group))
    monkeypatch.setattr(scenarios, "parse_measure", counting("measure", scenarios.parse_measure))
    parsed = parse_config(json.dumps(DEMO))
    # DEMO holds 7 group descriptors and 10 measure descriptors (a mixture counts its 2 parts)
    assert calls == {"group": 7, "measure": 10}
    assert all(r.passed for r in run_scenarios(parsed))
    assert calls == {"group": 7, "measure": 10}


def test_bogus_verify_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_seed_override(tmp_path):
    doc = {
        "scenarios": [
            {
                "id": "c",
                "kind": "circle",
                "parameters": {"k": 2, "measure": "lebesgue", "L": 5,
                               "symbols": 200000, "seed_count": 1},
                "seed": 3,
                "tolerances": {"value": 0.05},
            }
        ]
    }
    cfg = write_demo(tmp_path, doc)
    out1, out2, out3 = (tmp_path / n for n in ("s1.csv", "s2.csv", "s3.csv"))
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2), "--seed", "9"]) == 0
    assert main(["run", str(cfg), "--out", str(out3), "--seed", "9"]) == 0
    assert out2.read_bytes() == out3.read_bytes()
    assert out1.read_bytes() != out2.read_bytes()  # different sample paths


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    # the override meets the same `seed >= 0` check as a seed in the config
    cfg = write_demo(tmp_path, full_config("convolution_ergodicity"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "r.csv"), "--seed", "-1"]) == 2
    assert "--seed: expected int >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_entropy_addition_past_the_joint_guard_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the joint process's own guard, called at parse time; it used to trip mid-run
    def no_run(scenarios):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr("ergolab.cli.run_scenarios", no_run)
    cfg = write_demo(tmp_path, full_config("entropy_addition", id="deep", parameters={"L": 30}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "scenarios[deep].parameters.L: 2^30 * 2 joint block states exceed 2^24" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "kind, parameters, message",
    [
        pytest.param("convolution_entropy", {"L_max": 30}, "L_max: 2^30 block states exceed 2^24",
                     id="convolution_entropy"),
        pytest.param("haar_maximality",
                     {"alphabet": {"family": "cyclic", "n": 300}, "measures": ["haar"]},
                     "L_max: 300^3 block states exceed 2^24", id="haar_maximality"),
        # verify_extension reads length L + 1, so L = 24 is one past the guard
        pytest.param("natural_extension", {"L": 24}, "L: 2^25 block states exceed 2^24",
                     id="natural_extension"),
        pytest.param("product_entropy", {"right_alphabet": C2, "L": 20},
                     "L: 4^20 block states exceed 2^24", id="product_entropy"),
        # is_shift_invariant at depth 6 reads length 7; it used to trip mid-run with exit 1
        pytest.param("convolution_ergodicity",
                     {"alphabet": {"family": "cyclic", "n": 11}, "left": "haar"},
                     "alphabet: 11^7 block states exceed 2^24", id="convolution_ergodicity"),
        # both factors are ergodic, so a run that expects a rejection still reads length 7
        pytest.param("convolution_ergodicity",
                     {"alphabet": {"family": "cyclic", "n": 11}, "left": "haar",
                      "right": {"kind": "periodic_orbit", "word": [0, 1]}, "expect_rejection": True},
                     "alphabet: 11^7 block states exceed 2^24",
                     id="convolution_ergodicity_expecting_a_rejection"),
    ],
)
def test_depth_past_the_guard_is_a_config_error(tmp_path, capsys, monkeypatch, kind, parameters,
                                                message):
    # each measure's own guard at the run's deepest length, called at parse time
    def no_run(scenarios):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr("ergolab.cli.run_scenarios", no_run)
    cfg = write_demo(tmp_path, full_config(kind, id="deep", parameters=parameters))
    assert main(["run", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
    assert f"scenarios[deep].parameters.{message}" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_depth_at_the_guard_parses():
    for kind, parameters in [("convolution_entropy", {"L_max": 24}), ("natural_extension", {"L": 23}),
                             ("product_entropy", {"right_alphabet": C2, "L": 12}),
                             ("convolution_ergodicity",
                              {"alphabet": {"family": "cyclic", "n": 10}, "left": "haar"})]:
        assert parse_config(json.dumps(full_config(kind, parameters=parameters)))


@pytest.mark.parametrize(
    "group, message",
    [
        pytest.param({"family": "cyclic", "n": 4097},
                     "n = 4097 gives order 4097: its 4097^2 table entries exceed 2^24",
                     id="cyclic"),
        pytest.param({"family": "symmetric", "n": 9}, "symmetric group supported for 1 <= n <= 4",
                     id="symmetric"),
        pytest.param({"family": "direct_product", "left": {"family": "cyclic", "n": 100},
                      "right": {"family": "cyclic", "n": 100}},
                     "100 * 100 gives order 10000: its 10000^2 table entries exceed 2^24",
                     id="direct_product"),
    ],
)
def test_group_order_past_the_guard_is_a_config_error(tmp_path, capsys, group, message):
    # refused from the order alone, before any order^2 table is built
    cfg = write_demo(tmp_path, full_config("independence", id="big", parameters={"group": group}))
    start = time.perf_counter()
    assert main(["run", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
    assert time.perf_counter() - start < 0.1
    assert f"scenarios[big].parameters.group: {message}" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_group_order_at_the_guard_parses(monkeypatch):
    product = {"family": "direct_product", "left": {"family": "cyclic", "n": 2},
               "right": {"family": "dihedral", "n": 8}}
    assert scenarios.parse_group(product, "g").order == 32
    # 4096^2 = 2^24 entries is at the guard, not past it; a stub stands in for the slow build
    monkeypatch.setattr(scenarios, "cyclic", lambda n: scenarios.explicit_group([[0]], f"C{n}"))
    assert scenarios.parse_group({"family": "cyclic", "n": 4096}, "g").label == "C4096"


def test_expected_rejection_past_the_guard_still_runs():
    # a non-ergodic factor stops the run before the convolution's length-7 table
    parameters = {"alphabet": {"family": "cyclic", "n": 11},
                  "left": {"kind": "mixture", "components": [["1/2", "haar"],
                                                             ["1/2", {"kind": "periodic_orbit",
                                                                      "word": [0]}]]},
                  "certificate": {"kind": "declared"}, "expect_rejection": True}
    (sc,) = parse_config(json.dumps(full_config("convolution_ergodicity", parameters=parameters)))
    (result,) = run_scenarios([sc])
    assert [(r.quantity, r.passed) for r in result.rows] == [("rejected_with_factor_not_ergodic", True)]


def test_missing_out_directory_is_a_usage_error_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(scenarios):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr("ergolab.cli.run_scenarios", no_run)
    cfg = write_demo(tmp_path, full_config("independence"))
    missing = tmp_path / "missing_dir"
    assert main(["run", str(cfg), "--out", str(missing / "r.csv")]) == 2
    assert f"--out directory {missing} is not an existing directory" in capsys.readouterr().err
    assert not missing.exists()


def test_out_path_ending_in_json_is_a_usage_error_before_any_run(tmp_path, capsys, monkeypatch):
    # the JSON report would overwrite the CSV report at the same path
    def no_run(scenarios):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr("ergolab.cli.run_scenarios", no_run)
    cfg = write_demo(tmp_path, full_config("independence"))
    out = tmp_path / "r.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"JSON report {out} would overwrite the CSV report" in capsys.readouterr().err
    assert not out.exists()


def test_out_path_equal_to_the_config_is_a_usage_error_before_any_run(tmp_path, capsys,
                                                                     monkeypatch):
    # the CSV report would overwrite a config that does not end in .json
    def no_run(scenarios):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr("ergolab.cli.run_scenarios", no_run)
    cfg = tmp_path / "cfg.csv"
    cfg.write_text(json.dumps(full_config("independence")))
    before = cfg.read_bytes()
    assert main(["run", str(cfg), "--out", str(cfg)]) == 2
    assert f"CSV report {cfg} would overwrite the config {cfg}" in capsys.readouterr().err
    assert cfg.read_bytes() == before
    assert not cfg.with_suffix(".json").exists()


def test_run_debug_log_names_each_class_level_and_leaves_the_reports(tmp_path):
    # H_L of a mixture reads forward-vector classes and H_L of a Bernoulli mass types, one
    # DEBUG line a level; a fresh interpreter, because pytest's own handlers make
    # basicConfig a no-op here
    doc = full_config("convolution_entropy", parameters={
        "right": {"kind": "mixture", "components": [["1/3", BERN], ["2/3", "haar"]]}})
    del doc["scenarios"][0]["parameters"]["expected"]
    cfg = write_demo(tmp_path, doc)
    env = {**os.environ, "PYTHONPATH": str(Path(scenarios.__file__).parents[1])}
    reports, lines, types = {}, {}, {}
    for level in ("info", "debug"):
        out = tmp_path / level / "r.csv"
        out.parent.mkdir()
        run = subprocess.run([sys.executable, "-c", "import sys; from ergolab.cli import main; "
                              "sys.exit(main(sys.argv[1:]))", "run", str(cfg), "--out", str(out),
                              "--log-level", level], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        lines[level] = re.findall(r"DEBUG (\w+) classes at L=(\d+): (\d+) for (\d+) words",
                                  run.stderr)
        types[level] = re.findall(r"DEBUG (\w+) types at L=(\d+): (\d+) types in (\d+) classes "
                                  r"for (\d+) words", run.stderr)
        reports[level] = out.read_bytes(), json.loads(out.with_suffix(".json").read_text())
    # the right factor's trail, then the convolution's, itself a mixture of two Bernoullis:
    # a word's class is its last symbol and its count of ones, and every word has mass
    assert lines["info"] == []
    assert lines["debug"] == [("mixture", str(n), str(2 * n), str(2**n)) for n in (1, 2, 3)] * 2
    # the left factor's trail: a word's type is its count of ones, and its class that count
    # with its last symbol
    assert types["info"] == []
    assert types["debug"] == [("bernoulli", str(n), str(n + 1), str(2 * n), str(2**n))
                              for n in (1, 2, 3)]
    assert reports["info"][0] == reports["debug"][0]
    for _, meta in reports.values():
        for sc in meta["scenarios"]:
            sc.pop("runtime_seconds")
    assert reports["info"][1] == reports["debug"][1]


@pytest.mark.parametrize("name", ["adir", "adir.json"])
def test_out_path_that_is_a_directory_is_a_usage_error_before_any_run(tmp_path, capsys, monkeypatch, name):
    def no_run(scenarios):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr("ergolab.cli.run_scenarios", no_run)
    cfg = write_demo(tmp_path, full_config("independence"))
    (tmp_path / name).mkdir()
    assert main(["run", str(cfg), "--out", str(tmp_path / "adir")]) == 2
    assert f"report path {tmp_path / name} is a directory" in capsys.readouterr().err


def test_report_csv_quotes_an_id_with_a_comma(tmp_path):
    doc = full_config("independence", id="a,b")
    out = tmp_path / "r.csv"
    assert main(["run", str(write_demo(tmp_path, doc)), "--out", str(out)]) == 0
    with out.open(newline="") as f:
        header, *rows = csv.reader(f)
    assert all(len(row) == len(header) for row in rows)
    assert {row[0] for row in rows} == {"a,b"}
    assert out.read_bytes().startswith(b'scenario_id,quantity,value,lower,upper,tolerance,pass\n"a,b",')


def _row_passes(doc) -> dict[str, bool]:
    (result,) = run_scenarios(parse_config(json.dumps(doc)))
    return {row.quantity: row.passed for row in result.rows}


def test_dispersion_tolerance_decides_the_ergodicity_verdict():
    doc = full_config("convolution_ergodicity", seed=3, parameters={"seed_count": 3})
    for dispersion in (1e-9, 5e-3):
        doc["scenarios"][0]["tolerances"]["dispersion"] = dispersion
        passes = _row_passes(doc)
        # the rows use the verdict's own comparisons, so they fail exactly when it does
        evidence = [ok for quantity, ok in passes.items() if quantity.startswith(("mean[", "dispersion["))]
        assert passes["ergodic_consistent"] == all(evidence)
        assert passes["dispersion[0]"] == passes["ergodic_consistent"] == (dispersion == 5e-3)


def test_haar_maximality_equality_case_is_decided_by_the_measure():
    half = ["1/2", "1/2"]
    doc = full_config("haar_maximality", parameters={"measures": [
        {"kind": "markov", "transition": [half, half]},
        {"kind": "convolution", "left": {"kind": "bernoulli", "marginal": half},
         "right": {"kind": "periodic_orbit", "word": [0, 1]}},
        BERN,
    ]})
    passes = _row_passes(doc)
    assert passes == {"h_haar": True, "measure_0_equality_case": True,
                      "measure_1_equality_case": True, "measure_2_gap": True}


def test_haar_maximality_equality_case_needs_the_measure_to_be_haar():
    # 0011 has uniform 2-blocks, yet it is not Haar: its gap row fails, because
    # h_2 = ln 2 cannot show the gap at depth 2
    doc = full_config("haar_maximality", parameters={
        "L_max": 2, "measures": [{"kind": "periodic_orbit", "word": [0, 0, 1, 1]}]})
    assert _row_passes(doc) == {"h_haar": True, "measure_0_gap": False}


def test_convolution_ergodicity_accepts_convolution_factors(tmp_path):
    markov = {"kind": "markov", "transition": [["2/3", "1/3"], ["1/3", "2/3"]]}
    doc = full_config("convolution_ergodicity", seed=5, parameters={
        "left": {"kind": "convolution", "left": markov,
                 "right": {"kind": "periodic_orbit", "word": [0, 1]}},
        "right": {"kind": "convolution", "left": markov, "right": BERN},
        "certificate": {"kind": "declared"}, "steps": 10**5, "seed_count": 10})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "report.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21 and all(row["pass"] == "true" for row in rows)
    assert rows[-1]["quantity"] == "ergodic_consistent"
