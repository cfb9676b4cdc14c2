"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/check_perfbench.py

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- the seeded generator ------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.SCENARIO_WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate(workload, 5)[0] != workloads.generate(workload, 6)[0]


def _shape(node):
    """The config with every drawn value (rationals, words) blanked out."""
    if isinstance(node, dict):
        return {k: _shape(v) for k, v in node.items() if k not in ("marginal", "transition", "word")}
    if isinstance(node, list):
        return [_shape(v) for v in node]
    return node


@pytest.mark.parametrize("workload", workloads.SCENARIO_WORKLOADS)
def test_seed_changes_only_rationals_and_words(workload):
    shapes = {json.dumps(_shape(json.loads(workloads.generate(workload, s)[0]))) for s in range(20)}
    assert len(shapes) == 1


def test_generated_parameters_are_bounded_and_primitive():
    for seed in range(50):
        _, specs = workloads.generate("enumerate", seed)
        for spec in specs.values():
            for factor in (spec.get("left"), spec.get("right"), spec.get("measure"),
                           *spec.get("measures", [])):
                if factor is None:
                    continue
                rows = factor.get("transition") or [factor.get("marginal") or [1]]
                for row in rows:
                    if factor["kind"] != "periodic_orbit":
                        assert sum(row) == workloads.DENOM and min(row) >= 2
                word = factor.get("word")
                if word:
                    rotations = {tuple(word[k:] + word[:k]) for k in range(len(word))}
                    assert len(rotations) == len(word)


# -- the correctness check -----------------------------------------------------------


def test_calibration_kernel_enumerates_every_word():
    assert calibrate.kernel() == 2**calibrate.LEVELS


def test_oracles_match_closed_forms():
    assert check._stationary([[check.Fraction(1, 2)] * 2] * 2) == [check.Fraction(1, 2)] * 2
    markov = {"kind": "markov", "transition": [[3, 14], [10, 7]]}
    pi = check._stationary([[check.Fraction(k, 17) for k in r] for r in markov["transition"]])
    assert pi == [check.Fraction(10, 24), check.Fraction(14, 24)]
    assert check.block_entropy(markov, 3) - check.block_entropy(markov, 2) == pytest.approx(
        check.rate(markov), abs=1e-12)


def _write_report(tmp_path, rows, trail):
    report_csv = tmp_path / "report.csv"
    lines = ["scenario_id,quantity,value,lower,upper,tolerance,pass"]
    lines += [f"conv,{q},{v},0,1,0,{p}" for q, v, p in rows]
    report_csv.write_text("\n".join(lines) + "\n")
    (tmp_path / "report.conv.h_L.csv").write_text(
        "L,h_L\n" + "".join(f"{i + 1},{h}\n" for i, h in enumerate(trail)))
    return report_csv


_SPEC = {
    "conv": {
        "kind": "convolution_entropy",
        "left": {"kind": "bernoulli", "marginal": [5, 12]},
        "right": {"kind": "periodic_orbit", "word": [0, 0, 1]},
        "L_max": 4,
    }
}
_H_LEFT = check.rate(_SPEC["conv"]["left"])


def test_known_defect_counts_as_failed_but_correct(tmp_path):
    rows = [("h_left", _H_LEFT, "true"), ("h_right", 0.0, "true"),
            ("h_convolution", 0.6, "true"), ("subadditivity", 0.6, "false")]
    v = check.check_report(_SPEC, _write_report(tmp_path, rows, [0.69, 0.65, 0.62, 0.6]))
    assert (v.attempted, v.failed, v.known, v.correct) == (4, 1, 1, True)


@pytest.mark.parametrize(
    "rows, trail",
    [
        # a wrong exact value with pass=true
        ([("h_left", _H_LEFT + 1e-6, "true"), ("h_right", 0.0, "true"),
          ("h_convolution", 0.6, "true")], [0.69, 0.65, 0.62, 0.6]),
        # an increasing h_L trail
        ([("h_left", _H_LEFT, "true"), ("h_right", 0.0, "true"),
          ("h_convolution", 0.6, "true")], [0.69, 0.65, 0.66, 0.6]),
        # a missing row
        ([("h_left", _H_LEFT, "true"), ("h_convolution", 0.6, "true")], [0.69, 0.65, 0.62, 0.6]),
    ],
)
def test_unexpected_failures_make_the_run_incorrect(tmp_path, rows, trail):
    v = check.check_report(_SPEC, _write_report(tmp_path, rows, trail))
    assert v.failed == 1 and not v.correct


def test_criterion_3_is_known_and_others_are_not():
    ok = [{"number": n, "passed": n != 3, "detail": ""} for n in range(1, 10)]
    v = check.check_criteria(ok, tuple(range(1, 10)))
    assert (v.attempted, v.failed, v.known, v.correct) == (9, 1, 1, True)
    ok[1]["passed"] = False
    assert not check.check_criteria(ok, tuple(range(1, 10))).correct


# -- tracing -------------------------------------------------------------------------


def _span_trees(spans):
    """{root index: [indices in its tree]} for (name, start, end, parent) spans."""
    root_of, trees = {}, {}
    for i, (_, _, _, parent) in enumerate(spans):
        root_of[i] = i if parent < 0 else root_of[parent]
        trees.setdefault(root_of[i], []).append(i)
    return trees


def _check_self_times(tracer):
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        assert end >= start
        if parent >= 0:
            child[parent] += end - start
    for root, members in _span_trees(tracer.spans).items():
        wall = tracer.spans[root][2] - tracer.spans[root][1]
        self_sum = sum(tracer.spans[i][2] - tracer.spans[i][1] - child[i] for i in members)
        assert all(tracer.spans[i][2] - tracer.spans[i][1] - child[i] >= -1e-9 for i in members)
        assert self_sum <= wall + 1e-9


def test_self_times_sum_to_no_more_than_wall_time_synthetic():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(2000))

    def middle():
        return [tracer.span("leaf", leaf, (), {}) for _ in range(3)]

    tracer.span("run", lambda: [tracer.span("middle", middle, (), {}) for _ in range(4)], (), {})
    assert len(tracer.spans) == 1 + 4 + 12
    _check_self_times(tracer)
    totals = tracer.total_times()
    assert sum(tracer.self_times().values()) == pytest.approx(totals["run"])


def test_traced_child_run_records_every_layer(tmp_path):
    """A small real config through child.py --trace 1; its span file obeys the same law."""
    config = {
        "scenarios": [
            {"id": "conv", "kind": "convolution_entropy", "parameters": {
                "alphabet": {"family": "cyclic", "n": 2},
                "left": {"kind": "bernoulli", "marginal": ["1/4", "3/4"]},
                "right": {"kind": "periodic_orbit", "word": [0, 1]}, "L_max": 5}},
            {"id": "ergo", "kind": "convolution_ergodicity", "parameters": {
                "alphabet": {"family": "cyclic", "n": 2},
                "left": {"kind": "bernoulli", "marginal": ["1/4", "3/4"]},
                "right": {"kind": "periodic_orbit", "word": [0, 1]},
                "certificate": {"kind": "periodic_vs_mixing"}, "steps": 10000, "seed_count": 2}},
        ]
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "enumerate", "--config", str(cfg),
         "--out", str(out), "--spawn-time", "0", "--trace", "1"],
        cwd=ROOT, check=True, timeout=120,
    )
    rep = json.loads((out / "rep.json").read_text())
    layers = rep["layers"]
    assert layers["shifts.block_distribution.convolution.self_s"] > 0
    assert layers["shifts.sample.bernoulli.self_s"] > 0
    assert layers["ergodicity.birkhoff_report.steps"] == 2 * 10000
    assert layers["entropy.block_entropy.calls"] == 3 * 5  # left, right, convolution
    assert layers["scenarios.write_reports.s"] > 0
    assert 0 < layers["shifts.block_distribution.repeat_ratio"] < 1

    tracer = tracing.Tracer()
    lines = (out / "spans.tsv").read_text().splitlines()[1:]
    for line in lines:
        index, parent, name, start, end = line.split("\t")
        tracer.spans.append((name, float(start), float(end), int(parent)))
    _check_self_times(tracer)
    run_span = next(s for s in tracer.spans if s[0] == tracing.ROOT_SPAN)
    assert run_span[2] - run_span[1] <= rep["run_s"]


def test_every_binding_is_traced(tmp_path):
    """`from .x import y` copies are rebound too (run in a fresh process)."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracing, ergolab.scenarios as sc, ergolab.entropy as en, ergolab.acceptance as ac\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "assert sc.block_entropy is en.block_entropy\n"
        "assert ac.block_entropy is en.block_entropy\n"
        "assert hasattr(en.block_entropy, '__wrapped__')\n"
        "assert hasattr(ac.CRITERIA[5], '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE), str(ROOT / "src")], check=True,
                   timeout=60)


# -- BENCHMARK.json and the report command -------------------------------------------


def test_benchmark_json_lists_every_metric_and_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [m.name for m in tracing.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        m.name: m.unit for m in tracing.LAYER_METRICS}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WORKLOADS
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}


def _fake_result(correct, trace):
    metrics = (
        {m.name: {"value": 1.0, "unit": m.unit} for m in tracing.LAYER_METRICS}
        if trace else
        {"run_s": {"value": 2.5, "unit": "s"}, "setup_s": {"value": 0.2, "unit": "s"},
         "peak_rss_mb": {"value": 50.0, "unit": "MB"}}
    )
    return {"correct": correct, "attempted": 9, "failed": 1, "metrics": metrics,
            "notes": ["workload x: 1 untraced and 1 traced repetitions in 1.0s"]}


@pytest.mark.parametrize("correct, status", [(True, 0), (False, 1)])
def test_report_prints_every_metric_and_fails_on_unexpected_failure(monkeypatch, capsys,
                                                                     correct, status):
    monkeypatch.setattr(report, "collect",
                        lambda workload, seed, seconds, trace: _fake_result(correct, trace))
    assert report.main(["--workloads", "verify_exact", "--seconds", "1"]) == status
    out = capsys.readouterr().out
    for name, unit in [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
                       ("fail_ratio", "ratio")] + [(m.name, m.unit) for m in tracing.LAYER_METRICS]:
        assert any(line.split()[:1] == [name] and unit in line.split() for line in out.splitlines()), name


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in HERE.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
