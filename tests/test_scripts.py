"""Smoke tests of the command-line scripts, each `main()` run in-process on small inputs."""

import csv
import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name: str, *args: str) -> int:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return module.main()


def test_circle_coding_of_a_rational_start(monkeypatch, tmp_path):
    out = tmp_path / "orbit.txt"
    assert run_script(monkeypatch, "circle_coding", "--x0", "1/3", "--symbols", "12",
                      "--out", str(out)) == 0
    assert out.read_text() == "01" * 6 + "\n"


def test_circle_coding_of_lebesgue_blocks(monkeypatch, tmp_path):
    out = tmp_path / "blocks.txt"
    assert run_script(monkeypatch, "circle_coding", "--k", "3", "--symbols", "100",
                      "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert [len(line) for line in lines] == [40, 40, 20]
    assert set("".join(lines)) <= set("012")


def test_sample_words_from_a_bernoulli_descriptor(monkeypatch, tmp_path):
    out = tmp_path / "words.txt"
    desc = '{"kind": "bernoulli", "marginal": ["3/4", "1/4"]}'
    assert run_script(monkeypatch, "sample_words", desc, "--length", "50", "--count", "2",
                      "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert [len(line) for line in lines] == [50, 50]
    assert set("".join(lines)) <= set("01") and lines[0] != lines[1]


def test_convolution_entropy_curve(monkeypatch, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run_script(monkeypatch, "convolution_entropy_curve", "--L-max", "6",
                      "--out", str(out)) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["L", "h_L"] and [r[0] for r in rows[1:]] == [str(i) for i in range(1, 7)]
    curve = [float(h) for _, h in rows[1:]]
    # B(1/4) * periodic('01') has P([1]) = 1/2, and h_L falls toward h(1/4)
    assert curve[0] == pytest.approx(math.log(2), rel=1e-11)
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert curve[-1] > -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert "limit (bernoulli factor rate): 0.562335145" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("sample_words", ["--length", "0"], "--length must be >= 1, got 0"),
        ("sample_words", ["--count", "-1"], "--count must be >= 0, got -1"),
        ("circle_coding", ["--symbols", "0"], "--symbols must be >= 1, got 0"),
        ("circle_coding", ["--x0", "1/3", "--symbols", "-5"], "--symbols must be >= 1, got -5"),
    ],
)
def test_scripts_refuse_a_bad_count_with_exit_2(monkeypatch, tmp_path, capsys, name, args, message):
    if name == "sample_words":
        args = ['{"kind": "bernoulli", "marginal": ["1/2", "1/2"]}', *args]
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, name, *args, "--out", str(out))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
