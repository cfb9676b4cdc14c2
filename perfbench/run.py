"""ergolab benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports ergolab from `src/` there.
Each repetition is a fresh process (see child.py), as a CLI call is: the
repetitions run back to back, single-threaded, until `--seconds` would be
exceeded (at least one runs). Set-up is also timed in a few extra processes
that stop once ready. The last line of standard output is one JSON object:

- `--trace 0`: `run_s`, `setup_s` and `peak_rss_mb`, each the median over the
  run's processes. `attempted` and `failed` count report rows (criteria on
  `verify_exact`); `correct` is false if any failure is not a known defect.
- `--trace 1`: the per-layer metrics of tracing.LAYER_METRICS, from traced
  repetitions that alternate with untraced ones; `trace.overhead_s` is the
  traced minus the untraced `run_s`. `attempted`, `failed` and `correct`
  come from the untraced repetitions only, because tracing can push a
  criterion past its wall-clock budget.

Every timing is scaled to a reference core speed by the calibration kernel
timed on the same pinned core around it (see calibrate.py); the raw times
and the scale factors are printed before the result line.

Generated configs go to perfbench/_work/<run>/config and reports to a
separate perfbench/_work/<run>/rep<i>: `write_reports` writes its JSON to the
`--out` path with a `.json` suffix, so `ergolab run X.json --out X.csv`
would overwrite the config X.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from check import Verdict, check_criteria, check_report  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import SCENARIO_WORKLOADS, WORKLOADS, generate  # noqa: E402

SETUP_PROBES = 5  # set-up-only processes per run, after one warm-up
CHILD_TIMEOUT_S = 150
EXACT_CRITERIA = tuple(range(1, 10))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ERGOLAB_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, config, out: Path, trace: int, setup_only: bool = False) -> dict:
    """Run child.py once and return its rep.json."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--out", str(out),
           "--trace", str(trace)]
    if config is not None:
        cmd += ["--config", str(config)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawn-time", repr(start)],
            env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition exceeded {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads((out / "rep.json").read_text())


def pin_to_one_cpu() -> None:
    """Run this process and its children on one core, the one the kernel times."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[Verdict, dict, list[str]]:
    work = HERE / "_work" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    config, specs = None, None
    if workload in SCENARIO_WORKLOADS:
        text, specs = generate(workload, seed)
        config = work / "config" / f"{workload}.json"
        config.parent.mkdir(parents=True)
        config.write_text(text)

    pin_to_one_cpu()
    spawn(workload, config, work / "warmup", 0, setup_only=True)  # fills the bytecode cache
    before = kernel_seconds()
    probes = [spawn(workload, config, work / f"setup{i}", 0, setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES)]
    after = kernel_seconds()
    setups = [s * 2 * REFERENCE_S / (before + after) for s in probes]

    verdict = Verdict()
    plain, traced = [], []
    start = time.monotonic()
    while True:
        for kind in ((1, 0) if trace else (0,)):
            out = work / f"rep{len(plain) + len(traced)}"
            before = after
            rep = spawn(workload, config, out, kind)
            after = kernel_seconds()
            rep["scale"] = 2 * REFERENCE_S / (before + after)
            if kind:
                traced.append(rep)
                continue
            plain.append(rep)
            if specs is not None:
                verdict.merge(check_report(specs, out / "report.csv"))
            else:
                verdict.merge(check_criteria(rep["criteria"], EXACT_CRITERIA))
        per_round = (time.monotonic() - start) / len(plain)
        if time.monotonic() - start + per_round > seconds:
            break

    median = statistics.median
    lines = [
        f"workload {workload}, seed {seed}: {len(plain)} untraced and {len(traced)} traced "
        f"repetitions in {time.monotonic() - start:.1f}s",
        "host speed scale per repetition: " + " ".join(f"{r['scale']:.3f}" for r in plain + traced),
        "raw run_s per repetition: " + " ".join(f"{r['run_s']:.3f}" for r in plain),
    ]
    run_s = [r["run_s"] * r["scale"] for r in plain]
    if trace:
        metrics = {}
        for m in LAYER_METRICS:
            if m.name == "trace.overhead_s":
                value = median(r["run_s"] * r["scale"] for r in traced) - median(run_s)
            elif m.name == "src.lines":
                value = src_lines()
            elif m.unit == "s":
                value = median(r["layers"][m.name] * r["scale"] for r in traced)
            else:
                value = median(r["layers"][m.name] for r in traced)
            metrics[m.name] = {"value": value, "unit": m.unit}
    else:
        setups += [r["setup_s"] * r["scale"] for r in plain]
        samples = {
            "run_s": run_s,
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        metrics = {}
        for name, values in samples.items():
            metrics[name] = {"value": median(values), "unit": END_TO_END_UNITS[name]}
            lines.append(f"{name} = {median(values):.6g} {END_TO_END_UNITS[name]} "
                         f"(median of {len(values)})")
    ratio = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    lines.append(f"fail_ratio = {ratio:.4f} ({verdict.failed}/{verdict.attempted}; "
                 f"{verdict.known} known defects)")
    lines += [f"UNEXPECTED: {p}" for p in verdict.problems]
    return verdict, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ergolab benchmark: one measured run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ergolab" / "__init__.py").is_file():
        print(f"error: no ergolab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        verdict, metrics, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
