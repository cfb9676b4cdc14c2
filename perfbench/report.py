"""Print every benchmark metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 10] [--workloads enumerate,sample]

For each workload this makes one untraced run (the end-to-end metrics and
`fail_ratio`) and one traced run (the per-layer metrics, with the end-to-end
metric and workload each should move), through run.py. It exits 1 if the
correctness check of any run found an unexpected failure, and 2 if a run
did not complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MOVES = {m.name: m.moves for m in LAYER_METRICS}


def collect(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run run.py once; its parsed result line, or None if it failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    *notes, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["notes"] = notes
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="print every ergolab benchmark metric")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)

    status = 0
    for workload in args.workloads.split(","):
        if workload not in WORKLOADS:
            print(f"unknown workload {workload!r}", file=sys.stderr)
            return 2
        print(f"== {workload}: {WORKLOADS[workload]}")
        plain = collect(workload, args.seed, args.seconds, 0)
        traced = collect(workload, args.seed, args.seconds, 1)
        if plain is None or traced is None:
            print(f"   {workload}: a run did not complete")
            status = max(status, 2)
            continue
        for note in plain["notes"]:
            print(f"   {note}")
        for name, metric in plain["metrics"].items():
            print(f"   {name:48s} {metric['value']:>14.6g} {metric['unit']}")
        ratio = plain["failed"] / plain["attempted"]
        print(f"   {'fail_ratio':48s} {ratio:>14.6g} ratio ({plain['failed']}/{plain['attempted']})")
        print(f"   per-layer, traced ({traced['notes'][0]}):")
        for name, metric in traced["metrics"].items():
            print(f"   {name:48s} {metric['value']:>14.6g} {metric['unit']:6s} moves {MOVES[name]}")
        for note in traced["notes"]:
            if note.startswith("UNEXPECTED"):
                print(f"   traced run: {note}")
        for result in (plain, traced):
            if not result["correct"]:
                status = max(status, 1)
    if status == 1:
        print("FAIL: the correctness check found an unexpected failure (lines marked UNEXPECTED)")
    return status


if __name__ == "__main__":
    sys.exit(main())
