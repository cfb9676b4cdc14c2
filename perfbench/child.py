"""One benchmark repetition in a fresh process, as a user's CLI call would run.

Usage (started by run.py, which passes its own monotonic spawn time):

    python3 perfbench/child.py --workload enumerate --config CFG --out DIR \
        --spawn-time T --trace 0 [--setup-only]

Set-up is `import ergolab.cli` (everything the `ergolab` command imports)
plus, on the scenario workloads, `parse_config` with its `validate_only`
pass. The run is what `cmd_run` does after that (`run_scenarios`, then
`write_reports`), or what `cmd_verify --suite exact` does (`run_suite`,
then the formatted report). Results go to DIR/rep.json; with --trace 1 the
spans go to DIR/spans.tsv.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_ergolab():
    sys.path.insert(0, str(SRC))
    import ergolab
    import ergolab.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    if Path(ergolab.__file__).resolve().parent != SRC / "ergolab":
        raise SystemExit(f"imported ergolab from {ergolab.__file__}, not from {SRC}")
    return sys.modules["ergolab.scenarios"], sys.modules["ergolab.acceptance"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)

    scenarios_mod, acceptance_mod = _import_ergolab()
    tracer = None
    if args.trace:
        from tracing import ROOT_SPAN, Tracer, install

        tracer = Tracer()
        install(tracer)
    scenarios = None
    if args.config:
        scenarios = scenarios_mod.parse_config(Path(args.config).read_text())
    setup_s = time.monotonic() - args.spawn_time
    result = {"setup_s": setup_s}

    if not args.setup_only:
        run = functools.partial(_run, args.workload, scenarios, out, scenarios_mod, acceptance_mod)
        start = time.perf_counter()
        criteria = run() if tracer is None else tracer.span(ROOT_SPAN, run, (), {})
        result["run_s"] = time.perf_counter() - start
        result["criteria"] = criteria
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_values()
            tracer.write(out / "spans.tsv")
    (out / "rep.json").write_text(json.dumps(result))
    return 0


def _run(workload, scenarios, out: Path, scenarios_mod, acceptance_mod):
    """The timed part; returns the criteria verdicts on `verify_exact`, else None."""
    if workload == "verify_exact":
        results = acceptance_mod.run_suite("exact")
        (out / "verify.txt").write_text(acceptance_mod.format_results(results) + "\n")
        return [{"number": r.number, "passed": r.passed, "detail": r.detail} for r in results]
    results = scenarios_mod.run_scenarios(scenarios)
    scenarios_mod.write_reports(results, out / "report.csv")
    return None


if __name__ == "__main__":
    sys.exit(main())
