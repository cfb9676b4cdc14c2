"""Command-line entry point: run scenario configs, verify, list kinds."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .acceptance import format_results, run_suite
from .errors import ParseError, SchemaError
from .record import replace
from .scenarios import NATURAL, list_kinds, parse_config, run_scenarios, write_reports

log = logging.getLogger("ergolab")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="invariant measures, convolution, and entropy on group carriers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config and write reports")
    run_p.add_argument("config", help="path to the JSON scenario config")
    run_p.add_argument("--out", required=True, help="report CSV path (JSON sibling is derived)")
    run_p.add_argument("--seed", type=int, default=None, help="override every scenario seed")
    run_p.add_argument(
        "--log-level", choices=["error", "info", "debug"], default="info"
    )

    verify_p = sub.add_parser("verify", help="run the built-in acceptance suite")
    verify_p.add_argument(
        "--suite", choices=["all", "exact", "statistical"], default="all"
    )

    sub.add_parser("list", help="print scenario kinds and parameter schemas")
    return parser


def cmd_run(args) -> int:
    logging.basicConfig(level=args.log_level.upper(), format="%(levelname)s %(message)s")
    out, config = Path(args.out), Path(args.config)
    try:
        text = config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    report_json = out.with_suffix(".json")
    for report, path, what in ((report_json, out, "CSV report"), (report_json, config, "config"),
                               (out, config, "config")):
        if report.resolve() == path.resolve():
            print(f"error: the {'JSON' if report is report_json else 'CSV'} report {report} would "
                  f"overwrite the {what} {path}; choose another --out path", file=sys.stderr)
            return 2
    out_dir = out.parent
    if not out_dir.is_dir():
        print(f"error: the --out directory {out_dir} is not an existing directory", file=sys.stderr)
        return 2
    for report in (out, report_json):
        if report.is_dir():
            print(f"error: the report path {report} is a directory", file=sys.stderr)
            return 2
    try:
        scenarios = parse_config(text)
        if args.seed is not None:  # the check a config's own seed meets
            seed = NATURAL.parse(args.seed, "--seed")
            scenarios = [replace(sc, seed=seed) for sc in scenarios]
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log.info("running %d scenarios", len(scenarios))
    results = run_scenarios(scenarios)
    write_reports(results, args.out)
    for res in results:
        status = "pass" if res.passed else "FAIL"
        log.info("%s %s (%s) %.2fs", status, res.scenario.id, res.scenario.kind, res.runtime_seconds)
    all_pass = all(r.passed for r in results)
    log.info("suite verdict: %s", "pass" if all_pass else "fail")
    return 0 if all_pass else 1


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "list":
        print(list_kinds())
        return 0
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
