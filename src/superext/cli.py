"""Command-line surface: analysis, table reproduction, MLS counting.

Exit codes are a stable contract: 0 success/agree, 2 cross-check
disagreement, 3 budget exceeded, 4 input error (usage errors included).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .groups import GRAMMAR, parse_spec
from .setfam import BudgetExceeded, count_mls, enumerate_mls, write_mls_stream
from .semigroups import validate_associativity
from . import engine

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


# -- output helpers -------------------------------------------------------------------


_ROW = "{:<12} {:>11}  {:<22} {:<24} {}"


def _print_report_row(name: str, report: engine.StructureReport) -> None:
    print(
        _ROW.format(
            name,
            report.idempotents_per_min_left_ideal,
            report.max_subgroup_type,
            report.min_left_ideal_type,
            report.provenance,
        ).rstrip()
    )
    for note in report.notes:
        print(f"  ! {note}")


def _print_header() -> None:
    print(_ROW.format("group", "idempotents", "max subgroup", "minimal left ideal", "provenance"))


# -- commands -------------------------------------------------------------------------


def cmd_analyze(spec: str, brute: bool, as_json: bool, budget, seed) -> int:
    if not brute and (budget, seed) != (None, None):
        raise ValueError("--budget and --seed apply only with --brute")
    group = parse_spec(spec)
    if not brute:
        structural = engine.analyze_structural(group, spec)
        if as_json:
            print(json.dumps(structural.to_json(), indent=2, sort_keys=True))
        else:
            _print_header()
            _print_report_row(spec, structural)
        return EXIT_OK

    check = engine.cross_check(group, spec, budget=budget)
    validate_associativity(check.semigroup, samples=1000, seed=seed or 0)
    if as_json:
        doc = {
            "verdict": check.verdict,
            "structural": check.structural.to_json(),
            "brute": check.brute.to_json(),
            "merged": check.merged.to_json(),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_header()
        _print_report_row(spec + " [struct]", check.structural)
        _print_report_row(spec + " [brute]", check.brute)
        print(f"verdict: {check.verdict} (isomorphism certified: {check.isomorphism_certified})")
    return EXIT_OK if check.verdict == "agree" else EXIT_DISAGREE


def cmd_table(as_json: bool) -> int:
    rows = engine.reference_reports()
    if as_json:
        print(json.dumps([r.to_json() for _, r in rows], indent=2, sort_keys=True))
    else:
        _print_header()
        for spec, report in rows:
            _print_report_row(spec, report)
    return EXIT_OK


def cmd_mls_count(spec: str, out_path, budget) -> int:
    group = parse_spec(spec)
    count = count_mls(group, budget)
    if budget is not None and count > budget:
        print(f"count>={budget} partial=true")
        return EXIT_BUDGET
    print(f"count={count} partial=false")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            write_mls_stream(fh, group, enumerate_mls(group, budget=budget))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 4, not argparse's 2, which the
    contract gives to disagreements.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _ascii_count(name: str, text: str) -> int:
    if not (text.isascii() and text.isdigit()):  # int() also takes +81, 8_1, " 81" and Arabic-Indic digits
        raise argparse.ArgumentTypeError(f"{name} must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superext",
        description="Structure of minimal left ideals of superextensions of finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="structural (and optionally brute-force) analysis")
    p_an.add_argument("spec", help=GRAMMAR)
    p_an.add_argument("--brute", action="store_true", help="also run the brute-force route and cross-check")
    p_an.add_argument("--json", action="store_true")
    p_an.add_argument("--budget", type=partial(_ascii_count, "budget"), default=None, help="enumeration budget (systems); --brute only")
    p_an.add_argument("--seed", type=partial(_ascii_count, "seed"), default=None, help="seed for sampled invariant checks (default 0); --brute only")
    p_an.set_defaults(run=lambda a: cmd_analyze(a.spec, a.brute, a.json, a.budget, a.seed))

    p_tab = sub.add_parser("table", help="reproduce the reference table of small groups")
    p_tab.add_argument("--json", action="store_true")
    p_tab.set_defaults(run=lambda a: cmd_table(a.json))

    p_mls = sub.add_parser("mls-count", help="count maximal linked systems")
    p_mls.add_argument("spec", help=GRAMMAR)
    p_mls.add_argument("--out", default=None, help="write the signature stream to this file")
    p_mls.add_argument("--budget", type=partial(_ascii_count, "budget"), default=None)
    p_mls.set_defaults(run=lambda a: cmd_mls_count(a.spec, a.out, a.budget))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        # SpecError, GroupValidationError and JSONDecodeError are ValueErrors;
        # OSError covers a missing or unreadable file and a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        # InvariantError: an internal check failed, same class as a cross-check disagreement
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
