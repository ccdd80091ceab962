"""Output formatting and the ``python -m repro lint`` entry point."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, TextIO

from repro.analysis.findings import Severity
from repro.analysis.framework import LintReport, all_rules, lint_paths
from repro.exceptions import ConfigurationError


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def format_human(report: LintReport, stream: TextIO) -> None:
    """One clickable line per finding plus a summary line."""
    for finding in report.findings:
        print(finding.format_human(), file=stream)
    errors = sum(
        1 for finding in report.findings if finding.severity is Severity.ERROR
    )
    warnings = len(report.findings) - errors
    summary = (
        f"checked {report.files_checked} file(s): "
        f"{errors} error(s), {warnings} warning(s)"
    )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    print(summary, file=stream)


def format_json(report: LintReport, stream: TextIO) -> None:
    """Machine-readable report (stable schema for CI annotations)."""
    payload = {
        "files_checked": report.files_checked,
        "errors": sum(
            1
            for finding in report.findings
            if finding.severity is Severity.ERROR
        ),
        "warnings": sum(
            1
            for finding in report.findings
            if finding.severity is Severity.WARNING
        ),
        "suppressed": report.suppressed,
        "findings": [finding.as_dict() for finding in report.findings],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def list_rules(stream: TextIO) -> None:
    """Print the rule catalog (code, name, severity, rationale)."""
    for rule in all_rules():
        print(f"{rule.code} {rule.name} [{rule.severity}]", file=stream)
        print(f"    {rule.rationale}", file=stream)


def add_lint_parser(
    subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    """Register the ``lint`` subcommand on the main CLI parser."""
    lint = subparsers.add_parser(
        "lint",
        help="run the repo-specific static invariant checker",
        description=(
            "Statically check the repro-specific contracts (buffer-pool "
            "I/O accounting, lower-bound contract table, engine and "
            "service loop checkpoints, WAL and lock discipline).  Exits "
            "0 when clean, 1 on errors, 2 on bad usage."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    lint.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as build-failing",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(func=run_lint)
    return lint


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` with parsed arguments."""
    if args.list_rules:
        list_rules(sys.stdout)
        return 0
    try:
        rules = all_rules(
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except ConfigurationError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    paths = [pathlib.Path(raw) for raw in args.paths]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(
            f"lint: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    report = lint_paths(paths, rules=rules)
    if args.format == "json":
        format_json(report, sys.stdout)
    else:
        format_human(report, sys.stdout)
    failing = [
        finding
        for finding in report.findings
        if finding.severity is Severity.ERROR or args.strict
    ]
    return 1 if failing else 0
