"""Command-line front end: analyze, resolve, compare, verify, corpus.

Output is deterministic: JSON uses a fixed key order, corpus results are
sorted by entry id, and every number is exact.
Exit codes: 0 success, 1 usage error, 2 domain error, 3 corpus mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Optional

from .compare import not_smoother
from .errors import CorpusFormatError, GermError
from .invariants import InvariantReport, _stages, germ_report, verify_branch
from .polynomials import DEFAULT_DEGREE_CAP, parse_polynomial
from .resolution import characteristic_from_sequence, resolve_branch

_EXPECTED_KEYS = ("delta", "milnor", "monotone", "multiplicity", "tjurina")
_BUNDLED_CORPORA = ("paper_examples", "branches")


# -- rendering ---------------------------------------------------------------


def _report_payload(
    report: InvariantReport,
    law_checks: Optional[list[dict]] = None,
    theorem_chain: Optional[list[int]] = None,
) -> dict:
    char = report.characteristic
    return {
        "input": str(report.input),
        "multiplicity": report.multiplicity,
        "milnor": report.milnor,
        "tjurina": report.tjurina,
        "monotone": report.monotone,
        "differential_gap": str(report.differential_gap),
        "is_branch": report.is_branch,
        "delta": report.delta,
        "puiseux_characteristic": (
            {"m": char.m, "betas": list(char.betas)} if char is not None else None
        ),
        "multiplicity_sequence": (
            list(report.multiplicity_sequence)
            if report.multiplicity_sequence is not None
            else None
        ),
        "law_checks": law_checks,
        "theorem_chain": theorem_chain,
    }


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _report_lines(report: InvariantReport, payload: dict) -> list[str]:
    """One table row per report field, then the law checks and the theorem chain."""
    rows = dict(payload, puiseux_characteristic=report.characteristic)
    law_checks, chain = rows.pop("law_checks"), rows.pop("theorem_chain")
    width = max(map(len, rows))
    lines = [f"{key:<{width}}  {_cell(value)}" for key, value in rows.items()]
    for c in law_checks or ():
        lines.append(
            f"law check stage {c['stage']}: m={c['multiplicity']}"
            f" mu {c['mu_before']}->{c['mu_after']}"
            f" tau {c['tau_before']}->{c['tau_after']}"
            f" dmin_bound={c['dmin_bound']}"
            f" mu_drop_exact={_cell(c['mu_drop_exact'])}"
            f" tau_drop_bounded={_cell(c['tau_drop_bounded'])}"
            f" monotone_increased={_cell(c['monotone_increased'])}"
        )
    if chain is not None:
        lines.append(f"theorem chain: {chain}")
    return lines


def _emit(args: argparse.Namespace, payload: object, lines: list[str]) -> None:
    print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines))


# -- corpus handling ---------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """One line of a corpus file, already parsed."""

    id: str
    polynomial: str
    expected: dict[str, int]
    line: int


def _read_corpus_text(path: str) -> str:
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    if path in _BUNDLED_CORPORA:
        return (
            resources.files("germlab.data").joinpath(f"{path}.corpus").read_text("utf-8")
        )
    raise FileNotFoundError(f"no such corpus file or bundled corpus: {path}")


def _parse_corpus(text: str) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) not in (2, 3):
            raise CorpusFormatError(
                f"line {lineno}: expected 'id<TAB>polynomial[<TAB>key=value,...]'"
            )
        entry_id = parts[0].strip()
        poly_text = parts[1].strip()
        if not entry_id or not poly_text:
            raise CorpusFormatError(f"line {lineno}: empty id or polynomial field")
        if entry_id in seen:
            raise CorpusFormatError(f"line {lineno}: duplicate id {entry_id!r}")
        seen.add(entry_id)
        expected: dict[str, int] = {}
        if len(parts) == 3 and parts[2].strip():
            for item in parts[2].split(","):
                key, sep, value = item.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key or not value:
                    raise CorpusFormatError(
                        f"line {lineno}: malformed expectation {item.strip()!r}"
                    )
                if key not in _EXPECTED_KEYS:
                    raise CorpusFormatError(
                        f"line {lineno}: unknown invariant name {key!r}"
                    )
                try:
                    expected[key] = int(value)
                except ValueError:
                    raise CorpusFormatError(
                        f"line {lineno}: expected an integer for {key!r}, got {value!r}"
                    ) from None
        entries.append(CorpusEntry(entry_id, poly_text, expected, lineno))
    return entries


def _run_corpus_entry(entry: CorpusEntry, max_degree: int) -> dict:
    result = {
        "id": entry.id,
        "polynomial": entry.polynomial,
        "report": None,
        "error": None,
        "mismatches": [],
    }
    try:
        poly = parse_polynomial(entry.polynomial, max_degree=max_degree)
        report = germ_report(poly)
    except GermError as exc:
        result["error"] = f"line {entry.line}: {exc}"
        return result
    payload = _report_payload(report)
    result["report"] = payload
    for key in sorted(entry.expected):
        actual = payload[key]
        if actual != entry.expected[key]:
            shown = "null" if actual is None else str(actual)
            result["mismatches"].append(
                f"{key}: expected {entry.expected[key]}, got {shown}"
            )
    return result


# -- subcommands -------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.polynomial, max_degree=args.max_degree)
    report = germ_report(poly)
    payload = _report_payload(report)
    _emit(args, payload, _report_lines(report, payload))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.polynomial, max_degree=args.max_degree)
    report, checks, chain = verify_branch(poly)
    payload = _report_payload(
        report,
        law_checks=[
            {"stage": i, **asdict(check), "all_ok": check.all_ok}
            for i, check in enumerate(checks)
        ],
        theorem_chain=chain,
    )
    _emit(args, payload, _report_lines(report, payload))
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.polynomial, max_degree=args.max_degree)
    sequence = resolve_branch(poly)
    char = characteristic_from_sequence(sequence)
    _, chain = _stages(poly, sequence)
    payload = {
        "input": str(poly),
        "steps": [
            {
                "chart": step.chart,
                "direction": str(step.direction),
                "multiplicity": step.multiplicity_before,
                "strict_transform": str(step.strict_transform),
            }
            for step in sequence.steps
        ],
        "multiplicity_sequence": list(sequence.multiplicity_sequence),
        "puiseux_characteristic": {"m": char.m, "betas": list(char.betas)},
        "final_smooth": str(sequence.final_smooth),
        "theorem_chain": chain,
    }
    lines = [f"input: {poly}"]
    for number, step in enumerate(payload["steps"], 1):
        lines.append(
            f"step {number}: chart={step['chart']}"
            f" direction=\"{step['direction']}\""
            f" multiplicity={step['multiplicity']}"
            f" strict_transform=\"{step['strict_transform']}\""
        )
    lines += [
        f"multiplicity sequence: {payload['multiplicity_sequence']}",
        f"puiseux characteristic: {char}",
        f"final smooth germ: {sequence.final_smooth}",
        f"theorem chain: {chain}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    left = parse_polynomial(args.left, max_degree=args.max_degree)
    right = parse_polynomial(args.right, max_degree=args.max_degree)
    verdict = not_smoother(left, right)
    payload = {
        "left": _report_payload(verdict.left),
        "right": _report_payload(verdict.right),
        "verdict": verdict.verdict,
        "reasons": list(verdict.reasons),
    }
    lines = [f"verdict: {verdict.verdict}"]
    lines += [f"reason: {reason}" for reason in verdict.reasons]
    for side in ("left", "right"):
        r = payload[side]
        lines.append(
            f"{side + ':':<6} {r['input']}"
            f" (milnor={r['milnor']}, tjurina={r['tjurina']}, monotone={r['monotone']})"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    entries = _parse_corpus(_read_corpus_text(args.path))
    results = [_run_corpus_entry(entry, args.max_degree) for entry in entries]
    results.sort(key=lambda r: r["id"])
    errors = [r for r in results if r["error"] is not None]
    mismatched = [r for r in results if r["mismatches"]]
    payload = {
        "entries": results,
        "summary": {
            "total": len(results),
            "errors": len(errors),
            "mismatched": len(mismatched),
        },
    }
    width = max((len(r["id"]) for r in results), default=0)
    lines = []
    for r in results:
        if r["error"] is not None:
            status, notes = "ERROR", r["error"]
        elif r["mismatches"]:
            status, notes = "MISMATCH", "; ".join(r["mismatches"])
        else:
            status, notes = "ok", ""
        line = f"{r['id']:<{width}}  {status}"
        lines.append(f"{line}  {notes}" if notes else line)
    lines.append(
        f"summary: {len(results)} entries,"
        f" {len(errors)} errors, {len(mismatched)} mismatches"
    )
    _emit(args, payload, lines)
    if errors:
        return 2
    if mismatched:
        return 3
    return 0


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is for domain errors)
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="germlab",
        description="Exact invariants and blowup resolutions of plane curve germs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="table", help="output format"
    )
    common.add_argument(
        "--max-degree",
        type=int,
        default=DEFAULT_DEGREE_CAP,
        metavar="D",
        help="reject inputs of total degree above D",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, func, help_text, positionals in (
        ("analyze", _cmd_analyze, "invariants of one germ", ("polynomial",)),
        ("resolve", _cmd_resolve, "blow up a branch until smooth", ("polynomial",)),
        (
            "compare",
            _cmd_compare,
            "try to refute 'left is smoother than right'",
            ("left", "right"),
        ),
        (
            "verify",
            _cmd_verify,
            "analyze plus per-blowup law checks and the monotone chain",
            ("polynomial",),
        ),
    ):
        command = sub.add_parser(name, parents=[common], help=help_text)
        for positional in positionals:
            command.add_argument(positional)
        command.set_defaults(func=func)

    p_corpus = sub.add_parser(
        "corpus", parents=[common], help="run a corpus file and check expectations"
    )
    p_corpus.add_argument("path", help="corpus file path or bundled corpus name")
    p_corpus.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="ignored; entries run in order"
    )
    p_corpus.set_defaults(func=_cmd_corpus)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused by every later main
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GermError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
