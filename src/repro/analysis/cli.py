"""``repro analyze``: run the invariant checkers and report findings.

Usage::

    repro analyze src/repro                  # human-readable report
    repro analyze src/repro --format json    # machine-readable report
    repro analyze --list-rules               # every rule + fix hint
    repro analyze --changed                  # only git-modified files
    repro analyze src/repro --checkers purity,dtype
    repro analyze src/repro --write-baseline tools/analysis_baseline.json

Exit code 0 when no unsuppressed findings remain, 1 otherwise — CI runs
this as a gating job. The default baseline is
``tools/analysis_baseline.json`` when it exists next to the analyzed
tree; the shipped baseline is empty for ``src/repro`` (real findings
get fixed, not baselined). Baseline entries that no longer suppress
anything are reported as **stale** on stderr; ``--write-baseline``
prunes them. ``--summary FILE`` appends a per-rule markdown table
(CI points it at ``$GITHUB_STEP_SUMMARY``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.core import (
    AnalysisResult,
    all_checkers,
    all_rules,
    analyze_paths,
    load_baseline,
    write_baseline,
)

_DEFAULT_BASELINE = "tools/analysis_baseline.json"
_DEFAULT_PATHS = ["src/repro"]


def _emit(text: str) -> None:
    """Print without a traceback when the reader (`| head`) hangs up."""
    try:
        print(text)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass


def _changed_files(ref: str) -> list[str]:
    """Python files changed vs ``ref`` (staged + unstaged), per git.

    Renames resolve to the *new* path; deleted files are skipped (there
    is nothing on disk to analyze). Raises ``RuntimeError`` outside a
    git checkout or on an unknown ref.
    """
    command = [
        "git",
        "diff",
        "--name-status",
        "-M",
        "-z",
        ref,
        "--",
    ]
    try:
        completed = subprocess.run(
            command, capture_output=True, check=True, text=True
        )
    except FileNotFoundError as error:  # pragma: no cover - no git binary
        raise RuntimeError("--changed requires git on PATH") from error
    except subprocess.CalledProcessError as error:
        detail = error.stderr.strip() or f"git diff {ref} failed"
        raise RuntimeError(detail) from error

    files: list[str] = []
    fields = [f for f in completed.stdout.split("\0") if f]
    index = 0
    while index < len(fields):
        status = fields[index]
        if status.startswith(("R", "C")) and index + 2 < len(fields):
            # rename/copy: STATUS, old path, new path — keep the new one
            path = fields[index + 2]
            index += 3
        elif index + 1 < len(fields):
            path = fields[index + 1]
            index += 2
        else:  # pragma: no cover - truncated git output
            break
        if status.startswith("D"):
            continue  # deleted: nothing on disk to analyze
        if path.endswith(".py") and Path(path).is_file():
            files.append(path)
    return files


def _render_human(result: AnalysisResult) -> str:
    lines = [diag.format() for diag in result.diagnostics]
    for diag in result.diagnostics:
        if diag.hint:
            index = lines.index(diag.format())
            lines[index] = f"{diag.format()}\n    hint: {diag.hint}"
    summary = (
        f"{len(result.diagnostics)} finding(s) in "
        f"{result.files_scanned} file(s)"
    )
    suppressed = result.suppressed_inline + result.suppressed_baseline
    if suppressed:
        summary += (
            f" ({result.suppressed_inline} allowed inline, "
            f"{result.suppressed_baseline} baselined)"
        )
    if result.diagnostics:
        per_rule = ", ".join(
            f"{rule}: {count}" for rule, count in result.rule_counts().items()
        )
        summary += f"\nby rule: {per_rule}"
    lines.append(summary)
    return "\n".join(lines)


def _render_json(result: AnalysisResult) -> str:
    payload = {
        "findings": [diag.to_json() for diag in result.diagnostics],
        "files_scanned": result.files_scanned,
        "suppressed_inline": result.suppressed_inline,
        "suppressed_baseline": result.suppressed_baseline,
        "stale_baseline": [list(entry) for entry in result.stale_baseline],
        "rule_counts": result.rule_counts(),
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2)


def _render_summary(result: AnalysisResult) -> str:
    """Markdown per-rule table for CI step summaries."""
    lines = ["## `repro analyze`", ""]
    if result.ok:
        lines.append(
            f"✅ clean — {result.files_scanned} file(s), "
            f"{result.suppressed_inline} inline allow(s), "
            f"{result.suppressed_baseline} baselined"
        )
    else:
        lines.append(
            f"❌ {len(result.diagnostics)} finding(s) in "
            f"{result.files_scanned} file(s)"
        )
        lines.extend(["", "| rule | findings |", "| --- | ---: |"])
        lines.extend(
            f"| `{rule}` | {count} |"
            for rule, count in result.rule_counts().items()
        )
    if result.stale_baseline:
        lines.extend(["", "⚠️ stale baseline entries:"])
        lines.extend(
            f"- `{path}`: `{rule}`" for path, rule in result.stale_baseline
        )
    return "\n".join(lines) + "\n"


def _render_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}")
        lines.append(f"    {rule.summary}")
        lines.append(f"    fix: {rule.hint}")
    return "\n".join(lines)


def analyze_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``analyze`` subcommand; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Run the AST invariant checkers (purity, determinism, dtype, "
            "contract, serialization, guards, lockorder, asyncio) "
            "over Python sources."
        ),
        epilog="See docs/dev-tooling.md for rule rationales and suppression.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        metavar="REF",
        help=(
            "analyze only Python files changed vs REF (default HEAD) per "
            "git diff; renames follow the new path, deletions are skipped"
        ),
    )
    parser.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--checkers",
        metavar="NAMES",
        help="comma-separated subset of checkers to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "baseline file of accepted findings "
            f"(default: {_DEFAULT_BASELINE} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help=(
            "write current findings as a baseline and exit 0 "
            "(stale entries are pruned: only live findings are written)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule with its fix hint and exit",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the report to FILE",
    )
    parser.add_argument(
        "--summary",
        metavar="FILE",
        help=(
            "append a per-rule markdown table to FILE (point CI at "
            "$GITHUB_STEP_SUMMARY)"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _emit(_render_rules())
        return 0

    paths = args.paths or None
    if args.changed is not None:
        if paths is not None:
            parser.error("--changed and explicit paths are mutually exclusive")
        try:
            paths = _changed_files(args.changed)
        except RuntimeError as error:
            parser.error(str(error))
        if not paths:
            _emit(f"no changed Python files vs {args.changed}")
            return 0
    elif paths is None:
        paths = list(_DEFAULT_PATHS)

    checkers = None
    if args.checkers:
        checkers = [name.strip() for name in args.checkers.split(",") if name.strip()]
        try:
            all_checkers(checkers)
        except KeyError as error:
            parser.error(str(error))

    baseline: str | None = args.baseline
    if args.no_baseline:
        baseline = None
    elif baseline is None and Path(_DEFAULT_BASELINE).is_file():
        baseline = _DEFAULT_BASELINE

    try:
        result = analyze_paths(paths, checkers=checkers, baseline=baseline)
    except FileNotFoundError as error:
        parser.error(str(error))

    if args.write_baseline:
        pruned = ""
        if result.stale_baseline:
            count = len(result.stale_baseline)
            noun = "entry" if count == 1 else "entries"
            pruned = f" (pruned {count} stale baseline {noun})"
        write_baseline(args.write_baseline, result.diagnostics)
        print(
            f"wrote baseline with {len(result.diagnostics)} finding(s) to "
            f"{args.write_baseline}{pruned}"
        )
        return 0

    for path, rule in result.stale_baseline:
        print(
            f"warning: stale baseline entry {path}: {rule} suppresses "
            f"nothing — prune it with --write-baseline",
            file=sys.stderr,
        )

    report = (
        _render_json(result) if args.format == "json" else _render_human(result)
    )
    _emit(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(_render_summary(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(analyze_main())
