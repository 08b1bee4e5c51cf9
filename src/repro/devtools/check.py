"""``spotcheck`` — the one driver for the SpotWeb static analyzers.

Usage::

    python -m repro.devtools.check src/
    spotcheck src/ tests/ --exclude tests/fixtures --ignore SW003,SW007,SW008
    spotcheck src/ --format json > spotcheck-report.json
    spotcheck src/ --update-baseline
    spotcheck --list-rules
    spotcheck --layers

Exit status is 0 when no new (non-baselined) findings remain, 1 when
they do, 2 on usage errors.  Findings print as
``path:line:col: SWxxx message`` (clickable in editors, greppable in CI
logs) or, with ``--format json``, as a ``spotweb-findings/1`` payload.

Four analyzers share one rule-id namespace (:data:`ANALYZERS`):

- ``spotlint`` (:mod:`repro.devtools.rules`, SW001–SW012) — per-file rules;
- ``spotgraph`` (:mod:`repro.devtools.graph`, SW101–SW123) — layering,
  determinism taint and pmap purity over the linked project;
- ``spotshape`` (:mod:`repro.devtools.shape`, SW200–SW204) — symbolic
  shapes and dtypes against ``@shapes`` contracts;
- ``spotunits`` (:mod:`repro.devtools.units`, SW300–SW304) — units of
  measure against ``@units``/``@field_units`` contracts.

Each file is read, hashed and parsed once per run.  Pass A extracts
everything per file (spotlint findings, spotgraph facts, the shape and
unit contract summaries, suppression comments) and is cached by
``(mtime, sha256)``.  Pass B (the shape and unit interpreters) is cached
under the same file key plus one digest over both summary tables, so
editing a contract in one file re-analyzes every file.  The cache is
``.spotcheck-cache.json`` (``spotcheck-cache/1``).

Suppressions
------------
A trailing ``# spotlint: disable=SW001`` (comma-separate several ids, or
``disable=all``) silences findings on that line; ``disable-file=`` silences
the whole file.  Each tag (``spotlint``, ``spotgraph``, ``spotshape``,
``spotunits``) governs only its own analyzer's rules, and naming an id
that analyzer does not know is itself a finding (``SW009``).  Unreadable
or unparseable files are ``SW000`` findings, reported even under
``--select``/``--ignore``, so a syntax error cannot hide a file.

Baseline
--------
``spotcheck-baseline.json`` (``spotcheck-baseline/1``) records accepted
findings by fingerprint — a hash of ``rule|path|message``, deliberately
not the line, so unrelated edits do not churn it.  CI gates on "no new
findings"; ``--update-baseline`` accepts the current set (and refuses
``--select``/``--ignore``, which would silently drop accepted entries).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import re
import sys
import tokenize
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.devtools import graph, shape, units
from repro.devtools.graph.facts import ModuleFacts, Project
from repro.devtools.rules import RULES, Finding, lint_module, module_name_for
from repro.devtools.shape.summaries import (
    ModuleSummaries,
    SummaryTable,
    extract_summaries,
    summary_digest,
)
from repro.devtools.units.summaries import (
    UnitModuleSummaries,
    UnitTable,
    extract_unit_summaries,
    unit_summary_digest,
)

__all__ = [
    "ANALYZERS",
    "BASELINE_SCHEMA",
    "CACHE_SCHEMA",
    "ENGINE_RULES",
    "FINDINGS_SCHEMA",
    "RULE_OWNER",
    "build_rule_table",
    "check_paths",
    "fingerprint",
    "iter_python_files",
    "load_baseline",
    "main",
    "split_findings",
    "write_baseline",
]

CACHE_SCHEMA = "spotcheck-cache/1"
BASELINE_SCHEMA = "spotcheck-baseline/1"
FINDINGS_SCHEMA = "spotweb-findings/1"

# Driver-level pseudo-rules, shared by every analyzer's suppression tag.
ENGINE_RULES = {
    "SW000": "unreadable or syntactically invalid file",
    "SW009": "suppression comment references an unknown rule id",
}

#: (suppression tag, rule id -> summary) for each analyzer.
ANALYZERS: tuple[tuple[str, dict[str, str]], ...] = (
    ("spotlint", {rule.id: rule.summary for rule in RULES.values()}),
    ("spotgraph", graph.GRAPH_RULES),
    ("spotshape", shape.SHAPE_RULES),
    ("spotunits", units.UNIT_RULES),
)


def build_rule_table(
    analyzers: Iterable[tuple[str, dict[str, str]]] = ANALYZERS,
) -> dict[str, str]:
    """Rule id -> owning tag; a reused id would make findings ambiguous."""
    owner = dict.fromkeys(ENGINE_RULES, "engine")
    for tag, rules in analyzers:
        for rule_id in rules:
            if rule_id in owner:
                raise ValueError(
                    f"rule id {rule_id} claimed by both {owner[rule_id]} "
                    f"and {tag}"
                )
            owner[rule_id] = tag
    return owner


RULE_OWNER = build_rule_table()

_DIRECTIVES = {
    tag: re.compile(
        rf"#\s*{tag}:\s*disable(?P<scope>-file)?\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
    )
    for tag, _rules in ANALYZERS
}
_KNOWN = {
    tag: set(rules) | set(ENGINE_RULES) | {"ALL"} for tag, rules in ANALYZERS
}


# --------------------------------------------------------------------------
# Files, comments, suppressions
# --------------------------------------------------------------------------


def iter_python_files(
    paths: Iterable[Path | str],
    *,
    exclude: Iterable[Path | str] = (),
) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files.

    ``exclude`` entries (files or directory prefixes, spelled like
    ``paths``) are skipped — e.g. ``tests/`` minus the deliberately bad
    ``tests/fixtures/`` corpus.  Each file is yielded **once** even when
    the arguments overlap or reach it through a symlink: entries are
    deduplicated by resolved path, first spelling wins.
    """
    excluded = [Path(e) for e in exclude]
    seen: set[Path] = set()

    def _skip(path: Path) -> bool:
        return any(ex == path or ex in path.parents for ex in excluded)

    def _emit(path: Path) -> Iterator[Path]:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            yield path

    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for p in sorted(entry.rglob("*.py")):
                if not (
                    "__pycache__" in p.parts
                    or any(part.startswith(".") for part in p.parts)
                    or _skip(p)
                ):
                    yield from _emit(p)
        elif not _skip(entry):
            yield from _emit(entry)


def _comments(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` of every comment token (none if untokenizable)."""
    try:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []


def _scan_directives(
    comments: Iterable[tuple[int, str]],
) -> list[tuple[str, int, bool, list[str]]]:
    """``(tag, line, file_scoped, rule ids)`` per suppression comment.

    Rule ids are upper-cased; the sentinel ``ALL`` suppresses every rule
    of the tag's analyzer.
    """
    directives = []
    for line, text in comments:
        for tag, pattern in _DIRECTIVES.items():
            match = pattern.search(text)
            if match:
                rules = {
                    r.strip().upper()
                    for r in match.group("rules").split(",")
                    if r.strip()
                }
                directives.append(
                    (tag, line, bool(match.group("scope")), sorted(rules))
                )
    return directives


def _suppressed(finding: Finding, tag: str, directives) -> bool:
    return any(
        d_tag == tag
        and (file_scoped or line == finding.line)
        and ("ALL" in rules or finding.rule in rules)
        for d_tag, line, file_scoped, rules in directives
    )


def _unknown_ids(path: str, directives) -> list[Finding]:
    """SW009 for every suppressed id its tag's analyzer does not know."""
    findings = []
    for tag, line, _file_scoped, rules in directives:
        for rule_id in rules:
            finding = Finding(
                "SW009",
                path,
                line,
                0,
                f"suppression references unknown rule id `{rule_id}` "
                "(see --list-rules); it suppresses nothing",
            )
            if rule_id not in _KNOWN[tag] and not _suppressed(
                finding, tag, directives
            ):
                findings.append(finding)
    return findings


# --------------------------------------------------------------------------
# The two-pass pipeline
# --------------------------------------------------------------------------


def _read(path: Path) -> tuple[str | None, Finding | None]:
    try:
        return path.read_text(encoding="utf-8"), None
    except (OSError, UnicodeDecodeError) as exc:
        return None, Finding("SW000", str(path), 1, 0, f"unreadable file: {exc}")


def _parse(path: Path, source: str) -> tuple[ast.Module | None, Finding | None]:
    try:
        return ast.parse(source, filename=str(path)), None
    except SyntaxError as exc:
        return None, Finding(
            "SW000", str(path), exc.lineno or 1, exc.offset or 0,
            f"syntax error: {exc.msg}",
        )


def _extract(tree: ast.Module, path: Path, module: str | None, source: str) -> dict:
    """Pass A for one parsed file: the JSON-ready cache record."""
    comments = _comments(source)
    return {
        "module": module,
        "directives": _scan_directives(comments),
        "lint": [
            [f.rule, f.line, f.col, f.message]
            for f in lint_module(tree, path, module)
        ],
        "facts": graph.extract_module_facts(tree, path, module, comments).to_dict(),
        "shape": extract_summaries(tree, path, module).to_dict(),
        "units": extract_unit_summaries(tree, path, module).to_dict(),
    }


def _load_cache(cache_path: Path | None) -> dict:
    if cache_path is None or not cache_path.exists():
        return {}
    try:
        data = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    files = data.get("files") if data.get("schema") == CACHE_SCHEMA else None
    return files if isinstance(files, dict) else {}


def _save_cache(cache_path: Path | None, files: dict) -> None:
    if cache_path is None:
        return
    payload = {"schema": CACHE_SCHEMA, "files": files}
    try:
        cache_path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    except OSError:
        return  # a read-only checkout must not fail the run


def _run(
    paths: Iterable[Path | str],
    *,
    exclude: Iterable[Path | str] = (),
    cache_path: Path | str | None = None,
) -> tuple[list[Finding], Project, dict]:
    """Every finding under ``paths`` (suppressions applied), the linked
    spotgraph project, and cache counters.

    ``cache_path=None`` disables the cache.  The counters are
    ``extracted`` (files whose pass A ran), ``analyzed`` (pass B ran) and
    ``cached`` (pass B reused).
    """
    cache_file = Path(cache_path) if cache_path is not None else None
    cached = _load_cache(cache_file)
    visited: dict[str, dict] = {}
    entries: list[tuple[Path, dict, str | None, ast.Module | None]] = []
    findings: list[Finding] = []
    stats = {"extracted": 0, "analyzed": 0, "cached": 0}

    for path in iter_python_files(paths, exclude=exclude):
        key = str(path.resolve())
        try:
            mtime = path.stat().st_mtime_ns
        except OSError:
            mtime = -1
        record = cached.get(key)
        source = tree = None
        if record is None or record.get("mtime") != mtime:
            source, unreadable = _read(path)
            if unreadable is not None:
                findings.append(unreadable)
                entries.append((path, {"module": module_name_for(path)}, None, None))
                continue
            digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            if record is not None and record.get("sha256") == digest:
                record = dict(record, mtime=mtime)
            else:
                module = module_name_for(path)
                tree, error = _parse(path, source)
                record = (
                    {"module": module, "error": [error.line, error.col, error.message]}
                    if tree is None
                    else _extract(tree, path, module, source)
                )
                record.update(mtime=mtime, sha256=digest)
                stats["extracted"] += 1
        visited[key] = record
        entries.append((path, record, source, tree))

    parsed = [(path, record) for path, record, _s, _t in entries if "facts" in record]
    project = Project(
        ModuleFacts.from_dict(record["facts"], str(path))
        if "facts" in record
        # An unparseable module still exists for layering and cycles.
        else ModuleFacts(str(path), record["module"], (), (), ())
        for path, record, _s, _t in entries
    )
    shape_table = SummaryTable(
        ModuleSummaries.from_dict(record["shape"]) for _p, record in parsed
    )
    unit_table = UnitTable(
        UnitModuleSummaries.from_dict(record["units"]) for _p, record in parsed
    )
    pass_b_key = summary_digest(shape_table) + unit_summary_digest(unit_table)

    directives: dict[str, list] = {}
    for path, record, source, tree in entries:
        str_path = str(path)
        if record.get("error") is not None:
            line, col, message = record["error"]
            findings.append(Finding("SW000", str_path, line, col, message))
        if "facts" not in record:
            continue
        pass_b = record.get("pass_b")
        if pass_b is not None and pass_b["key"] == pass_b_key:
            stats["cached"] += 1
        else:
            if tree is None:
                # Pass A came from the cache; this is the run's one parse.
                if source is None:
                    source, problem = _read(path)
                if source is not None:
                    tree, problem = _parse(path, source)
                if tree is None:
                    findings.append(problem)
                    continue
            module = record["module"]
            pass_b = {
                "key": pass_b_key,
                "findings": [
                    [f.rule, f.line, f.col, f.message]
                    for f in (
                        *shape.analyze_module(tree, path, shape_table, module),
                        *units.analyze_module(tree, path, unit_table, module),
                    )
                ],
            }
            record["pass_b"] = pass_b
            stats["analyzed"] += 1
        directives[str_path] = record["directives"]
        findings.extend(_unknown_ids(str_path, record["directives"]))
        findings.extend(
            Finding(rule, str_path, line, col, message)
            for rule, line, col, message in (*record["lint"], *pass_b["findings"])
        )
    findings.extend(graph.analyze_project(project))

    # Keep the records of files outside this run (say, `src/` after
    # `src/ tests/`) so alternating scopes share one cache.
    kept = {
        key: record
        for key, record in cached.items()
        if key not in visited and Path(key).exists()
    }
    _save_cache(cache_file, {**kept, **visited})
    unsuppressed = {
        f
        for f in findings
        if not _suppressed(f, RULE_OWNER[f.rule], directives.get(f.path, ()))
    }
    ordered = sorted(
        unsuppressed, key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
    )
    return ordered, project, stats


def check_paths(
    paths: Iterable[Path | str],
    *,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    exclude: Iterable[Path | str] = (),
    cache_path: Path | str | None = None,
    stats: dict | None = None,
) -> list[Finding]:
    """Every unsuppressed finding under ``paths`` (no baseline applied).

    ``select``/``ignore`` keep/drop rule ids; SW000 always stays.  The
    result is sorted ``(path, line, col, rule)``, so output is identical
    across argument orders.  ``stats`` (when given) receives the cache
    counters of :func:`_run`.
    """
    findings, _project, counters = _run(
        paths, exclude=exclude, cache_path=cache_path
    )
    if stats is not None:
        stats.update(counters)
    return [
        f
        for f in findings
        if f.rule == "SW000"
        or (
            (select is None or f.rule in select)
            and (ignore is None or f.rule not in ignore)
        )
    ]


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------


def fingerprint(finding: Finding) -> str:
    """Stable 16-hex-digit id for one finding (line-number independent)."""
    path = Path(finding.path).as_posix()
    payload = f"{finding.rule}|{path}|{finding.message}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _read_baseline(path: Path | str) -> dict:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"unreadable baseline {path}: {exc}") from exc
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline {path} has schema {data.get('schema')!r}; "
            f"expected {BASELINE_SCHEMA!r}"
        )
    return data


def load_baseline(path: Path | str | None) -> set[str]:
    """The accepted fingerprints in ``path`` (empty for missing files)."""
    if path is None or not Path(path).exists():
        return set()
    return {
        entry["fingerprint"]
        for entry in _read_baseline(path).get("findings", [])
        if isinstance(entry, dict) and "fingerprint" in entry
    }


def write_baseline(path: Path | str, findings: Iterable[Finding]) -> None:
    """Accept ``findings`` into the baseline at ``path``.

    Entries keep the readable ``rule``/``path``/``message`` next to the
    fingerprint so a reviewer sees exactly what debt is accepted; an
    existing file's ``justification`` is carried over.
    """
    justification = "accepted by --update-baseline; burn down, do not grow"
    if Path(path).exists():
        justification = _read_baseline(path).get("justification", justification)
    entries = {
        fingerprint(f): {
            "fingerprint": fingerprint(f),
            "rule": f.rule,
            "path": Path(f.path).as_posix(),
            "message": f.message,
        }
        for f in findings
    }
    payload = {
        "schema": BASELINE_SCHEMA,
        "justification": justification,
        "findings": sorted(
            entries.values(),
            key=lambda e: (e["path"], e["rule"], e["fingerprint"]),
        ),
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def split_findings(
    findings: Iterable[Finding], baseline: set[str]
) -> tuple[list[Finding], list[Finding]]:
    """Partition into (new, baselined) against accepted fingerprints."""
    new: list[Finding] = []
    accepted: list[Finding] = []
    for finding in findings:
        (accepted if fingerprint(finding) in baseline else new).append(finding)
    return new, accepted


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def _rule_set(spec: str | None) -> set[str] | None:
    if spec is None:
        return None
    return {part.strip().upper() for part in spec.split(",") if part.strip()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotcheck",
        description=(
            "Static analysis for the SpotWeb reproduction: lint rules, "
            "import layering and determinism taint, array shapes, and "
            "units of measure."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--select", metavar="RULES", help="comma-separated rule IDs to keep"
    )
    parser.add_argument(
        "--ignore", metavar="RULES", help="comma-separated rule IDs to drop"
    )
    parser.add_argument(
        "--exclude", metavar="PATH", action="append", default=[],
        help="file or directory to skip (repeatable)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--baseline", metavar="FILE", default="spotcheck-baseline.json",
        help="accepted-findings file (missing file = empty baseline)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="accept all current findings into --baseline and exit 0",
    )
    parser.add_argument(
        "--cache", metavar="FILE", default=".spotcheck-cache.json",
        help="analysis cache file",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the cache")
    parser.add_argument(
        "--layers", action="store_true",
        help="print the declared layer map (plus observed deps) and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-finding output"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for tag, rules in ANALYZERS:
            for rule_id, summary in sorted(rules.items()):
                print(f"{rule_id}  {tag:<9}  {summary}")
        for rule_id, summary in sorted(ENGINE_RULES.items()):
            print(f"{rule_id}  {'engine':<9}  {summary}")
        return 0
    select, ignore = _rule_set(args.select), _rule_set(args.ignore)
    unknown = ((select or set()) | (ignore or set())) - set(RULE_OWNER)
    if unknown:
        print(
            f"spotcheck: unknown rule id(s): {', '.join(sorted(unknown))}"
            " (see --list-rules)",
            file=sys.stderr,
        )
        return 2
    if args.update_baseline and (select is not None or ignore is not None):
        print(
            "spotcheck: --update-baseline cannot be combined with "
            "--select/--ignore; the baseline must cover the unfiltered "
            "finding set",
            file=sys.stderr,
        )
        return 2

    stats: dict = {}
    cache_path = None if args.no_cache else args.cache
    if args.layers:
        _findings, project, _stats = _run(
            args.paths, exclude=args.exclude, cache_path=cache_path
        )
        print(graph.render_layer_map(project))
        return 0
    findings = check_paths(
        args.paths,
        select=select,
        ignore=ignore,
        exclude=args.exclude,
        cache_path=cache_path,
        stats=stats,
    )
    if args.update_baseline:
        write_baseline(args.baseline, findings)
        print(
            f"spotcheck: baseline updated with {len(findings)} finding(s) "
            f"-> {args.baseline}",
            file=sys.stderr,
        )
        return 0
    try:
        new, accepted = split_findings(findings, load_baseline(args.baseline))
    except ValueError as exc:
        print(f"spotcheck: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = {
            "schema": FINDINGS_SCHEMA,
            "tool": "spotcheck",
            "count": len(new),
            "baselined": len(accepted),
            "cache": stats,
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                }
                for f in new
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.quiet:
        for finding in new:
            print(finding.format())
    suffix = f" ({len(accepted)} baselined)" if accepted else ""
    if new:
        print(f"spotcheck: {len(new)} new finding(s){suffix}", file=sys.stderr)
        return 1
    if not args.quiet and args.format == "text":
        print(f"spotcheck: clean{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
