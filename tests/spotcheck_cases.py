"""Driver behaviours every analyzer shares, written once.

``spotcheck`` owns the cache, the baseline, rule-id validation and the
JSON report for all four analyzers, so each behaviour is checked by one
case function here, run once per analyzer over that analyzer's fixture
tree (:data:`CASES`).  The per-analyzer test modules call these.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.devtools.check import check_paths, main

FIXTURES = Path(__file__).parent / "fixtures"


@dataclass(frozen=True)
class Case:
    tree: Path  # the analyzer's fixture tree
    touch: str  # a file whose edit changes no contract
    rule: str  # a rule with findings in the tree ...
    count: int  # ... and how many
    # (file, old text, new text, rule, message needle): a contract edit
    # that must re-analyze every file and change that rule's findings.
    contract_edit: tuple[str, str, str, str, str] | None = None


CASES = {
    "spotlint": Case(FIXTURES / "lint", "sw006_bad.py", "SW006", 3),
    "spotgraph": Case(
        FIXTURES / "graph" / "taint_bad", "repro/core/engine.py", "SW110", 2
    ),
    "spotshape": Case(
        FIXTURES / "shape",
        "sw202_bad.py",
        "SW204",
        2,
        (
            "contracts_seam.py",
            '@shapes("(N,) f8", "(N,)", ret="()")',
            '@shapes("(N,) f4", "(N,)", ret="()")',
            "SW200",
            "f4",
        ),
    ),
    "spotunits": Case(
        FIXTURES / "units",
        "sw304_bad.py",
        "SW302",
        2,
        (
            "contracts_seam.py",
            '@units("usd/(server*hr)", "server", "hr", ret="usd")',
            '@units("usd/(server*hr)", "server", "hr", ret="usd/hr")',
            "SW301",
            # clean.py's `monthly` still declares ret="usd" while
            # accrue_cost now hands back usd/hr.
            "monthly",
        ),
    ),
}


def _copy(tmp_path: Path, case: Case) -> Path:
    dest = tmp_path / case.tree.name
    shutil.copytree(case.tree, dest)
    return dest


def _run(tree: Path, cache: Path) -> tuple[list, dict]:
    stats: dict = {}
    findings = check_paths([tree], cache_path=cache, stats=stats)
    return findings, stats


def _cli(tmp_path: Path, *argv: str) -> int:
    baseline = tmp_path / "empty-baseline.json"
    return main([*argv, "--no-cache", "--baseline", str(baseline)])


def cache_roundtrip(tmp_path: Path, tag: str) -> None:
    """Warm reruns reuse everything; an edit re-analyzes just that file."""
    dest = _copy(tmp_path, CASES[tag])
    cache = tmp_path / "cache.json"
    n_files = len(list(dest.rglob("*.py")))

    first, stats = _run(dest, cache)
    assert stats == {"extracted": n_files, "analyzed": n_files, "cached": 0}
    second, stats = _run(dest, cache)
    assert stats == {"extracted": 0, "analyzed": 0, "cached": n_files}
    assert second == first  # cached facts give identical findings

    target = dest / CASES[tag].touch
    target.write_text(target.read_text() + "\n# touched\n")
    _findings, stats = _run(dest, cache)
    assert stats == {"extracted": 1, "analyzed": 1, "cached": n_files - 1}


def cache_schema_mismatch(tmp_path: Path, tag: str) -> None:
    """A cache file of another schema is ignored, not trusted."""
    dest = _copy(tmp_path, CASES[tag])
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps({"schema": "something/9", "files": {}}))
    _findings, stats = _run(dest, cache)
    n_files = len(list(dest.rglob("*.py")))
    assert stats == {"extracted": n_files, "analyzed": n_files, "cached": 0}


def contract_edit_invalidates_everything(tmp_path: Path, tag: str) -> None:
    """Pass B is keyed by the global summary digest: editing a contract
    in one file must re-analyze every file, not just the edited one."""
    path, old, new, rule, needle = CASES[tag].contract_edit
    dest = _copy(tmp_path, CASES[tag])
    cache = tmp_path / "cache.json"
    _findings, stats = _run(dest, cache)
    n_files = stats["analyzed"]

    seam = dest / path
    assert old in seam.read_text()
    seam.write_text(seam.read_text().replace(old, new))
    findings, stats = _run(dest, cache)
    assert stats == {"extracted": 1, "analyzed": n_files, "cached": 0}
    assert any(needle in f.message for f in findings if f.rule == rule)


def update_baseline_rejects_filters(tmp_path: Path, capsys, tag: str) -> None:
    """A filtered --update-baseline would overwrite the baseline with only
    the selected subset, silently un-accepting all other findings."""
    tree = str(CASES[tag].tree)
    for flag in ("--select", "--ignore"):
        code = _cli(tmp_path, tree, flag, CASES[tag].rule, "--update-baseline")
        assert code == 2
        assert "--update-baseline" in capsys.readouterr().err


def unknown_rule_is_a_usage_error(tmp_path: Path, capsys, tag: str) -> None:
    code = _cli(tmp_path, str(CASES[tag].tree), "--select", "SW999")
    assert code == 2
    assert "SW999" in capsys.readouterr().err


def json_payload(tmp_path: Path, capsys, tag: str) -> None:
    case = CASES[tag]
    code = _cli(
        tmp_path, str(case.tree), "--select", case.rule, "--format", "json"
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "spotweb-findings/1"
    assert payload["tool"] == "spotcheck"
    assert payload["count"] == len(payload["findings"]) == case.count
    assert {f["rule"] for f in payload["findings"]} == {case.rule}
    assert payload["baselined"] == 0
    assert set(payload["cache"]) == {"extracted", "analyzed", "cached"}
