"""The CI gate: the whole source tree must be spotlint-clean.

If this test fails, either fix the violation or — when the code is right
and the rule is wrong for that line — add a
``# spotlint: disable=SWxxx`` suppression with a reason in the adjacent
code review.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools.check import ENGINE_RULES, check_paths, main
from repro.devtools.rules import RULES

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def test_src_tree_is_spotlint_clean(spotcheck_cache):
    findings = check_paths(
        [SRC], select=set(RULES) | set(ENGINE_RULES), cache_path=spotcheck_cache
    )
    report = "\n".join(f.format() for f in findings)
    assert not findings, f"spotlint found violations:\n{report}"


def test_cli_gate_exit_codes(capsys, monkeypatch, spotcheck_cache):
    # Baseline fingerprints hash repo-relative paths: run as CI does.
    monkeypatch.chdir(REPO)
    assert main(["src", "--cache", str(spotcheck_cache)]) == 0
    capsys.readouterr()
    bad_fixture = Path(__file__).parent / "fixtures" / "lint" / "sw001_bad.py"
    assert main([str(bad_fixture), "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "SW001" in out and "sw001_bad.py:" in out
