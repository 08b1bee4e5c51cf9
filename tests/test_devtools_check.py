"""Tests for the spotcheck driver itself: the one rule table, suppression
ownership across the four analyzers' tags, the baseline file, and keeping
the analyzers off the runtime import path.  Behaviours every analyzer
shares (cache, JSON report, usage errors) live in ``spotcheck_cases``."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.devtools.check import (
    ANALYZERS,
    ENGINE_RULES,
    RULE_OWNER,
    build_rule_table,
    check_paths,
    main,
    write_baseline,
)


def test_rule_ids_are_disjoint_across_analyzers():
    # The analyzers share one SWxxx namespace (and the SW000/SW009 engine
    # pseudo-rules); a reused id would make findings and suppressions
    # ambiguous, so the driver's one rule table refuses it.
    assert [tag for tag, _rules in ANALYZERS] == [
        "spotlint", "spotgraph", "spotshape", "spotunits",
    ]
    expected = sum(len(rules) for _tag, rules in ANALYZERS) + len(ENGINE_RULES)
    assert len(RULE_OWNER) == expected
    for tag, rules in ANALYZERS:
        assert all(RULE_OWNER[rule_id] == tag for rule_id in rules)


@pytest.mark.parametrize("reused", ["SW001", "SW204", "SW009"])
def test_duplicate_rule_id_raises(reused):
    with pytest.raises(ValueError, match=reused):
        build_rule_table((*ANALYZERS, ("spotnew", {reused: "duplicate"})))


def test_contracts_import_loads_no_analyzer():
    # Every hot seam imports the runtime contracts; the analyzers (and the
    # lint rule table) must stay off that import path.
    code = (
        "import sys\n"
        "import repro.devtools.contracts\n"
        "bad = sorted(m for m in sys.modules if m.split('.')[:3] in ("
        + ", ".join(
            repr(["repro", "devtools", name])
            for name in ("rules", "lint", "check", "graph", "shape", "units")
        )
        + ",))\n"
        "print(','.join(bad))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert out == ""


def test_each_tag_governs_only_its_own_rules(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "__all__ = []\n"
        "assert True  # spotshape: disable=SW008\n"
        "assert True  # spotlint: disable=SW008\n"
    )
    findings = check_paths([mod])
    # spotshape's tag cannot silence a spotlint rule — and naming an id
    # its analyzer does not know is itself a finding.
    assert [(f.rule, f.line) for f in findings] == [
        ("SW008", 2), ("SW009", 2),
    ]
    assert "`SW008`" in findings[1].message


def test_disable_all_covers_only_the_tags_analyzer(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("assert True  # spotgraph: disable=all\n")
    assert {f.rule for f in check_paths([mod])} == {"SW007", "SW008"}


def test_unparseable_file_is_one_sw000_even_when_unselected(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    (finding,) = check_paths([bad], select={"SW110"})
    assert finding.rule == "SW000" and "syntax error" in finding.message


def test_list_rules_names_every_analyzer(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for tag, rules in ANALYZERS:
        for rule_id in rules:
            assert f"{rule_id}  {tag}" in out
    assert "SW000" in out and "SW009" in out


def test_update_baseline_keeps_the_justification(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "schema": "spotcheck-baseline/1",
                "justification": {"spotshape": "reviewed"},
                "findings": [],
            }
        )
    )
    mod = tmp_path / "mod.py"
    mod.write_text("assert True\n")
    write_baseline(baseline, check_paths([mod]))
    data = json.loads(baseline.read_text())
    assert data["justification"] == {"spotshape": "reviewed"}
    assert {f["rule"] for f in data["findings"]} == {"SW007", "SW008"}
