"""Self-test of the output checks: tampered results must fail them.

Run ``python3 perfbench/selftest.py``; ``run.py`` also runs it before
every measurement and refuses to measure if a check has gone blind.
"""

from __future__ import annotations

import sys

import checks

__all__ = ["run", "CASES"]


def _cluster_ledger() -> dict:
    return {
        "offered": 1000.0,
        "served": 900.0,
        "dropped": 60.0,
        "failed": 25.0,
        "in_flight": 15.0,
        "fluid_balance_error": 0.0,
        "fluid_ledger": 0.0,
    }


def _fluid_ledger() -> dict:
    ledger = _cluster_ledger()
    ledger.update(
        offered=9e8 + 1000.0,
        served=9e8 + 900.0,
        fluid_balance_error=1.2e-7,
        fluid_ledger=9e8,
    )
    return ledger


def _interval_ledger() -> dict:
    return {
        "offered": 5e9,
        "reported_offered": 5e9,
        "unserved": 4e7,
        "decisions": 168,
        "intervals": 168,
        "negative_counts": 0,
        "uncovered_targets": 0,
    }


def _tampered(make, **changes) -> dict:
    ledger = make()
    ledger.update(changes)
    return ledger


#: (check, honest input, tampered inputs) — every tampered input must fail.
CASES = [
    (
        checks.conservation,
        _cluster_ledger,
        [
            _tampered(_cluster_ledger, served=899.0),  # a lost request
            _tampered(_cluster_ledger, in_flight=16.0),  # a phantom request
            _tampered(_fluid_ledger, served=9e8 + 899.0),
        ],
    ),
    (checks.conservation, _fluid_ledger, []),
    (
        checks.fluid_balance,
        _fluid_ledger,
        [_tampered(_fluid_ledger, fluid_balance_error=1.0)],
    ),
    (
        checks.interval_accounting,
        _interval_ledger,
        [
            _tampered(_interval_ledger, reported_offered=5e9 - 3600.0),
            _tampered(_interval_ledger, unserved=-1.0),
            _tampered(_interval_ledger, decisions=167),
        ],
    ),
    (
        checks.decisions,
        _interval_ledger,
        [
            _tampered(_interval_ledger, uncovered_targets=1),  # uncovered target
            _tampered(_interval_ledger, negative_counts=1),
        ],
    ),
]


def run() -> list[str]:
    """Problems found; empty when every check passes honest input and
    fails every tampered one."""
    problems = []
    for check, honest, tampered in CASES:
        if check(honest()):
            problems.append(f"{check.__name__} rejects an honest result")
        for ledger in tampered:
            if not check(ledger):
                problems.append(f"{check.__name__} accepts a tampered result")
    stats = {"served": 900.0, "sim_p99_ms": 1234.5}
    if checks.identical(stats, dict(stats)):
        problems.append("identical rejects an exact rerun")
    if not checks.identical(stats, dict(stats, sim_p99_ms=1234.6)):
        problems.append("identical accepts a rerun that moved")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("selftest:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
