"""Output checks.  Each takes episode records and returns failure messages.

An empty list means the check passed; every message is one failed
operation in the benchmark's result.
"""

from __future__ import annotations

__all__ = [
    "conservation",
    "fluid_balance",
    "interval_accounting",
    "decisions",
    "identical",
    "episode_checks",
]

#: Relative tolerance of float request ledgers.  Fluid mass is summed in
#: float64 over thousands of steps, so a ledger of ~1e9 requests is exact
#: only to about one unit in the last place (~1e-7 requests); a single lost
#: request is still ~1e-9 of such a ledger and fails the check.
LEDGER_RTOL = 1e-12


def conservation(ledger: dict) -> list[str]:
    """Offered = served + dropped + failed + still in the system."""
    accounted = (
        ledger["served"] + ledger["dropped"] + ledger["failed"] + ledger["in_flight"]
    )
    if abs(ledger["offered"] - accounted) > LEDGER_RTOL * ledger["offered"]:
        return [
            f"requests not conserved: offered {ledger['offered']!r}, "
            f"accounted {accounted!r}"
        ]
    return []


def fluid_balance(ledger: dict) -> list[str]:
    """The fluid tier's own ledger balances (``FluidEngine.balance_error``)."""
    error = ledger["fluid_balance_error"]
    if error > LEDGER_RTOL * ledger["fluid_ledger"]:
        return [f"fluid ledger off by {error!r} requests"]
    return []


def interval_accounting(ledger: dict) -> list[str]:
    """The cost simulator saw the whole trace and left 0..all of it unserved."""
    out = []
    offered = ledger["offered"]
    if abs(ledger["reported_offered"] - offered) > LEDGER_RTOL * offered:
        out.append(
            f"simulator offered {ledger['reported_offered']!r} requests, "
            f"trace holds {offered!r}"
        )
    if not 0.0 <= ledger["unserved"] <= ledger["reported_offered"]:
        out.append(f"unserved requests out of range: {ledger['unserved']!r}")
    if ledger["decisions"] != ledger["intervals"]:
        out.append(
            f"{ledger['decisions']} decisions for {ledger['intervals']} intervals"
        )
    return out


def decisions(ledger: dict) -> list[str]:
    """Every decision deploys counts >= 0 covering the controller's target."""
    out = []
    if ledger["negative_counts"]:
        out.append(f"{ledger['negative_counts']} decisions with negative counts")
    if ledger["uncovered_targets"]:
        out.append(
            f"{ledger['uncovered_targets']} decisions provision less than target"
        )
    return out


def identical(first: dict, again: dict) -> list[str]:
    """A rerun of an episode reproduces its simulated statistics exactly."""
    diff = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
    if diff:
        return [f"rerun differs in {', '.join(diff)}"]
    return []


def episode_checks(kind: str) -> list:
    """The checks that apply to one episode of a workload kind."""
    if kind == "cluster":
        return [conservation, fluid_balance]
    return [interval_accounting, decisions]
