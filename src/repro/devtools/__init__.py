"""Developer tooling for the SpotWeb reproduction.

Two halves, both enforcing the same domain invariants from different
directions:

- :mod:`repro.devtools.check` — ``spotcheck``, the one static-analysis
  driver.  It walks, parses and caches every file once and runs four
  analyzers over it: spotlint (:mod:`repro.devtools.rules`, per-file
  rules SW001–SW012), spotgraph (:mod:`repro.devtools.graph`, layering,
  determinism taint and pmap purity, SW101–SW123), spotshape
  (:mod:`repro.devtools.shape`, symbolic array shapes, SW200–SW204) and
  spotunits (:mod:`repro.devtools.units`, units of measure,
  SW300–SW304).  Run it with ``python -m repro.devtools.check src/`` or
  the ``spotcheck`` console script; CI gates on no findings beyond
  ``spotcheck-baseline.json``.
- :mod:`repro.devtools.contracts` — runtime shape/sign/unit contracts
  (``@shapes``, ``@nonneg``, unit-tagged scalars) applied at the hot
  seams and toggled by the ``SPOTWEB_CONTRACTS`` environment variable.

Only the contracts load eagerly: the runtime imports them on every hot
seam, so the analyzers stay off that import path and ``RULES``,
``Finding`` and ``Rule`` resolve lazily (PEP 562).
"""

from __future__ import annotations

from repro.devtools.contracts import (
    ContractError,
    UnitScalar,
    contracts_enabled,
    field_units,
    freeze_arrays,
    nonneg,
    per_request_prices,
    require_unit,
    rps,
    set_contracts,
    shapes,
    usd_per_hour,
    usd_per_hour_per_rps,
)

# NOTE: the ``units`` *decorator* is deliberately not re-exported here —
# ``repro.devtools.units`` is the static analyzer subpackage, and a
# same-named attribute would be silently clobbered the moment anything
# imported the submodule.  Use ``from repro.devtools.contracts import
# units`` for the decorator.

_RULES_EXPORTS = ("RULES", "Finding", "Rule")


def __getattr__(name: str):
    if name in _RULES_EXPORTS:
        from repro.devtools import rules

        return getattr(rules, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ContractError",
    "UnitScalar",
    "contracts_enabled",
    "field_units",
    "freeze_arrays",
    "nonneg",
    "per_request_prices",
    "require_unit",
    "rps",
    "set_contracts",
    "shapes",
    "usd_per_hour",
    "usd_per_hour_per_rps",
    "RULES",
    "Finding",
    "Rule",
]
