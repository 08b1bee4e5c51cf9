"""Table 1: comparison of transiency-management approaches.

Two halves:

- The paper's qualitative feature matrix (:func:`run_table1`), encoded from
  the capabilities each implementation in this repository actually has, not
  hard-coded strings: e.g. "Exploit Future Forecast" is derived from the
  optimizer horizon the policy runs with.
- A quantitative cost sweep (:func:`run_table1_costs`) that actually *runs*
  the Table-1 approaches head-to-head — policies x revocation seeds on a
  shared market universe — through the :mod:`repro.parallel` sweep engine.
  Every policy in a repetition faces the same revocation weather
  (:func:`repro.parallel.derive_seed` keyed on the repetition only), so the
  comparison isolates the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import (
    ConstantPortfolioPolicy,
    ExoSphereLoopPolicy,
    OnDemandPolicy,
    QuThresholdPolicy,
    oracle_target,
)
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.markets import PurchaseOption, default_catalog, generate_market_dataset
from repro.parallel import derive_seed, pmap, shared_setup
from repro.predictors import (
    AR1PricePredictor,
    ReactiveFailurePredictor,
    SplinePredictor,
)
from repro.simulator import CostSimulator, SimulationReport
from repro.workloads import WorkloadTrace, vod_like, wikipedia_like

__all__ = [
    "ApproachFeatures",
    "APPROACHES",
    "POLICY_NAMES",
    "make_policy",
    "run_table1",
    "format_table1",
    "Table1Costs",
    "run_table1_costs",
    "format_table1_costs",
]


@dataclass(frozen=True)
class ApproachFeatures:
    """Capability row for one approach."""

    name: str
    heterogeneous_servers: bool
    slo_awareness: str  # "Yes" / "No" / "Indirect"
    auto_scaling: bool
    future_forecast: str  # "Yes" / "No" / "Partially"
    latency_aware_provisioning: bool


APPROACHES: tuple[ApproachFeatures, ...] = (
    ApproachFeatures(
        name="ExoSphere",
        heterogeneous_servers=True,  # portfolio over multiple markets
        slo_awareness="No",  # risk-adjusted cost only (no SLA term)
        auto_scaling=False,  # static portfolio for a short-lived job
        future_forecast="No",  # backward-looking SPO
        latency_aware_provisioning=False,
    ),
    ApproachFeatures(
        name="Tributary",
        heterogeneous_servers=True,
        slo_awareness="Yes",
        auto_scaling=True,
        future_forecast="Partially",  # price prediction for free-hours only
        latency_aware_provisioning=False,
    ),
    ApproachFeatures(
        name="Qu et al.",
        heterogeneous_servers=True,
        slo_awareness="Indirect",  # via the concurrent-failure threshold
        auto_scaling=True,
        future_forecast="No",
        latency_aware_provisioning=True,
    ),
    ApproachFeatures(
        name="SpotWeb",
        heterogeneous_servers=True,
        slo_awareness="Yes",  # SLA cost term + CI padding
        auto_scaling=True,
        future_forecast="Yes",  # multi-period optimization over H
        latency_aware_provisioning=True,  # transiency-aware LB
    ),
)


def run_table1() -> tuple[ApproachFeatures, ...]:
    """Return the feature matrix (trivially cheap; exists for bench parity)."""
    return APPROACHES


POLICY_NAMES = ("spotweb", "exosphere", "constant", "qu", "ondemand")


def make_policy(name: str, markets: list, trace: WorkloadTrace, *, horizon: int = 4):
    """Instantiate a Table-1 approach as a provisioning policy.

    Shared by :func:`run_table1_costs` and the CLI ``simulate`` command, so
    "the ExoSphere row" means the same configuration everywhere.
    """
    n = len(markets)
    if name == "spotweb":
        controller = SpotWebController(
            markets,
            SplinePredictor(trace.intervals_per_day),
            AR1PricePredictor(n),
            ReactiveFailurePredictor(n),
            horizon=horizon,
            cost_model=CostModel(churn_penalty=0.2),
        )
        return SpotWebPolicy(controller)
    if name == "exosphere":
        return ExoSphereLoopPolicy(markets)
    if name == "constant":
        return ConstantPortfolioPolicy(markets, target_fn=oracle_target(trace))
    if name == "qu":
        return QuThresholdPolicy(
            markets, num_markets=min(4, n), failure_threshold=1
        )
    if name == "ondemand":
        return OnDemandPolicy(markets)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


def _cost_setup(
    num_markets: int, weeks: int, peak_rps: float, seed: int, workload: str
):
    """Shared read-only universe + trace for one sweep configuration.

    The universe pairs each spot market with its on-demand sibling so the
    on-demand baseline (and only it) has non-revocable columns to use.
    """

    def build():
        catalog = default_catalog()
        spot = catalog.spot_markets(num_markets)
        markets = spot + [
            catalog.market(m.instance.name, PurchaseOption.ON_DEMAND)
            for m in spot
        ]
        dataset = generate_market_dataset(
            markets, intervals=weeks * 7 * 24, seed=seed
        )
        trace_fn = wikipedia_like if workload == "wikipedia" else vod_like
        trace = trace_fn(weeks, seed=seed).scaled(peak_rps)
        return markets, dataset, trace

    key = ("table1_costs", num_markets, weeks, peak_rps, seed, workload)
    return shared_setup(key, build)


def _cost_cell(params: dict) -> SimulationReport:
    """One (policy, simulator seed) simulation — the sweep unit."""
    markets, dataset, trace = _cost_setup(
        params["num_markets"],
        params["weeks"],
        params["peak_rps"],
        params["seed"],
        params["workload"],
    )
    sim = CostSimulator(dataset, trace, seed=params["sim_seed"])
    policy = make_policy(params["policy"], markets, trace, horizon=params["horizon"])
    return sim.run(policy, name=params["name"])


@dataclass
class Table1Costs:
    """reports[(policy, rep)] — one simulation per policy per repetition."""

    reports: dict[tuple[str, int], SimulationReport]
    policies: tuple[str, ...]
    reps: tuple[int, ...]

    def mean_cost(self, policy: str) -> float:
        return float(
            np.mean([self.reports[(policy, r)].total_cost for r in self.reps])
        )

    def savings_vs(self, policy: str, baseline: str = "ondemand") -> float:
        base = self.mean_cost(baseline)
        return 1.0 - self.mean_cost(policy) / base if base > 0 else 0.0


def run_table1_costs(
    *,
    policies: tuple[str, ...] = ("spotweb", "exosphere", "qu", "ondemand"),
    reps: int = 4,
    num_markets: int = 8,
    weeks: int = 1,
    peak_rps: float = 20_000.0,
    horizon: int = 4,
    workload: str = "wikipedia",
    seed: int = 0,
    parallel: bool = False,
    max_workers: int | None = None,
) -> Table1Costs:
    """Run the Table-1 approaches head-to-head over ``reps`` seeds.

    The policies x reps grid is embarrassingly parallel; results are
    identical in serial and parallel runs because each cell's simulator seed
    is derived from ``(seed, rep)`` alone.
    """
    rep_ids = tuple(range(reps))
    cells = [
        {
            "policy": p,
            "rep": r,
            "sim_seed": derive_seed(seed, "table1_costs", r),
            "name": f"{p}#r{r}",
            "num_markets": num_markets,
            "weeks": weeks,
            "peak_rps": peak_rps,
            "horizon": horizon,
            "workload": workload,
            "seed": seed,
        }
        for p in policies
        for r in rep_ids
    ]
    reports = pmap(
        _cost_cell, cells, max_workers=(max_workers if parallel else 1)
    )
    return Table1Costs(
        reports={(c["policy"], c["rep"]): rep for c, rep in zip(cells, reports)},
        policies=tuple(policies),
        reps=rep_ids,
    )


def format_table1_costs(result: Table1Costs) -> str:
    from repro.textfmt import format_table

    baseline = result.policies[-1]
    rows = []
    for p in result.policies:
        reps = [result.reports[(p, r)] for r in result.reps]
        rows.append(
            [
                p,
                result.mean_cost(p),
                float(np.mean([r.provisioning_cost for r in reps])),
                100 * float(np.mean([r.unserved_fraction for r in reps])),
                100 * result.savings_vs(p, baseline=baseline),
            ]
        )
    return format_table(
        ["policy", "mean_total_$", "mean_prov_$", "unserved_%", f"savings_vs_{baseline}_%"],
        rows,
        title=(
            f"Table 1 (quantitative): {len(result.reps)} seeds x "
            f"{len(result.policies)} policies"
        ),
    )


def format_table1() -> str:
    from repro.textfmt import format_table

    def yn(v: bool) -> str:
        return "Yes" if v else "No"

    rows = [
        [
            a.name,
            yn(a.heterogeneous_servers),
            a.slo_awareness,
            yn(a.auto_scaling),
            a.future_forecast,
            yn(a.latency_aware_provisioning),
        ]
        for a in APPROACHES
    ]
    return format_table(
        [
            "approach",
            "heterogeneous",
            "SLO-aware",
            "auto-scaling",
            "future forecast",
            "latency-aware",
        ],
        rows,
        title="Table 1: comparison between approaches",
    )
