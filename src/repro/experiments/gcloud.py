"""Sec. 7 "Other Cloud providers": SpotWeb on Google-preemptible markets.

No price dynamics at all — flat preemptible prices at a fixed discount,
constant preemption probabilities in [0.05, 0.15], and a forced 24-hour
instance lifetime.  The paper's claim: savings persist because workload
dynamics and preemption-probability differences across markets still give
the optimizer something to exploit, and the transiency-aware machinery
absorbs the scheduled 24-hour terminations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import ExoSphereLoopPolicy, OnDemandPolicy
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.markets import PurchaseOption, default_catalog
from repro.markets.gcp import GCP_LIFETIME_HOURS, gcp_like_dataset
from repro.predictors import (
    ReactiveFailurePredictor,
    ReactivePricePredictor,
    SplinePredictor,
)
from repro.simulator import CostSimulator, SimulationReport
from repro.workloads import wikipedia_like

__all__ = ["GCloudResult", "run_gcloud", "format_gcloud"]


@dataclass
class GCloudResult:
    spotweb: SimulationReport
    exosphere: SimulationReport
    ondemand: SimulationReport

    @property
    def savings_vs_ondemand(self) -> float:
        return self.spotweb.savings_vs(self.ondemand)

    @property
    def savings_vs_exosphere(self) -> float:
        return self.spotweb.savings_vs(self.exosphere)


def run_gcloud(
    *,
    num_types: int = 12,
    weeks: int = 2,
    peak_rps: float = 30_000.0,
    seed: int = 5,
) -> GCloudResult:
    catalog = default_catalog()
    spot = catalog.spot_markets(num_types)
    ondemand = [
        catalog.market(m.instance.name, PurchaseOption.ON_DEMAND) for m in spot
    ]
    markets = spot + ondemand
    n = len(markets)

    dataset = gcp_like_dataset(markets, intervals=weeks * 7 * 24, seed=seed)
    trace = wikipedia_like(weeks, seed=seed).scaled(peak_rps)
    sim = CostSimulator(
        dataset,
        trace,
        seed=seed,
        max_lifetime_intervals=GCP_LIFETIME_HOURS,
    )

    controller = SpotWebController(
        markets,
        SplinePredictor(24),
        # Prices are constant on this provider: the reactive price predictor
        # is exact, matching the paper's fixed-discount case.
        ReactivePricePredictor(n),
        ReactiveFailurePredictor(n),
        horizon=4,
        cost_model=CostModel(churn_penalty=0.2),
    )
    spotweb = sim.run(SpotWebPolicy(controller), name="spotweb")
    exo = sim.run(ExoSphereLoopPolicy(markets), name="exosphere-loop")
    od = sim.run(OnDemandPolicy(markets), name="on-demand")
    return GCloudResult(spotweb=spotweb, exosphere=exo, ondemand=od)


def format_gcloud(result: GCloudResult) -> str:
    from repro.textfmt import format_table

    rows = [
        [
            r.name,
            r.total_cost,
            100 * r.unserved_fraction,
            r.revocation_events,
            100 * r.savings_vs(result.ondemand),
        ]
        for r in (result.spotweb, result.exosphere, result.ondemand)
    ]
    return format_table(
        ["policy", "total_$", "unserved_%", "revocations", "savings_vs_od_%"],
        rows,
        title=(
            "Sec 7: Google-preemptible mode (flat prices, 5-15% preemption, "
            "24h lifetime)"
        ),
    )
