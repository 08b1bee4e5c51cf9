"""Figure 4(a): transiency-aware load balancing under correlated revocations.

The testbed scenario (Sec. 6.1, second case — high utilization, replacements
can start within the warning period): a 6-server heterogeneous cluster at
70–95% utilization serving ~600 req/s; 3 minutes in, the two larger server
types (4 machines) receive correlated revocation warnings.

- The **transiency-aware** balancer drains the doomed servers, migrates
  their sessions, and reactively starts 4 replacements that boot inside the
  warning window; the paper reports p90 < 700 ms through the recovery (cold
  caches) and *zero* dropped requests.
- **Vanilla HAProxy** ignores the warnings, keeps routing to the doomed and
  then dead servers, and drops ~85% of requests for a stretch, with served
  latencies around 2 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.loadbalancer import TransiencyAwareLoadBalancer, VanillaLoadBalancer
from repro.simulator import ClusterConfig, ClusterSimulation, HybridClusterSimulation
from repro.simulator.hybrid import ENGINES
from repro.simulator.metrics import LatencyRecorder

__all__ = ["Fig4aResult", "run_fig4a", "format_fig4a"]

# The six-server cluster: two small, two medium, two large front-ends
# (m4.xlarge / m4.2xlarge-class capacities at 20 req/s/vCPU).
SERVER_CAPACITIES = (80.0, 80.0, 160.0, 160.0, 160.0, 160.0)
REVOKED_INDICES = (2, 3, 4, 5)  # the two larger types, four machines
LOAD_RPS = 600.0
REVOKE_AT = 180.0  # 3 minutes in
DURATION = 600.0  # 10 minutes


@dataclass
class Fig4aResult:
    """Per-balancer outcome plus the per-minute latency series."""

    recorder: LatencyRecorder
    minute_p50: np.ndarray
    minute_p90: np.ndarray
    minute_mean: np.ndarray
    post_revocation_p90: float
    drop_rate: float


def _run_one(
    transiency_aware: bool,
    *,
    seed: int = 0,
    scale: float = 1.0,
    engine: str = "request",
) -> Fig4aResult:
    if scale <= 0:
        raise ValueError("scale must be positive")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    config = ClusterConfig(seed=seed)

    cluster: ClusterSimulation

    def reprovision(lost_capacity: float, _now: float) -> None:
        # Replace the revoked machine like-for-like; the boot time is below
        # the warning window, so replacements are serving before the kill.
        cluster.add_server(lost_capacity)

    if transiency_aware:
        factory = lambda rec: TransiencyAwareLoadBalancer(  # noqa: E731
            rec, reprovision=reprovision
        )
    else:
        factory = lambda rec: VanillaLoadBalancer(rec)  # noqa: E731

    if engine == "request":
        # The paper-faithful default: the plain request-level testbed,
        # byte-identical to what this experiment always produced.
        cluster = ClusterSimulation(config, factory)
    else:
        # keep_raw: the per-minute latency windows below need raw samples
        # (fluid-tier masses are expanded to integer repeats).
        cluster = HybridClusterSimulation(
            config, factory, engine=engine, keep_raw=True
        )
    for cap in SERVER_CAPACITIES:
        cluster.add_server(cap * scale, boot_seconds=0.0)
    # Warm the caches before the measurement starts, as the testbed would be.
    for server in cluster.servers.values():
        server.serving_since = -config.warmup_seconds

    for idx in REVOKED_INDICES:
        cluster.schedule_revocation(idx, REVOKE_AT)

    recorder = cluster.run(DURATION, LOAD_RPS * scale)

    minutes = int(DURATION // 60)
    p50 = np.empty(minutes)
    p90 = np.empty(minutes)
    mean = np.empty(minutes)
    for m in range(minutes):
        lat = recorder.window(60.0 * m, 60.0 * (m + 1))
        p50[m] = np.percentile(lat, 50) if lat.size else np.nan
        p90[m] = np.percentile(lat, 90) if lat.size else np.nan
        mean[m] = lat.mean() if lat.size else np.nan
    post = recorder.window(REVOKE_AT, DURATION)
    return Fig4aResult(
        recorder=recorder,
        minute_p50=p50,
        minute_p90=p90,
        minute_mean=mean,
        post_revocation_p90=float(np.percentile(post, 90)) if post.size else float("nan"),
        drop_rate=recorder.drop_rate(),
    )


def run_fig4a(
    *, seed: int = 0, scale: float = 1.0, engine: str = "request"
) -> dict[str, Fig4aResult]:
    """Run the scenario under both balancers.

    ``scale`` multiplies both load and server capacities (1.0 = the paper's
    600 req/s testbed; smaller values keep the same utilization for quick
    tests).  ``engine`` selects the simulation engine: ``"request"`` (the
    default, pure DES), ``"hybrid"`` (fluid between fidelity windows), or
    ``"fluid"`` (rate steps throughout — no per-request effects).
    """
    return {
        "spotweb": _run_one(True, seed=seed, scale=scale, engine=engine),
        "vanilla": _run_one(False, seed=seed, scale=scale, engine=engine),
    }


def format_fig4a(results: dict[str, Fig4aResult]) -> str:
    from repro.textfmt import format_table

    rows = []
    for name, r in results.items():
        rows.append(
            [
                name,
                r.recorder.mean(),
                r.recorder.percentile(90),
                r.post_revocation_p90,
                100 * r.drop_rate,
                r.recorder.served,
            ]
        )
    table = format_table(
        ["balancer", "mean_s", "p90_s", "post-revoke p90_s", "drop_%", "served"],
        rows,
        title="Fig 4(a): revocation at t=3min, 4 of 6 servers (correlated)",
    )
    lines = [table, "", "per-minute p90 (s):"]
    for name, r in results.items():
        series = " ".join(
            f"{v:5.2f}" if v == v else "  -- " for v in r.minute_p90
        )
        lines.append(f"  {name:8s} {series}")
    return "\n".join(lines)
