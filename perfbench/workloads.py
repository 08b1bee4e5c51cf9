"""The four benchmark workloads: seeded inputs, one episode, its statistics.

A workload is a list of episodes whose inputs derive from the run seed.
``build_episode`` makes an episode's inputs (trace, market dataset, fleet,
controller) and ``run_episode`` runs them through the program's public
API, timing every step on the host clock and returning the episode's
simulated statistics, which are pure functions of the seed.

Host time is the CPU time of the benchmark process (``time.process_time``).
The benchmark runs one thread (BLAS included), so on a quiet machine this
equals wall time; on a shared virtual machine it leaves out the time the
hypervisor gives the core to other guests, which is not the program's.

Every import of the program happens inside the functions, so importing
this module costs nothing and the runner can time the package import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WORKLOADS",
    "request_storm",
    "fleet_fluid",
    "mpo_small",
    "mpo_large",
    "ClusterEpisode",
    "ControllerEpisode",
    "EpisodeResult",
    "CheckedPolicy",
    "build_episode",
    "run_episode",
    "derive_seed",
]

#: Requests whose simulated response time exceeds this miss the SLO (s);
#: the cluster simulator's default threshold, used for every workload.
SLO_THRESHOLD_S = 1.0

#: Cluster billing: dollars per server-hour per req/s of server capacity
#: (the scenario suite's price; a 100 req/s server costs $0.20/hour).
PRICE_PER_RPS_HOUR = 0.002


def derive_seed(seed: int, index: int) -> int:
    """Seed of episode ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# --------------------------------------------------------------- workloads
@dataclass(frozen=True)
class ClusterEpisode:
    """Revocation storms against a fleet behind the transiency-aware LB."""

    seed: int
    engine: str
    servers: int
    capacity_rps: float
    rate_rps: float
    duration_s: float
    #: engine chunk (``HybridConfig.interval_seconds``) and the sim time
    #: of one timed step, a whole number of chunks
    chunk_s: float
    step_sim_s: float
    #: (sim time, revoked server ids) of each revocation storm
    storms: tuple[tuple[float, tuple[int, ...]], ...]
    warning_s: float
    boot_s: float
    new_session_probability: float
    #: per ``rate_step_s`` multipliers of ``rate_rps`` (piecewise constant)
    rate_steps: tuple[float, ...] = (1.0,)
    rate_step_s: float = 1e9
    #: launch like-for-like replacements when the storm hits (the fluid
    #: tier shows the balancer no queue, so its reprovision hook stays idle)
    replace_on_storm: bool = False


@dataclass(frozen=True)
class ControllerEpisode:
    """The SpotWeb controller driving the interval-level cost simulator.

    ``seed`` drives the simulator's revocation draws, ``market_seed`` the
    market dataset (prices, revocation probabilities) and ``trace_seed``
    the traffic.  The controller's predictors first observe a week of
    market and traffic, as a controller that has been running would have.
    """

    seed: int
    market_seed: int
    trace_seed: int
    markets: int
    horizon: int
    trace: str
    weeks: int
    peak_rps: float


def _storm_groups(rng, servers: int, storms: int) -> list:
    """Disjoint sets of a fifth of the fleet each, one per storm."""
    order = rng.permutation(servers).tolist()
    size = servers // 5
    return [tuple(sorted(order[k * size:(k + 1) * size])) for k in range(storms)]


def request_storm(seed: int) -> list:
    """Request-level DES: Poisson arrivals at 96% load; two storms each
    revoke a fifth of the fleet on a 2 s warning while replacements take
    16 s to boot, so the balancer defers, reprovisions, drains, migrates
    and finally sheds load.  The 10k-id session window fills after about
    12.5k requests at this new-session probability; an episode offers ~23k."""
    rng = np.random.default_rng(derive_seed(seed, 0))
    servers = 10
    groups = _storm_groups(rng, servers, 2)
    return [
        ClusterEpisode(
            seed=derive_seed(seed, 1),
            engine="request",
            servers=servers,
            capacity_rps=100.0,
            rate_rps=0.96 * servers * 100.0,
            duration_s=24.0,
            chunk_s=0.05,
            step_sim_s=0.05,
            storms=tuple(
                (float(rng.uniform(3.0, 4.0)) + 9.0 * k, group)
                for k, group in enumerate(groups)
            ),
            warning_s=2.0,
            boot_s=16.0,
            new_session_probability=0.8,
        )
    ]


def fleet_fluid(seed: int) -> list:
    """Fluid tier at ~550k req/s on 550 servers: a storm revokes a fifth of
    the fleet, replacements boot after 55 s, queues fill and overflow."""
    servers = 550
    duration = 900.0
    step = 60.0
    out = []
    for k in range(3):
        rng = np.random.default_rng(derive_seed(seed, k))
        storm_at = float(rng.uniform(300.0, 400.0))
        out.append(
            ClusterEpisode(
                seed=derive_seed(seed, 100 + k),
                engine="fluid",
                servers=servers,
                capacity_rps=1100.0,
                rate_rps=550_000.0,
                duration_s=duration,
                chunk_s=1.0,
                step_sim_s=30.0,
                storms=((storm_at, _storm_groups(rng, servers, 1)[0]),),
                warning_s=120.0,
                boot_s=55.0,
                new_session_probability=0.05,
                rate_steps=tuple(
                    (1.0 + rng.normal(0.0, 0.01, int(duration // step))).tolist()
                ),
                rate_step_s=step,
                replace_on_storm=True,
            )
        )
    return out


# Controller episode k replays the same traffic and market dataset for every
# run seed, which draws only the revocations.  Where a trace's spikes fall
# and how a dataset's prices and revocation odds come out decide most of
# cost_usd and unserved_frac; drawn from the run seed, they spread those
# metrics across seeds by more than any bound allows.
def mpo_small(seed: int) -> list:
    """12 markets x H=4 on the Wikipedia-like trace: the dense ADMM path."""
    return [
        ControllerEpisode(
            seed=derive_seed(seed, k),
            market_seed=1000 + k,
            trace_seed=k,
            markets=12,
            horizon=4,
            trace="wikipedia",
            weeks=1,
            peak_rps=20_000.0,
        )
        for k in range(4)
    ]


def mpo_large(seed: int) -> list:
    """36 markets x H=10 on the spiky VoD-like trace: the structured path."""
    return [
        ControllerEpisode(
            seed=derive_seed(seed, k),
            market_seed=1000 + k,
            trace_seed=k,
            markets=36,
            horizon=10,
            trace="vod",
            weeks=1,
            peak_rps=20_000.0,
        )
        for k in range(3)
    ]


WORKLOADS = {
    "request_storm": request_storm,
    "fleet_fluid": fleet_fluid,
    "mpo_small": mpo_small,
    "mpo_large": mpo_large,
}


# ----------------------------------------------------------------- results
@dataclass
class EpisodeResult:
    """What one episode produced.

    ``stats`` holds the simulated statistics (identical for every run of
    the seed); ``ledger`` the numbers the output checks read; ``step_s``
    the host (process CPU) seconds of each step.  ``slice_s`` cuts the
    host seconds of the whole run into consecutive slices of the same work
    on every run of the seed: the cluster's steps, or the controller loop
    from one decision to the next.
    """

    stats: dict
    ledger: dict
    step_s: list[float]
    slice_s: list[float]


# ----------------------------------------------------------------- cluster
def _cluster_build(spec: ClusterEpisode):
    from repro.loadbalancer.transiency import TransiencyAwareLoadBalancer
    from repro.simulator.cluster import ClusterConfig
    from repro.simulator.hybrid import HybridClusterSimulation, HybridConfig

    class CountingBalancer(TransiencyAwareLoadBalancer):
        """Counts offered requests: every arrival is one dispatch."""

        offered = 0

        def dispatch(self, now, session_id=None, *, service_scale=1.0):
            self.offered += 1
            return super().dispatch(
                now, session_id, service_scale=service_scale
            )

    config = ClusterConfig(
        seed=spec.seed,
        slo_threshold=SLO_THRESHOLD_S,
        warning_seconds=spec.warning_s,
        boot_seconds=spec.boot_s,
        new_session_probability=spec.new_session_probability,
    )
    cluster = None

    def reprovision(lost_capacity_rps: float, _now: float) -> None:
        cluster.add_server(lost_capacity_rps)

    cluster = HybridClusterSimulation(
        config,
        lambda rec: CountingBalancer(rec, reprovision=reprovision),
        engine=spec.engine,
        hybrid=HybridConfig(interval_seconds=spec.chunk_s),
        keep_raw=False,
    )
    for _ in range(spec.servers):
        cluster.add_server(spec.capacity_rps, boot_seconds=0.0)
    # Warm caches: the episode starts from steady state, not a cold boot.
    for server in cluster.servers.values():
        server.serving_since = -config.warmup_seconds
    for at, ids in spec.storms:
        cluster.schedule_storm(list(ids), at)
        if spec.replace_on_storm:

            def replace(count: int = len(ids)) -> None:
                for _ in range(count):
                    cluster.add_server(spec.capacity_rps)

            cluster.sim.schedule_at(at, replace)
    return cluster


def _cluster_run(spec: ClusterEpisode, cluster, trace) -> EpisodeResult:
    steps = spec.rate_steps
    base = spec.rate_rps
    width = spec.rate_step_s

    def rate(t: float) -> float:
        return base * steps[min(int(t / width), len(steps) - 1)]

    n_chunks = int(round(spec.duration_s / spec.chunk_s))
    pending_at_start = cluster.sim.pending  # storms and boots from the build
    step_s = []
    clock = time.process_time
    # One run() call per step: the same chunk loop as one long call, with a
    # host time per step.
    run = cluster.run if trace is None else trace.timed("sim.run", cluster.run)
    for _ in range(int(round(spec.duration_s / spec.step_sim_s))):
        t0_s = clock()
        run(spec.step_sim_s, rate)
        step_s.append(clock() - t0_s)

    rec = cluster.recorder
    fluid = cluster.fluid
    offered = cluster.balancer.offered + fluid.offered_total
    served = float(rec.served)
    dropped = float(rec.dropped)
    failed = float(rec.failed)
    in_flight = float(sum(s.in_flight for s in cluster.servers.values()))
    fluid_mass = fluid.total_mass()
    # slo_violation_rate = (late + dropped + failed) / (served + dropped + failed)
    misses = rec.slo_violation_rate() * float(rec.total)
    end = cluster.sim.now
    killed_at = {
        sid: at + spec.warning_s for at, ids in spec.storms for sid in ids
    }
    capacity_hours = sum(
        ((end if s.alive else killed_at[sid]) - max(s.launched_at, 0.0))
        * s.capacity_rps
        for sid, s in cluster.servers.items()
    ) / 3600.0
    stats = {
        "offered": offered,
        "served": served,
        "dropped": dropped,
        "failed": failed,
        "sim_p99_ms": 1e3 * rec.percentile(99.0),
        "slo_miss_frac": misses / offered,
        "unserved_frac": (dropped + failed) / offered,
        "cost_usd": capacity_hours * PRICE_PER_RPS_HOUR,
        "intervals": n_chunks,
        "des_events": cluster.sim.processed,
        "des_pending_at_start": pending_at_start,
        "migrations": cluster.balancer.migrations,
        "reprovision_requests": cluster.balancer.reprovision_requests,
        "tier_steps_fluid": cluster.tier_steps["fluid"],
        "tier_steps_request": cluster.tier_steps["request"],
    }
    ledger = {
        "offered": offered,
        "served": served,
        "dropped": dropped,
        "failed": failed,
        "in_flight": in_flight + fluid_mass,
        "fluid_balance_error": fluid.balance_error(),
        "fluid_ledger": fluid.offered_total + fluid.deposited_total,
    }
    return EpisodeResult(stats, ledger, step_s, step_s)


# -------------------------------------------------------------- controller
class CheckedPolicy:
    """The SpotWeb controller as a provisioning policy, timed and checked.

    Like ``repro.core.policy.SpotWebPolicy``, plus the host time of each
    ``SpotWebController.step`` and a tally of decisions that deploy a
    negative count or less capacity than the controller's own target.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        self.step_s: list[float] = []
        self.decided_at_s: list[float] = []
        self.negative_counts = 0
        self.uncovered_targets = 0
        self.not_optimal = 0
        self.iterations = 0

    def decide(self, t, observed_rps, prices, failure_probs):
        t0_s = time.process_time()
        self.decided_at_s.append(t0_s)
        decision = self.controller.step(observed_rps, prices, failure_probs)
        self.step_s.append(time.process_time() - t0_s)
        if np.any(decision.counts < 0):
            self.negative_counts += 1
        if decision.provisioned_rps < decision.target_rps:
            self.uncovered_targets += 1
        solver = decision.mpo.solver
        if solver.status.value != "optimal":
            self.not_optimal += 1
        self.iterations += int(solver.iterations)
        return decision.counts


def _controller_build(spec: ControllerEpisode):
    from repro.core import CostModel, SpotWebController
    from repro.markets import default_catalog, generate_market_dataset
    from repro.predictors import (
        AR1PricePredictor,
        ReactiveFailurePredictor,
        SplinePredictor,
    )
    from repro.simulator import CostSimulator
    from repro.workloads import vod_like, wikipedia_like

    markets = default_catalog().spot_markets(spec.markets)
    n = len(markets)
    history = 7 * 24
    end = history + spec.weeks * 7 * 24
    dataset = generate_market_dataset(
        markets, intervals=end, seed=spec.market_seed
    )
    make_trace = wikipedia_like if spec.trace == "wikipedia" else vod_like
    trace = make_trace(1 + spec.weeks, seed=spec.trace_seed)
    trace = trace.scaled(spec.peak_rps)
    workload = SplinePredictor(intervals_per_day=24)
    price = AR1PricePredictor(n)
    failure = ReactiveFailurePredictor(n)
    for t in range(history):
        workload.observe(trace.rates[t])
        workload.predict(spec.horizon)
        price.observe(dataset.prices[t])
        failure.observe(dataset.failure_probs[t])
    controller = SpotWebController(
        markets,
        workload,
        price,
        failure,
        horizon=spec.horizon,
        cost_model=CostModel(penalty=0.02, risk_aversion=5.0, churn_penalty=0.2),
    )
    simulator = CostSimulator(
        dataset.slice_time(history, end), trace.window(history, end), seed=spec.seed
    )
    return simulator, CheckedPolicy(controller)


def _controller_run(spec: ControllerEpisode, built) -> EpisodeResult:
    simulator, policy = built
    t0_s = time.process_time()
    report = simulator.run(policy, name="spotweb")
    end_s = time.process_time()
    marks = [t0_s, *policy.decided_at_s, end_s]
    slices = [b - a for a, b in zip(marks, marks[1:])]
    T = simulator.horizon_intervals
    interval_s = simulator.dataset.interval_seconds
    offered = float(np.sum(simulator.trace.rates[:T]) * interval_s)
    p99 = np.asarray(report.p99_est_s)
    breached = report.demand_rps[p99 > SLO_THRESHOLD_S].sum() * interval_s
    stats = {
        "offered": report.total_requests,
        "unserved": report.unserved_requests,
        "sim_p99_ms": 1e3 * float(np.percentile(p99, 99.0)),
        # Interval level: an interval whose P99 estimate breaches the SLO
        # counts all its requests as misses, on top of unserved requests.
        "slo_miss_frac": min(
            1.0, (report.unserved_requests + breached) / report.total_requests
        ),
        "unserved_frac": report.unserved_fraction,
        "cost_usd": report.total_cost,
        "intervals": T,
        "revocations": report.revocation_events,
        "solver_iterations": policy.iterations,
        "not_optimal": policy.not_optimal,
        "counts_sum": int(report.counts.sum()),
    }
    ledger = {
        "offered": offered,
        "reported_offered": report.total_requests,
        "unserved": report.unserved_requests,
        "decisions": len(policy.step_s),
        "intervals": T,
        "negative_counts": policy.negative_counts,
        "uncovered_targets": policy.uncovered_targets,
    }
    return EpisodeResult(stats, ledger, policy.step_s, slices)


def build_episode(spec):
    """Make an episode's inputs; the result is consumed by one run."""
    if isinstance(spec, ClusterEpisode):
        return _cluster_build(spec)
    return _controller_build(spec)


def run_episode(spec, built, trace=None) -> EpisodeResult:
    """Run built inputs once through the program.

    ``trace`` (a :class:`layers.LayerTrace`) times the cluster's run calls
    as the outermost span; the controller's is ``CostSimulator.run``,
    which the trace patches itself.
    """
    if isinstance(spec, ClusterEpisode):
        return _cluster_run(spec, built, trace)
    return _controller_run(spec, built)
