"""Request-level cluster simulation — the synthetic testbed.

Drives Poisson request arrivals through a load balancer into
:class:`~repro.simulator.server.SimServer` backends, with revocation
warnings, kills, and mid-run server additions.  This is the substitute for
the paper's EC2 MediaWiki testbed: the latency phenomena Fig. 4(a) captures
(normal operation < 200 ms, post-revocation recovery through cold caches,
vanilla HAProxy's drop cliff) all emerge from the queueing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.devtools.contracts import field_units, units
from repro.loadbalancer.vanilla import VanillaLoadBalancer
from repro.obs import get_events
from repro.obs.slo import SLOEngine
from repro.simulator.des import Simulator
from repro.simulator.metrics import LatencyRecorder
from repro.simulator.server import SimServer

__all__ = ["ClusterConfig", "ClusterSimulation"]

#: Returning requests pick one of this many most recent sessions.
_SESSION_WINDOW = 10_000


@field_units(
    service_time="s",
    slo_threshold="s",
    boot_seconds="s",
    warmup_seconds="s",
    queue_limit_seconds="s",
    warning_seconds="s",
    new_session_probability="frac",
    long_request_fraction="frac",
    slo_interval_seconds="s",
)
@dataclass
class ClusterConfig:
    """Knobs of the synthetic testbed.

    Defaults follow the paper's measurements: ~0.5 s MediaWiki responses are
    modelled with a 0.1 s base service time plus queueing; machine start-up
    "less than 1 minute"; Memcached warm-up "30 to 90 seconds"; EC2 warning
    period 120 s.
    """

    service_time: float = 0.1
    slo_threshold: float = 1.0
    boot_seconds: float = 55.0
    warmup_seconds: float = 60.0
    cold_multiplier: float = 2.0
    queue_limit_seconds: float = 4.0
    warning_seconds: float = 120.0
    new_session_probability: float = 0.05
    # Long-running request class (the L of Eq. 4): a fraction of requests
    # whose service time is scaled up far enough that they cannot migrate
    # within the revocation warning window.
    long_request_fraction: float = 0.0
    long_service_scale: float = 50.0
    seed: int = 0
    # SLO interval width for the streaming compliance/burn-rate series
    # (only consulted when the event journal is enabled).
    slo_interval_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.service_time <= 0:
            raise ValueError("service_time must be positive")
        if not 0 <= self.new_session_probability <= 1:
            raise ValueError("new_session_probability must be in [0, 1]")
        if self.warning_seconds < 0:
            raise ValueError("warning_seconds must be non-negative")
        if not 0 <= self.long_request_fraction <= 1:
            raise ValueError("long_request_fraction must be in [0, 1]")
        if self.long_service_scale < 1:
            raise ValueError("long_service_scale must be >= 1")
        if self.slo_interval_seconds <= 0:
            raise ValueError("slo_interval_seconds must be positive")


class ClusterSimulation:
    """A front-end cluster under a load balancer inside the DES.

    Parameters
    ----------
    balancer_factory:
        ``factory(recorder) -> balancer`` — builds the balancer under test
        (vanilla or transiency-aware).  The cluster wires warnings to
        ``balancer.on_warning``.
    keep_raw:
        Retain exact per-request latency/timestamp arrays (Fig. 4(a)'s
        per-minute windows need them).  Defaults on; the hybrid engine's
        huge-fleet benchmarks turn it off to keep memory bounded.
    """

    #: Subclass hook: the hybrid engine needs servers that remember their
    #: pending completion events for the request->fluid handoff.
    _track_completions = False

    def __init__(
        self,
        config: ClusterConfig | None = None,
        balancer_factory: Callable[[LatencyRecorder], VanillaLoadBalancer]
        | None = None,
        *,
        keep_raw: bool = True,
    ) -> None:
        self.config = config or ClusterConfig()
        self.sim = Simulator()
        # keep_raw: Fig. 4(a) needs the exact per-minute latency windows.
        self.slo_engine = (
            SLOEngine(
                slo_threshold=self.config.slo_threshold,
                interval_seconds=self.config.slo_interval_seconds,
            )
            if get_events().enabled
            else None
        )
        self.recorder = LatencyRecorder(
            slo_threshold=self.config.slo_threshold,
            keep_raw=keep_raw,
            engine=self.slo_engine,
        )
        factory = balancer_factory or (lambda rec: VanillaLoadBalancer(rec))
        self.balancer = factory(self.recorder)
        self.servers: dict[int, SimServer] = {}
        self._next_id = 0
        self._rng = np.random.default_rng(self.config.seed)
        # Live sessions are always the most recent ``_session_window`` ids,
        # ``range(_next_session - _session_window, _next_session)``, so the
        # window is kept as its size only.
        self._session_window = 0
        self._next_session = 0
        self._arrival_event = None
        self.capacity_timeline: list[tuple[float, float]] = []

    # ---------------------------------------------------------------- servers
    @units("req/s", boot_seconds="s")
    def add_server(
        self,
        capacity_rps: float,
        *,
        boot_seconds: float | None = None,
        weight: float | None = None,
    ) -> SimServer:
        """Launch a server now; it joins the balancer immediately but only
        accepts traffic after booting."""
        server = SimServer(
            self.sim,
            self.recorder,
            server_id=self._next_id,
            capacity_rps=capacity_rps,
            service_time=self.config.service_time,
            boot_seconds=(
                self.config.boot_seconds if boot_seconds is None else boot_seconds
            ),
            warmup_seconds=self.config.warmup_seconds,
            cold_multiplier=self.config.cold_multiplier,
            queue_limit_seconds=self.config.queue_limit_seconds,
            seed=self.config.seed,
            track_completions=self._track_completions,
        )
        self._next_id += 1
        self.servers[server.server_id] = server
        self.balancer.add_backend(server, weight)
        ev = get_events()
        if ev.enabled:
            ev.emit(
                "server.launch",
                t=self.sim.now,
                backend=server.server_id,
                capacity_rps=server.capacity_rps,
                boot_seconds=server.boot_seconds,
            )
        self._mark_capacity()
        return server

    @units(None, warning_seconds="s")
    def revoke(self, server_id: int, *, warning_seconds: float | None = None) -> None:
        """Issue a revocation warning now; the server dies when it expires."""
        server = self.servers[server_id]
        warning = (
            self.config.warning_seconds
            if warning_seconds is None
            else warning_seconds
        )
        ev = get_events()
        if ev.enabled:
            ev.open_warning(
                server_id,
                t=self.sim.now,
                capacity_rps=server.capacity_rps,
                warning_seconds=warning,
            )
        # Subclass hook between warning emission and the balancer's
        # reaction: the hybrid engine materializes fluid queue mass here
        # so the balancer's drain/defer decision sees real utilization.
        self._on_warning_issued(server_id, warning)
        self.balancer.on_warning(server_id, self.sim.now)
        self.sim.schedule(warning, self._kill, server_id)

    def _on_warning_issued(self, server_id: int, warning_seconds: float) -> None:
        """Hook invoked when a warning is issued, before the balancer reacts."""

    @units(None, "s", warning_seconds="s")
    def schedule_revocation(
        self, server_id: int, at_time: float, *, warning_seconds: float | None = None
    ) -> None:
        """Schedule a revocation warning at an absolute simulation time."""
        self.sim.schedule_at(
            at_time,
            lambda: self.revoke(server_id, warning_seconds=warning_seconds),
        )

    @units(None, "s", warning_seconds="s")
    def schedule_storm(
        self,
        server_ids: list[int],
        at_time: float,
        *,
        warning_seconds: float | None = None,
    ) -> None:
        """Schedule a correlated revocation storm: one warning window, many
        servers.

        Every listed server receives its revocation warning at the same
        instant — the "whole availability zone reclaimed at once" case.
        Each warning flows through the normal chain (``warning.issued`` →
        balancer reaction → kill → ``warning.resolved``); the storm only
        adds a ``storm.begin`` marker so journals can attribute the burst.
        """
        if not server_ids:
            raise ValueError("storm needs at least one server")
        ids = list(dict.fromkeys(server_ids))
        unknown = [i for i in ids if i not in self.servers]
        if unknown:
            raise KeyError(f"unknown servers: {unknown}")

        def _begin() -> None:
            ev = get_events()
            if ev.enabled:
                ev.emit(
                    "storm.begin",
                    t=self.sim.now,
                    servers=len(ids),
                    capacity_rps=sum(
                        self.servers[i].capacity_rps
                        for i in ids
                        if i in self.servers
                    ),
                )
            for server_id in ids:
                server = self.servers.get(server_id)
                if server is not None and server.alive:
                    self.revoke(server_id, warning_seconds=warning_seconds)

        self.sim.schedule_at(at_time, _begin)

    def _kill(self, server_id: int) -> None:
        server = self.servers.get(server_id)
        if server is None or not server.alive:
            return
        lost = server.kill()
        ev = get_events()
        if ev.enabled:
            wid = ev.warning_for(server_id)
            ev.emit(
                "server.killed",
                t=self.sim.now,
                cause=wid,
                backend=server_id,
                lost=lost,
            )
            if wid is not None:
                ev.resolve_warning(wid, t=self.sim.now, lost=lost)
        self._mark_capacity()

    def _mark_capacity(self) -> None:
        self.capacity_timeline.append(
            (self.sim.now, self.balancer.serving_capacity())
        )

    # ---------------------------------------------------------------- traffic
    def _session_for_request(self) -> int:
        """A new session id, or a uniform draw from the last 10k ids.

        ``integers(window)`` consumes the RNG exactly as ``choice`` over
        the window's id list would, without building that list.
        """
        window = self._session_window
        if not window or self._rng.random() < self.config.new_session_probability:
            sid = self._next_session
            self._next_session += 1
            self._session_window = min(window + 1, _SESSION_WINDOW)
            return sid
        return self._next_session - window + int(self._rng.integers(window))

    def _arrival(self, rate_fn: Callable[[float], float], t_end: float) -> None:
        now = self.sim.now
        scale = 1.0
        if (
            self.config.long_request_fraction > 0
            and self._rng.random() < self.config.long_request_fraction
        ):
            scale = self.config.long_service_scale
        self.balancer.dispatch(
            now, self._session_for_request(), service_scale=scale
        )
        rate = max(1e-9, float(rate_fn(now)))
        gap = float(self._rng.exponential(1.0 / rate))
        if now + gap < t_end:
            self.sim.schedule(gap, self._arrival, rate_fn, t_end)

    @units("s")
    def run(
        self,
        duration: float,
        rate: float | Callable[[float], float],
    ) -> LatencyRecorder:
        """Run ``duration`` seconds of Poisson traffic; returns the recorder.

        ``rate`` is requests/second — a constant or a function of sim time.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        rate_fn = rate if callable(rate) else (lambda _t, _r=float(rate): _r)
        t_end = self.sim.now + duration
        first_gap = float(
            self._rng.exponential(1.0 / max(1e-9, float(rate_fn(self.sim.now))))
        )
        if self.sim.now + first_gap < t_end:
            self.sim.schedule(first_gap, self._arrival, rate_fn, t_end)
        self.sim.run_until(t_end)
        if self.slo_engine is not None:
            self.slo_engine.finish(t_end)
        return self.recorder
