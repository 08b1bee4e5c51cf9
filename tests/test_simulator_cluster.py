"""Integration-style tests for the request-level cluster simulation."""

import numpy as np
import pytest

from repro.loadbalancer import TransiencyAwareLoadBalancer
from repro.simulator import ClusterConfig, ClusterSimulation


def quick_config(**kw):
    defaults = dict(seed=0, boot_seconds=5.0, warmup_seconds=5.0)
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestSteadyState:
    def test_low_utilization_serves_everything(self):
        cluster = ClusterSimulation(quick_config())
        cluster.add_server(100.0, boot_seconds=0.0)
        rec = cluster.run(30.0, rate=40.0)
        assert rec.drop_rate() < 0.01
        assert rec.mean() < 0.5
        assert rec.served > 30 * 40 * 0.8

    def test_overload_drops(self):
        cluster = ClusterSimulation(quick_config())
        cluster.add_server(20.0, boot_seconds=0.0)
        rec = cluster.run(30.0, rate=100.0)
        assert rec.drop_rate() > 0.3

    def test_time_varying_rate(self):
        cluster = ClusterSimulation(quick_config())
        cluster.add_server(200.0, boot_seconds=0.0)
        rec = cluster.run(20.0, rate=lambda t: 10.0 if t < 10 else 100.0)
        early = rec.window(0.0, 10.0)
        late = rec.window(10.0, 20.0)
        assert late.size > 3 * early.size


class TestRevocation:
    def test_revocation_kills_after_warning(self):
        cfg = quick_config(warning_seconds=5.0)
        cluster = ClusterSimulation(cfg)
        s = cluster.add_server(100.0, boot_seconds=0.0)
        cluster.schedule_revocation(s.server_id, 10.0)
        cluster.run(30.0, rate=10.0)
        assert not s.alive
        # Capacity timeline recorded the death.
        times = [t for t, _ in cluster.capacity_timeline]
        assert any(abs(t - 15.0) < 1e-6 for t in times)

    def test_transiency_lb_reprovision_hook(self):
        cfg = quick_config(warning_seconds=20.0, boot_seconds=5.0)
        cluster_ref = {}

        def reprovision(capacity, _now):
            cluster_ref["c"].add_server(capacity)

        factory = lambda rec: TransiencyAwareLoadBalancer(  # noqa: E731
            rec, reprovision=reprovision
        )
        cluster = ClusterSimulation(cfg, factory)
        cluster_ref["c"] = cluster
        a = cluster.add_server(50.0, boot_seconds=0.0)
        cluster.add_server(50.0, boot_seconds=0.0)
        cluster.schedule_revocation(a.server_id, 5.0)
        rec = cluster.run(60.0, rate=80.0)
        # A replacement was started (3 servers total seen).
        assert len(cluster.servers) == 3
        assert rec.drop_rate() < 0.2


class TestSessions:
    def test_sessions_created_and_reused(self):
        cfg = quick_config(new_session_probability=0.5)
        cluster = ClusterSimulation(cfg)
        cluster.add_server(100.0, boot_seconds=0.0)
        cluster.run(10.0, rate=50.0)
        assert cluster._next_session > 10
        assert len(cluster.balancer.sessions) > 0

    def test_session_draw_matches_list_choice_reference(self):
        """The O(1) draw replays a 10k-id window list sampled with choice()."""
        cfg = quick_config(seed=3, new_session_probability=0.5)
        cluster = ClusterSimulation(cfg)
        rng = np.random.default_rng(cfg.seed)
        window: list[int] = []
        next_id = 0
        expected = []
        for _ in range(30_000):
            if not window or rng.random() < cfg.new_session_probability:
                expected.append(next_id)
                window.append(next_id)
                next_id += 1
                if len(window) > 10_000:
                    window.pop(0)
            else:
                expected.append(int(rng.choice(window)))
        drawn = [cluster._session_for_request() for _ in range(30_000)]
        assert next_id > 12_000  # the window filled and slid
        assert drawn == expected
        assert cluster._next_session == next_id
        # Both generators are left in the same state.
        assert cluster._rng.random() == rng.random()


class TestPinnedStorm:
    """One seeded request-level storm run, pinned to its recorded outputs.

    The per-request path (session draw, event heap, server queues,
    balancer) may get faster but must not change a single outcome.
    """

    def test_storm_outputs_are_pinned(self):
        cfg = ClusterConfig(
            seed=11,
            boot_seconds=8.0,
            warmup_seconds=5.0,
            warning_seconds=2.0,
            new_session_probability=0.5,
        )
        holder = {}

        def reprovision(capacity, _now):
            holder["cluster"].add_server(capacity)

        cluster = ClusterSimulation(
            cfg,
            lambda rec: TransiencyAwareLoadBalancer(rec, reprovision=reprovision),
        )
        holder["cluster"] = cluster
        for _ in range(10):
            cluster.add_server(100.0, boot_seconds=0.0)
        cluster.schedule_storm([0, 1], 6.0)
        cluster.schedule_storm([2, 3], 14.0)
        rec = cluster.run(24.0, rate=920.0)
        lb = cluster.balancer
        assert (rec.served, rec.dropped, rec.failed) == (18375, 1086, 790)
        assert rec.percentile(99) == 2.418620060714391
        assert rec.mean() == 1.845235527463612
        assert (lb.migrations, lb.reprovision_requests) == (2604, 4)
        assert cluster.sim.processed == 41154
        assert cluster._next_session == 11167  # the session window slid


class TestValidation:
    def test_bad_duration(self):
        cluster = ClusterSimulation(quick_config())
        with pytest.raises(ValueError):
            cluster.run(0.0, rate=10.0)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(service_time=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(new_session_probability=2.0)
