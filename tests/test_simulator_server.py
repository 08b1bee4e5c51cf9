"""Unit tests for the multi-worker FIFO server model."""

import numpy as np
import pytest

from repro.simulator import LatencyRecorder, ServerPhase, SimServer, Simulator


def make_server(sim=None, recorder=None, **kwargs):
    sim = sim or Simulator()
    recorder = recorder or LatencyRecorder()
    defaults = dict(
        server_id=0,
        capacity_rps=100.0,
        service_time=0.1,
        boot_seconds=0.0,
        warmup_seconds=0.0,
        cold_multiplier=1.0,
        seed=1,
    )
    defaults.update(kwargs)
    return sim, recorder, SimServer(sim, recorder, **defaults)


class TestLifecycle:
    def test_boots_then_accepts(self):
        sim = Simulator()
        rec = LatencyRecorder()
        server = SimServer(
            sim, rec, server_id=0, capacity_rps=100.0, boot_seconds=10.0
        )
        assert server.phase is ServerPhase.BOOTING
        assert not server.submit()
        sim.run_until(10.0)
        assert server.phase is ServerPhase.RUNNING
        assert server.submit()

    def test_drain_blocks_new_but_allows_migrated(self):
        sim, rec, server = make_server()
        server.drain()
        assert server.phase is ServerPhase.DRAINING
        assert not server.submit()
        assert server.submit(migrated=True)

    def test_kill_fails_in_flight(self):
        sim, rec, server = make_server()
        for _ in range(5):
            assert server.submit()
        lost = server.kill()
        assert lost == 5
        assert rec.failed == 5
        assert server.phase is ServerPhase.DEAD
        assert not server.submit()
        # Pending completion events must not record served latencies.
        sim.run_until(10.0)
        assert rec.served == 0

    def test_workers_sized_from_capacity(self):
        _, _, server = make_server(capacity_rps=200.0, service_time=0.05)
        assert server.workers == 10


class TestQueueing:
    def test_latency_grows_with_load(self):
        sim, rec, server = make_server(capacity_rps=50.0)
        # Burst of 200 requests at t=0 into a 5-worker pool: queueing delay.
        for _ in range(200):
            server.submit()
        sim.run()
        assert rec.served == 200
        assert rec.percentile(90) > rec.percentile(10)
        assert rec.mean() > 0.1

    def test_admission_bound(self):
        sim, rec, server = make_server(
            capacity_rps=10.0, queue_limit_seconds=0.5
        )
        accepted = sum(server.submit() for _ in range(500))
        assert accepted < 500
        assert server.expected_wait() <= 0.6 + 0.5

    def test_stable_load_low_latency(self):
        sim, rec, server = make_server(capacity_rps=100.0, seed=3)
        rng = np.random.default_rng(0)
        t = 0.0
        # 50 rps Poisson arrivals for 20 s at 50% utilization.
        while t < 20.0:
            t += rng.exponential(1 / 50.0)
            sim.schedule_at(t, server.submit)
        sim.run()
        assert rec.served > 900
        assert rec.percentile(50) < 0.3


class TestWarmup:
    def test_cold_cache_inflates_service(self):
        sim1, rec1, cold = make_server(
            warmup_seconds=60.0, cold_multiplier=3.0, seed=5
        )
        for _ in range(50):
            cold.submit()
        sim1.run()
        sim2, rec2, warm = make_server(
            warmup_seconds=0.0, cold_multiplier=1.0, seed=5
        )
        for _ in range(50):
            warm.submit()
        sim2.run()
        assert rec1.mean() > rec2.mean()

    def test_warmup_decays(self):
        sim, rec, server = make_server(
            warmup_seconds=10.0, cold_multiplier=4.0, seed=6
        )
        # Probe the multiplier indirectly through the mean sampled service.
        samples_cold = [server._current_service_time() for _ in range(2000)]
        sim.run_until(20.0)  # past warmup
        samples_warm = [server._current_service_time() for _ in range(2000)]
        assert np.mean(samples_cold) > 2.5 * np.mean(samples_warm)


class TestValidation:
    def test_bad_params(self):
        sim = Simulator()
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            SimServer(sim, rec, server_id=0, capacity_rps=0.0)
        with pytest.raises(ValueError):
            SimServer(
                sim, rec, server_id=0, capacity_rps=10.0, cold_multiplier=0.5
            )

    def test_utilization_range(self):
        sim, rec, server = make_server()
        assert server.utilization() == 0.0
        for _ in range(50):
            server.submit()
        assert 0.0 <= server.utilization() <= 1.0


class TestProbeReference:
    def test_list_probes_match_numpy_reference(self):
        """Worker slots are a plain list; probes and slot choice must equal
        the numpy reductions they replaced, bit for bit."""
        sim, rec, server = make_server(capacity_rps=80.0, seed=4)
        rng = np.random.default_rng(9)
        t = 0.0
        for _ in range(400):
            t += float(rng.exponential(0.01))
            sim.run_until(t)
            free = np.asarray(server._worker_free)
            assert server.utilization() == float(np.mean(free > sim.now))
            assert server.expected_wait() == max(
                0.0, float(free.min()) - sim.now
            )
            before = list(server._worker_free)
            if server.submit():
                changed = [
                    i for i, (a, b) in enumerate(zip(before, server._worker_free))
                    if a != b
                ]
                assert changed == [int(np.argmin(before))]
        assert rec.served > 0 and server.utilization() > 0.0
