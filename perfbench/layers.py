"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerTrace` patches public functions of the program's layers with
timing wrappers for the duration of a ``with`` block and restores them on
exit.  Spans nest through a stack: each span's self time is its duration
minus the durations of the timed spans it directly encloses.  Spans are
aggregated per name in memory (calls, total, self) because the
request-level workload opens millions of them.

:func:`layer_metrics` turns the aggregates plus the episodes' own counts
into the per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["LayerTrace", "layer_metrics", "unit_of"]

_MS = 1e-6  # ns -> ms


class LayerTrace:
    """Span aggregates per name: ``[calls, total_ns, self_ns]``."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}
        self.admitted = 0
        self.solver_iterations: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[type, str, object]] = []

    # ---------------------------------------------------------------- spans
    def timed(self, name: str, func, on_result=None):
        """``func`` wrapped in a span named ``name``."""
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0_ns = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - t0_ns
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap(self, owner: type, attr: str, name: str, on_result=None) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, on_result))

    # -------------------------------------------------------------- patching
    def __enter__(self) -> "LayerTrace":
        from repro.core.controller import SpotWebController
        from repro.core.mpo import MPOOptimizer
        from repro.core.portfolio import Allocation
        from repro.loadbalancer.transiency import TransiencyAwareLoadBalancer
        from repro.loadbalancer.wrr import SmoothWeightedRoundRobin
        from repro.markets.revocation import CorrelatedRevocationSampler
        from repro.predictors import (
            AR1PricePredictor,
            ReactiveFailurePredictor,
            SplinePredictor,
        )
        from repro.simulator.des import Simulator
        from repro.simulator.fluid import FluidEngine
        from repro.simulator.metrics import LatencyRecorder
        from repro.simulator.runner import CostSimulator
        from repro.simulator.server import SimServer
        from repro.solvers.qp import ADMMCore

        def admitted(ok: bool) -> None:
            self.admitted += bool(ok)

        def solved(result) -> None:
            self.solver_iterations.append(int(result.iterations))

        lb = TransiencyAwareLoadBalancer
        self.wrap(Simulator, "schedule_at", "des.schedule")
        self.wrap(lb, "dispatch", "lb.dispatch", admitted)
        self.wrap(lb, "on_warning", "lb.on_warning")
        self.wrap(SmoothWeightedRoundRobin, "pick", "wrr.pick")
        self.wrap(SimServer, "submit", "server.submit")
        self.wrap(SimServer, "utilization", "server.probe")
        self.wrap(SimServer, "expected_wait", "server.probe")
        for attr in ("record_served", "record_dropped", "record_failed"):
            self.wrap(LatencyRecorder, attr, "recorder.record")
        for attr in ("record_served_mass", "record_dropped_mass", "record_failed_mass"):
            self.wrap(LatencyRecorder, attr, "recorder.mass")
        self.wrap(FluidEngine, "step", "fluid.step")
        self.wrap(FluidEngine, "sync", "fluid.sync")
        self.wrap(CostSimulator, "run", "runner")
        self.wrap(CorrelatedRevocationSampler, "sample", "revocation.sample")
        self.wrap(SpotWebController, "step", "controller.step")
        for cls in (SplinePredictor, AR1PricePredictor, ReactiveFailurePredictor):
            self.wrap(cls, "observe", "predictor.observe")
            self.wrap(cls, "predict", "predictor.predict")
        self.wrap(Allocation, "counts", "discretize")
        self.wrap(MPOOptimizer, "optimize", "mpo.optimize")
        self.wrap(ADMMCore, "solve", "solver.solve", solved)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --------------------------------------------------------------- reading
    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0, 0])[0]

    def total_ms(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[1] * _MS

    def self_ms(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[2] * _MS


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_ms", ".ms")) or name == "solver.ms_per_iteration":
        return "ms"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: LayerTrace, stats: dict) -> dict[str, float]:
    """Per-layer metric values of one traced episode with statistics ``stats``."""

    def total(key: str) -> float:
        return float(stats.get(key, 0))

    events = total("des_events")
    scheduled = trace.calls("des.schedule") + total("des_pending_at_start")
    dispatches = trace.calls("lb.dispatch")
    iters = np.asarray(trace.solver_iterations or [0])
    solve_ms = trace.total_ms("solver.solve")
    return {
        "des.events": events,
        "des.scheduled": float(scheduled),
        "des.useful_ratio": _ratio(events, scheduled),
        # Kernel time: the outermost run span's own time (heap, arrival and
        # session-draw glue) plus event scheduling.
        "des.self_ms": trace.self_ms("sim.run") + trace.total_ms("des.schedule"),
        "lb.dispatch.calls": float(dispatches),
        "lb.dispatch.self_ms": trace.self_ms("lb.dispatch"),
        "lb.admit_ratio": _ratio(trace.admitted, dispatches),
        "wrr.pick.ms": trace.total_ms("wrr.pick"),
        "lb.on_warning.calls": float(trace.calls("lb.on_warning")),
        "lb.on_warning.ms": trace.total_ms("lb.on_warning"),
        "lb.migrations": total("migrations"),
        "lb.reprovision_requests": total("reprovision_requests"),
        "server.submit.calls": float(trace.calls("server.submit")),
        "server.submit.self_ms": trace.self_ms("server.submit"),
        "server.probe.calls": float(trace.calls("server.probe")),
        "server.probe.ms": trace.total_ms("server.probe"),
        "recorder.record.calls": float(trace.calls("recorder.record")),
        "recorder.record.ms": trace.total_ms("recorder.record"),
        "recorder.mass.calls": float(trace.calls("recorder.mass")),
        "recorder.mass.ms": trace.total_ms("recorder.mass"),
        "fluid.step.calls": float(trace.calls("fluid.step")),
        "fluid.step.ms": trace.total_ms("fluid.step"),
        "fluid.sync.ms": trace.total_ms("fluid.sync"),
        "hybrid.tier_steps.fluid": total("tier_steps_fluid"),
        "hybrid.tier_steps.request": total("tier_steps_request"),
        "runner.self_ms": trace.self_ms("runner"),
        "revocation.sample.calls": float(trace.calls("revocation.sample")),
        "revocation.sample.ms": trace.total_ms("revocation.sample"),
        "controller.step.self_ms": trace.self_ms("controller.step"),
        "predictor.observe.ms": trace.total_ms("predictor.observe"),
        "predictor.predict.ms": trace.total_ms("predictor.predict"),
        "discretize.ms": trace.total_ms("discretize"),
        "mpo.optimize.self_ms": trace.self_ms("mpo.optimize"),
        "solver.solve.ms": solve_ms,
        "solver.iterations.p50": float(np.percentile(iters, 50)),
        "solver.iterations.p95": float(np.percentile(iters, 95)),
        "solver.ms_per_iteration": _ratio(solve_ms, float(iters.sum())),
        "solver.not_optimal": total("not_optimal"),
    }
