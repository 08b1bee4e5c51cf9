#!/usr/bin/env python3
"""End-to-end benchmark of the SpotWeb reproduction in its shipped configuration.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload request_storm --seed 1 --seconds 15 --trace 0

Workloads: ``request_storm``, ``fleet_fluid``, ``mpo_small``, ``mpo_large``
(see ``perfbench/README.md`` for what each exercises and why).

``--trace 0`` measures the end-to-end metrics with runtime contracts on,
as shipped, over repeated passes of the workload's episodes; host times
are CPU seconds of this process, each taken at its slowest pass.
``--trace 1`` measures the per-layer metrics instead: it alternates an
untraced pass, a pass with contracts off and a traced pass over the
workload's first episode.  Either way every episode's outputs are
checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, preceded by a table
of every metric with its unit and sample count.  The exit code is 0 when
every check passed, 1 when one failed, 2 when the program is missing and
3 when the checks' self-test failed.
"""

import os

# One BLAS thread: the benchmark runs one process on a small machine and
# BLAS threads would contend with it.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

__all__ = ["main", "measure_end_to_end", "measure_layers", "Outcome"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: What "package import" means for setup_s: the program's modules the
#: workloads use, with numpy and scipy, in a fresh interpreter.
IMPORTS = (
    "import numpy, scipy.stats, repro.core, repro.core.policy, repro.markets, "
    "repro.predictors, repro.simulator, repro.simulator.hybrid, "
    "repro.loadbalancer.transiency, repro.workloads"
)

#: Set-up is timed this many times per run; setup_s takes the slowest.
SETUP_REPEATS = 3

#: Passes over a workload's episodes that a run makes at least: the
#: second is the determinism check.
MIN_PASSES = 2

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_requests_per_s": "1/s",
    "sim_p99_ms": "ms",
    "slo_miss_frac": "frac",
    "intervals_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "cost_usd": "usd",
    "unserved_frac": "frac",
}


def _time_import_in_child() -> float:
    code = f"import time; t0 = time.process_time(); {IMPORTS}; print(time.process_time() - t0)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Outcome:
    """Tally of checked operations and the messages of failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failures.extend(f"{label}: {p}" for p in problems)


def _check_episode(outcome: Outcome, checks, kind: str, label: str, result) -> None:
    for check in checks.episode_checks(kind):
        outcome.check(f"{label} {check.__name__}", check(result.ledger))


def _time_imports() -> list[float]:
    """Package import times: this process's first import, then children's."""
    t0_s = time.process_time()
    exec(IMPORTS)  # noqa: S102 - the same statement the children time
    samples = [time.process_time() - t0_s]
    return samples + [_time_import_in_child() for _ in range(SETUP_REPEATS - 1)]


def _time_builds(workloads, specs) -> tuple[list[float], list]:
    """Input build times; returns the samples and the last build."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0_s = time.process_time()
        built = [workloads.build_episode(spec) for spec in specs]
        samples.append(time.process_time() - t0_s)
    return samples, built


def measure_end_to_end(args, workloads, checks, specs, kind, built, outcome):
    """Run passes over every episode until the time is spent, at least
    ``MIN_PASSES``.

    Every pass does the same work (the determinism check holds it to
    that), so each step and each slice of host time counts at its slowest
    over the passes: the cost of that work when the shared core is busy,
    which repeats from run to run (see README.md, Host time).
    """
    runs = [[] for _ in specs]
    pass_s = []
    start_s = time.perf_counter()
    while True:
        t0_s = time.perf_counter()
        for k, spec in enumerate(specs):
            inputs = built[k] if not pass_s else workloads.build_episode(spec)
            result = workloads.run_episode(spec, inputs)
            label = f"episode {k} pass {len(pass_s)}"
            _check_episode(outcome, checks, kind, label, result)
            if runs[k]:
                first = runs[k][0].stats
                outcome.check(label, checks.identical(first, result.stats))
            runs[k].append(result)
        pass_s.append(time.perf_counter() - t0_s)
        elapsed_s = time.perf_counter() - start_s
        typical_s = statistics.median(pass_s)
        if len(pass_s) >= MIN_PASSES and elapsed_s + typical_s > args.seconds:
            break
    n = len(pass_s) * len(specs)
    print(f"passes {len(pass_s)} (wall s: {[round(x, 2) for x in pass_s]})")
    host_s = sum(
        max(cell)
        for episode in runs
        for cell in zip(*(r.slice_s for r in episode))
    )
    steps_ms = [
        1e3 * max(step)
        for episode in runs
        for step in zip(*(r.step_s for r in episode))
    ]
    cycle = [episode[0] for episode in runs]
    offered = sum(r.stats["offered"] for r in cycle)
    metrics = {
        "sim_requests_per_s": (offered / host_s, n),
        "sim_p99_ms": (
            statistics.median(r.stats["sim_p99_ms"] for r in cycle),
            len(cycle),
        ),
        "slo_miss_frac": (
            sum(r.stats["slo_miss_frac"] * r.stats["offered"] for r in cycle) / offered,
            round(offered),
        ),
        "intervals_per_s": (sum(r.stats["intervals"] for r in cycle) / host_s, n),
        "step_p50_ms": (statistics.median(steps_ms), len(steps_ms)),
        "step_p99_ms": (
            statistics.quantiles(steps_ms, n=100, method="inclusive")[98],
            len(steps_ms),
        ),
        "cost_usd": (sum(r.stats["cost_usd"] for r in cycle), len(cycle)),
        "unserved_frac": (
            sum(r.stats["unserved_frac"] * r.stats["offered"] for r in cycle)
            / offered,
            round(offered),
        ),
    }
    return metrics


def measure_layers(args, workloads, checks, layers, specs, kind, outcome):
    """Rounds of (contracts on, contracts off, traced) over episode 0, as
    many as fit in the time, at least one."""
    from repro.devtools.contracts import set_contracts

    spec = specs[0]
    first = None
    rounds = []
    per_pass = []
    round_s = []
    start_s = time.perf_counter()
    while True:
        t0_s = time.perf_counter()
        hosts = {}
        for mode in ("on", "off", "traced"):
            inputs = workloads.build_episode(spec)
            if mode == "traced":
                with layers.LayerTrace() as trace:
                    result = workloads.run_episode(spec, inputs, trace)
                per_pass.append(layers.layer_metrics(trace, result.stats))
            else:
                previous = set_contracts(mode == "on")
                try:
                    result = workloads.run_episode(spec, inputs)
                finally:
                    set_contracts(previous)
            label = f"episode 0 {mode} round {len(rounds)}"
            _check_episode(outcome, checks, kind, label, result)
            if first is None:
                first = result.stats
            else:
                outcome.check(label, checks.identical(first, result.stats))
            hosts[mode] = sum(result.slice_s)
        rounds.append(hosts)
        round_s.append(time.perf_counter() - t0_s)
        elapsed_s = time.perf_counter() - start_s
        if elapsed_s + statistics.median(round_s) > args.seconds:
            break
    metrics = {
        name: (statistics.fmean(p[name] for p in per_pass), len(per_pass))
        for name in per_pass[0]
    }
    metrics["contracts.overhead_frac"] = (
        statistics.median((r["on"] - r["off"]) / r["on"] for r in rounds),
        len(rounds),
    )
    metrics["trace.overhead_frac"] = (
        statistics.median((r["traced"] - r["on"]) / r["on"] for r in rounds),
        len(rounds),
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import checks
    import selftest

    problems = selftest.run()
    if problems:
        print("error: check self-test failed:", *problems, sep="\n  ", file=sys.stderr)
        return 3
    compileall.compile_dir(str(SRC), quiet=1)
    # Timed before this process imports numpy or the program.
    imports = [] if args.trace else _time_imports()

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    specs = workloads.WORKLOADS[args.workload](args.seed)
    kind = "cluster" if isinstance(specs[0], workloads.ClusterEpisode) else "controller"
    outcome = Outcome()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        values = measure_layers(args, workloads, checks, layers, specs, kind, outcome)
        units = {name: layers.unit_of(name) for name in values}
    else:
        builds, built = _time_builds(workloads, specs)
        print(
            f"setup samples (s): import {[round(x, 3) for x in imports]}, "
            f"build {[round(x, 3) for x in builds]}"
        )
        values = measure_end_to_end(
            args, workloads, checks, specs, kind, built, outcome
        )
        setup_s = max(imports) + max(builds)
        values["setup_s"] = (setup_s, SETUP_REPEATS)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = (rss_kib / 1024.0, 1)
        units = UNITS

    print(f"{'metric':<28} {'value':>16} {'unit':<6} n")
    for name in sorted(values):
        value, n = values[name]
        print(f"{name:<28} {value:>16.6g} {units[name]:<6} {n}")
    for failure in outcome.failures:
        print(f"CHECK FAILED {failure}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _n) in sorted(values.items())
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
