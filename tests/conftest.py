"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devtools.contracts import set_contracts
from repro.markets import default_catalog, generate_market_dataset
from repro.workloads import wikipedia_like

# The runtime contract layer (shape/sign/unit checks at the hot seams) is
# always active under the test suite, regardless of SPOTWEB_CONTRACTS.
set_contracts(True)


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def small_markets(catalog):
    """Six spot markets — enough for portfolio structure, fast to solve."""
    return catalog.spot_markets(6)


@pytest.fixture(scope="session")
def small_dataset(small_markets):
    """One week of hourly market data over the six markets."""
    return generate_market_dataset(small_markets, intervals=7 * 24, seed=123)


@pytest.fixture(scope="session")
def wiki_week():
    """One week of the Wikipedia-like workload at a 2000 req/s peak."""
    return wikipedia_like(1, seed=123).scaled(2000.0)


def random_feasible_qp(rng: np.random.Generator, n: int, m: int):
    """A random strictly convex QP with a guaranteed-feasible box."""
    from repro.solvers import QPProblem

    L = rng.normal(size=(n, n))
    P = L @ L.T + 0.1 * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    Ax0 = A @ x0
    slack_lo = rng.uniform(0.05, 2.0, size=m)
    slack_hi = rng.uniform(0.05, 2.0, size=m)
    return QPProblem(P, q, A, Ax0 - slack_lo, Ax0 + slack_hi)


@pytest.fixture(scope="session")
def spotcheck_cache(tmp_path_factory):
    """One spotcheck cache for every whole-tree gate in the session: the
    first run over the real tree extracts it, later runs reuse it."""
    return tmp_path_factory.mktemp("spotcheck") / "cache.json"
