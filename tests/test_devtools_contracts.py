"""Tests for the runtime contract layer (shapes, nonneg, units, freezing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devtools.contracts import (
    ContractError,
    UnitScalar,
    contracts_enabled,
    field_units,
    freeze_arrays,
    nonneg,
    per_request_prices,
    require_unit,
    rps,
    set_contracts,
    shapes,
    units,
    usd_per_hour,
    usd_per_hour_per_rps,
)


@pytest.fixture(autouse=True)
def _contracts_on():
    prev = set_contracts(True)
    yield
    set_contracts(prev)


# ------------------------------------------------------------------- shapes
def test_shapes_accepts_consistent_bindings():
    @shapes("(H,N)", "(N,)")
    def f(plan, prices):
        return plan @ prices

    plan = np.ones((4, 3))
    assert f(plan, np.ones(3)).shape == (4,)


def test_shapes_rejects_symbol_mismatch():
    @shapes("(H,N)", "(N,)")
    def f(plan, prices):
        return plan @ prices

    with pytest.raises(ContractError, match="prices"):
        f(np.ones((4, 3)), np.ones(5))


def test_shapes_rejects_wrong_ndim():
    @shapes("(N,)")
    def f(v):
        return v

    with pytest.raises(ContractError):
        f(np.ones((2, 2)))


def test_shapes_alternatives_allow_scalar_or_vector():
    @shapes("()|(H,)")
    def f(target):
        return target

    f(3.5)
    f(np.ones(4))
    with pytest.raises(ContractError):
        f(np.ones((2, 2)))


def test_shapes_fixed_and_wildcard_dims():
    @shapes("(2,*)")
    def f(pair):
        return pair

    f(np.ones((2, 7)))
    with pytest.raises(ContractError):
        f(np.ones((3, 7)))


def test_shapes_skips_none_values_and_star_specs():
    @shapes("(N,)", "*", extra="(N,)")
    def f(v, anything, extra=None):
        return v

    f(np.ones(3), {"not": "an array"})
    f(np.ones(3), 0, extra=np.ones(3))
    with pytest.raises(ContractError):
        f(np.ones(3), 0, extra=np.ones(4))


def test_shapes_checks_return_value():
    @shapes("(N,)", ret="(N,)")
    def good(v):
        return v * 2

    @shapes("(N,)", ret="(N,)")
    def bad(v):
        return np.outer(v, v)

    good(np.ones(3))
    with pytest.raises(ContractError, match="<return>"):
        bad(np.ones(3))


def test_shapes_is_a_noop_when_disabled():
    @shapes("(N,)")
    def f(v):
        return "ran"

    set_contracts(False)
    assert not contracts_enabled()
    assert f(np.ones((2, 2))) == "ran"


def test_shapes_rejects_specs_for_unknown_params_at_decoration():
    with pytest.raises(ValueError, match="unknown"):

        @shapes(typo="(N,)")
        def f(v):
            return v


def test_shapes_methods_skip_self():
    class Hub:
        @shapes("(N,)")
        def ingest(self, prices):
            return prices.sum()

    assert Hub().ingest(np.ones(3)) == 3.0
    with pytest.raises(ContractError):
        Hub().ingest(np.ones((3, 1)))


def test_shapes_scalar_spec_accepts_0d_inputs():
    @shapes("()")
    def f(target):
        return target

    f(3.5)  # plain Python number
    f(np.float64(2.0))  # NumPy scalar
    f(np.array(1.25))  # genuine 0-d array
    with pytest.raises(ContractError):
        f(np.ones(1))  # (1,) is not ()


def test_shapes_dtype_suffix_enforced_exactly():
    @shapes("(N,) f8")
    def f(prices):
        return prices

    f(np.ones(3))
    with pytest.raises(ContractError, match="float64"):
        f(np.ones(3, dtype=np.float32))
    with pytest.raises(ContractError, match="f8"):
        f(np.arange(3))  # int64 is not "anything numeric"


def test_shapes_alternatives_may_differ_in_dtype():
    @shapes("(N,) f8|(N,) i8")
    def f(v):
        return v

    f(np.ones(3))
    f(np.arange(3))
    with pytest.raises(ContractError):
        f(np.ones(3, dtype=np.float32))


def test_shapes_binding_conflict_across_parameters():
    # N binds on the *first* parameter; every later use must agree even
    # when each shape is individually plausible.
    @shapes("(N,)", "(N,)", "(N,N)")
    def f(a, b, c):
        return a

    f(np.ones(3), np.ones(3), np.ones((3, 3)))
    with pytest.raises(ContractError, match="'b'"):
        f(np.ones(3), np.ones(4), np.ones((3, 3)))
    with pytest.raises(ContractError, match="'c'"):
        f(np.ones(3), np.ones(3), np.ones((3, 4)))


def test_shapes_rejects_bad_dtype_suffix_at_decoration():
    with pytest.raises(ValueError, match="f16"):

        @shapes("(N,) f16")
        def f(v):
            return v


def test_declared_contracts_roundtrip_to_static_summaries(tmp_path):
    # The same decorator text the runtime checker enforces must parse
    # into spotshape's interprocedural summary table unchanged.
    from repro.devtools.shape.summaries import extract_summaries
    from repro.devtools.specs import format_spec, parse_spec

    source = (
        "from repro.devtools.contracts import shapes\n\n\n"
        '@shapes("(H,N)", "(N,) f8", ret="(H,)")\n'
        "def project(plan, prices):\n"
        "    return plan @ prices\n"
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    (summary,) = extract_summaries(source, path).summaries
    assert summary.args == ("plan", "prices")
    assert dict(summary.params) == {"plan": "(H,N)", "prices": "(N,) f8"}
    assert summary.ret == "(H,)"
    # Both consumers parse each spec to the identical canonical form.
    for spec in [*dict(summary.params).values(), summary.ret]:
        assert format_spec(parse_spec(spec)) == spec


# ------------------------------------------------------------------- nonneg
def test_nonneg_arrays_scalars_and_mappings():
    @nonneg("fractions", "rate", "weights")
    def f(fractions, rate, weights):
        return True

    assert f(np.ones(3), 2.0, {"a": 0.5, "b": 0.0})
    with pytest.raises(ContractError, match="fractions"):
        f(np.array([0.2, -0.3]), 2.0, {})
    with pytest.raises(ContractError, match="rate"):
        f(np.ones(3), -1.0, {})
    with pytest.raises(ContractError, match="weights"):
        f(np.ones(3), 1.0, {"a": -0.5})


def test_nonneg_tolerates_solver_jitter_and_none():
    @nonneg("v")
    def f(v=None):
        return True

    assert f(np.array([0.0, -1e-12]))
    assert f(None)


# ----------------------------------------------------------------- freezing
def test_freeze_arrays_makes_fields_readonly():
    class Box:
        def __init__(self, data):
            self.data = data

    box = Box([1.0, 2.0])
    freeze_arrays(box, "data")
    assert isinstance(box.data, np.ndarray)
    with pytest.raises(ValueError):
        box.data[0] = 9.0


# -------------------------------------------------------------------- units
def test_unit_scalars_tag_and_check():
    price = usd_per_hour(0.123)
    assert float(price) == pytest.approx(0.123)
    assert price.unit == "usd/(server*hr)"
    assert require_unit(price, "usd/(server*hr)") == pytest.approx(0.123)
    # Equivalence is grammatical, not string equality.
    assert require_unit(price, "usd/hr/server") == pytest.approx(0.123)
    with pytest.raises(ContractError):
        require_unit(price, "usd/(rps*hr)")
    # Plain floats pass through: tags are opt-in.
    assert require_unit(0.5, "usd/(server*hr)") == 0.5


def test_unit_mismatch_raises_even_with_contracts_disabled():
    set_contracts(False)
    with pytest.raises(ContractError):
        require_unit(rps(100.0), "usd/(server*hr)")


def test_unit_helpers_reject_negative_values():
    for helper in (usd_per_hour, usd_per_hour_per_rps, rps):
        with pytest.raises(ContractError):
            helper(-1.0)


def test_unit_arithmetic_degrades_to_float():
    total = usd_per_hour(0.1) * 3
    assert not isinstance(total, UnitScalar)
    assert total == pytest.approx(0.3)


# ---------------------------------------------------- the @units decorator
def test_units_checks_tagged_arguments_by_equivalence():
    @units("req/s", "usd/(server*hr)", ret="usd")
    def cost(rate, price):
        return float(rate) * float(price)

    # Tagged values with equivalent spellings pass; "rps" is "req/s".
    assert cost(rps(100.0), usd_per_hour(0.1)) == pytest.approx(10.0)
    # A tagged value in the wrong unit names the offending parameter.
    with pytest.raises(ContractError, match="'rate'"):
        cost(usd_per_hour(0.1), usd_per_hour(0.1))
    # Untagged plain floats carry no unit evidence and pass.
    assert cost(100.0, 0.1) == pytest.approx(10.0)


def test_units_checks_tagged_return_values():
    @units(None, ret="usd/(rps*hr)")
    def lies(value):
        return usd_per_hour(value)  # tagged usd/(server*hr), not per-rps

    with pytest.raises(ContractError, match="<return>"):
        lies(0.25)


def test_units_methods_skip_self_and_keyword_specs_bind_by_name():
    class Biller:
        @units("hr", price="usd/(server*hr)")
        def bill(self, hours, price):
            return float(hours) * float(price)

    biller = Biller()
    assert biller.bill(2.0, usd_per_hour(0.5)) == pytest.approx(1.0)
    with pytest.raises(ContractError, match="'price'"):
        biller.bill(2.0, price=rps(0.5))


def test_units_decoration_time_validation():
    with pytest.raises(ValueError):  # more specs than parameters

        @units("s", "s")
        def one(x):
            return x

    with pytest.raises(ValueError):  # unknown keyword parameter

        @units(nope="s")
        def two(x):
            return x

    with pytest.raises(ValueError):  # spec must parse in the shared grammar

        @units("furlongs")
        def three(x):
            return x


def test_units_is_a_noop_when_disabled():
    @units("req/s")
    def f(rate):
        return float(rate)

    set_contracts(False)
    assert f(usd_per_hour(1.0)) == 1.0  # wrong tag, but checks are off


def test_field_units_records_and_validates_declarations():
    import dataclasses

    @field_units(rate="req/s", width="s/interval")
    @dataclasses.dataclass
    class Obs:
        rate: float
        width: float

    assert Obs.__unit_fields__ == {"rate": "req/s", "width": "s/interval"}

    with pytest.raises(ValueError):  # a typo'd field fails at import time

        @field_units(rte="req/s")
        @dataclasses.dataclass
        class Typo:
            rate: float


def test_field_units_inherits_and_overrides():
    @field_units(t="s")
    class Base:
        pass

    @field_units(t="ms", cost="usd")
    class Derived(Base):
        pass

    assert Base.__unit_fields__ == {"t": "s"}
    assert Derived.__unit_fields__ == {"t": "ms", "cost": "usd"}


def test_per_request_prices_conversion():
    prices = np.array([1.0, 2.0])
    caps = np.array([100.0, 400.0])
    np.testing.assert_allclose(per_request_prices(prices, caps), [0.01, 0.005])
    with pytest.raises(ContractError):
        per_request_prices(prices, np.array([100.0, 0.0]))
    with pytest.raises(ContractError):
        per_request_prices(np.array([-1.0, 2.0]), caps)


# ------------------------------------------------------- compiled wrappers
def test_wrappers_never_bind_signatures(monkeypatch):
    import inspect

    def no_bind(self, *args, **kwargs):
        raise AssertionError("Signature.bind called on the call path")

    @units("s", limit="req/s")
    @shapes("()", limit="()")
    @nonneg("delay", "limit")
    def f(delay, *, limit=None):
        return delay

    monkeypatch.setattr(inspect.Signature, "bind", no_bind)
    assert f(1.0, limit=2.0) == 1.0
    with pytest.raises(ContractError):
        f(UnitScalar(1.0, "req/s"))


def test_schedule_checks_delay_positionally_by_keyword_and_before_varargs():
    from repro.simulator.des import Simulator

    sim = Simulator()
    wrong = UnitScalar(1.0, "req/s")
    with pytest.raises(ContractError, match="'delay'"):
        sim.schedule(wrong, print)
    with pytest.raises(ContractError, match="'delay'"):
        sim.schedule(delay=wrong, fn=print)
    with pytest.raises(ContractError, match="'delay'"):
        sim.schedule(wrong, print, 1, 2)
    with pytest.raises(ContractError, match="'time'"):
        sim.schedule_at(wrong, print, "arg")
    # The right unit passes, and *args reach the callback untouched.
    out = []
    sim.schedule(UnitScalar(1.0, "s"), lambda a, b: out.append((a, b)), 1, 2)
    sim.run()
    assert out == [(1, 2)]


def test_omitted_defaults_are_not_checked():
    @units("s", limit="req/s")
    def f(delay, limit=UnitScalar(5.0, "usd")):
        return delay

    @shapes("(N,)", other="(N,)")
    def g(v, other=np.ones((2, 2))):
        return v

    assert f(1.0) == 1.0
    with pytest.raises(ContractError, match="'limit'"):
        f(1.0, UnitScalar(5.0, "usd"))
    with pytest.raises(ContractError, match="'limit'"):
        f(1.0, limit=UnitScalar(5.0, "usd"))
    g(np.ones(3))
    with pytest.raises(ContractError, match="'other'"):
        g(np.ones(3), np.ones((2, 2)))


def test_missing_and_extra_arguments_raise_type_error():
    @units("s", "s")
    def f(a, b):
        return a

    @shapes("(N,)", "(N,)")
    def g(a, b):
        return a

    @nonneg("a")
    def h(a, *, b=0.0):
        return a

    for wrapped in (f, g):
        with pytest.raises(TypeError):
            wrapped(np.ones(2))
        with pytest.raises(TypeError):
            wrapped(np.ones(2), np.ones(2), np.ones(2))
        with pytest.raises(TypeError):
            wrapped(np.ones(2), np.ones(2), extra=1)
        with pytest.raises(TypeError):
            wrapped(np.ones(2), a=np.ones(2))
    with pytest.raises(TypeError):
        h()
    with pytest.raises(TypeError):
        h(1.0, 2.0)  # b is keyword-only


def test_shapes_bind_symbols_across_keyword_and_keyword_only_params():
    @shapes("(N,)", other="(N,N)")
    def f(v, *, other=None):
        return v

    f(np.ones(3), other=np.ones((3, 3)))
    f(v=np.ones(3), other=np.ones((3, 3)))
    # Keyword specs are checked first: N binds on 'other', 'v' disagrees.
    with pytest.raises(ContractError, match="'v'"):
        f(np.ones(4), other=np.ones((3, 3)))
    with pytest.raises(ContractError, match="'v'"):
        f(v=np.ones(4), other=np.ones((3, 3)))


def test_nonneg_mappings_positional_and_by_keyword():
    @nonneg("weights")
    def f(scale, weights):
        return True

    assert f(1.0, {"a": 0.0})
    with pytest.raises(ContractError, match="weights"):
        f(1.0, {"a": -0.5})
    with pytest.raises(ContractError, match="weights"):
        f(1.0, weights={"a": 0.25, "b": -0.5})
    with pytest.raises(ContractError, match="weights"):
        f(scale=1.0, weights={"a": -0.5})


def test_specs_on_variadic_parameters_rejected_at_decoration():
    with pytest.raises(ValueError, match="variadic"):

        @units(args="s")
        def f(*args):
            return args

    with pytest.raises(ValueError, match="variadic"):

        @nonneg("kwargs")
        def g(**kwargs):
            return kwargs
