"""Tenant budgets: ceilings, admission, and the token bucket."""

import json

import pytest

from repro.serve.schema import RequestError
from repro.serve.tenants import TenantBudget, TenantRegistry, TokenBucket


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, now=clock)
        assert [bucket.admit() for _ in range(4)] == [True, True, True,
                                                      False]
        clock.advance(0.5)  # one token back at 2/s
        assert bucket.admit() is True
        assert bucket.admit() is False

    def test_refill_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, now=clock)
        clock.advance(60.0)
        assert [bucket.admit() for _ in range(3)] == [True, True, False]


class TestBudgetValidation:
    @pytest.mark.parametrize("spec", [
        {"fuel": 0}, {"fuel": "lots"}, {"fuel": True},
        {"value_cap": -1}, {"qps": 0}, {"qps": "fast"},
        {"burst": 1.5}, {"turbo": True},
        {"audit": "yes"}, {"audit": 1},
        {"audit_sample": -0.1}, {"audit_sample": 1.5},
        {"audit_sample": True}, {"audit_sample": "all"},
        {"backend": "gpu"}, {"lane_engine": "numpy"},
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            TenantBudget.from_dict("alice", spec)

    def test_round_trip(self):
        spec = {"fuel": 100, "value_cap": 8, "qps": 5, "backend": "interp"}
        assert TenantBudget.from_dict("alice", spec).to_dict() == spec

    def test_audit_keys_round_trip(self):
        budget = TenantBudget.from_dict(
            "alice", {"audit": False, "audit_sample": 0.25})
        assert budget.audit is False
        assert budget.audit_sample == 0.25
        assert budget.to_dict() == {"audit": False, "audit_sample": 0.25}
        # Unset keys inherit the server's choice, not a default of
        # their own.
        assert TenantBudget.from_dict("bob", {}).audit is None


class TestRegistry:
    def registry(self, **tenants):
        return TenantRegistry.from_dict(
            {"tenants": {name: spec for name, spec in tenants.items()}})

    def test_named_tenants_close_the_world(self):
        registry = self.registry(alice={"fuel": 10})
        assert registry.budget_for("alice").fuel == 10
        with pytest.raises(RequestError) as excinfo:
            registry.budget_for("mallory")
        assert excinfo.value.status == 403
        assert excinfo.value.code == "unknown_tenant"

    def test_default_only_config_admits_anyone(self):
        registry = TenantRegistry.from_dict({"default": {"fuel": 7}})
        assert registry.budget_for("anyone").fuel == 7

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(
            {"tenants": {"alice": {"value_cap": 8}}}))
        registry = TenantRegistry.from_file(str(path))
        assert registry.budget_for("alice").value_cap == 8
        assert registry.open_admission is False

    def test_qps_admission(self):
        clock = FakeClock()
        registry = TenantRegistry.from_dict(
            {"tenants": {"alice": {"qps": 1, "burst": 1}}}, now=clock)
        registry.admit("alice")
        with pytest.raises(RequestError) as excinfo:
            registry.admit("alice")
        assert excinfo.value.status == 429
        assert excinfo.value.code == "qps_exceeded"
        clock.advance(1.0)
        registry.admit("alice")  # refilled

    def test_effective_fuel_ceiling(self):
        registry = self.registry(alice={"fuel": 10})
        budget = registry.budget_for("alice")
        assert registry.effective_fuel(budget, None, 1000) == 10
        assert registry.effective_fuel(budget, 5, 1000) == 5
        with pytest.raises(RequestError) as excinfo:
            registry.effective_fuel(budget, 11, 1000)
        assert excinfo.value.code == "budget_exceeded"

    def test_effective_value_cap_only_tightens(self):
        registry = self.registry(alice={"value_cap": 8})
        budget = registry.budget_for("alice")
        assert registry.effective_value_cap(budget, None, None) == 8
        assert registry.effective_value_cap(budget, 4, None) == 4
        with pytest.raises(RequestError):
            registry.effective_value_cap(budget, 16, None)
        # An uncapped tenant inherits the server default but may tighten.
        loose = registry.effective_value_cap(registry.default, None, 32)
        assert loose == 32
        assert registry.effective_value_cap(registry.default, 8, 32) == 8
