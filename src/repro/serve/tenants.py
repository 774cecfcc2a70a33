"""Tenant budgets: fuel/value-cap ceilings and QPS admission.

A tenant is a named principal sharing the server process (the
multi-principal setting of Almeida Matos & Cederquist, PAPERS.md).
Each carries *ceilings* — the largest fuel and value-cap budgets its
requests may use — plus an optional QPS limit enforced by a token
bucket.  A request may tighten its own budgets below the ceiling but
never loosen past it: enforcement budgets are a security policy, not a
preference.

Isolation invariant (the env-leak regression test): budgets flow from
here into mechanisms as *explicit parameters*.  Nothing below the
serve layer reads ``os.environ``, so one tenant's budgets can never
become another's.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, Optional

from ..flowchart.fastpath import BACKEND_ALIASES, BACKENDS
from .schema import RequestError

__all__ = ["TenantBudget", "TenantRegistry", "TokenBucket"]


class TenantBudget:
    """Per-tenant ceilings.  ``None`` means "server default applies"."""

    __slots__ = ("name", "fuel", "value_cap", "qps", "burst", "backend",
                 "audit", "audit_sample")

    def __init__(self, name: str, fuel: Optional[int] = None,
                 value_cap: Optional[int] = None,
                 qps: Optional[float] = None,
                 burst: Optional[int] = None,
                 backend: Optional[str] = None,
                 audit: Optional[bool] = None,
                 audit_sample: Optional[float] = None) -> None:
        self.name = name
        self.fuel = fuel
        self.value_cap = value_cap
        self.qps = qps
        self.burst = burst
        self.backend = backend
        # Audit opt-in: None inherits the server's setting; False
        # excludes this tenant from the ledger entirely; True opts in
        # even when other tenants are excluded.  ``audit_sample``
        # (0..1) thins this tenant's records below the server rate.
        self.audit = audit
        self.audit_sample = audit_sample

    @classmethod
    def from_dict(cls, name: str, spec: Dict) -> "TenantBudget":
        known = {"fuel", "value_cap", "qps", "burst", "backend", "audit",
                 "audit_sample"}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"tenant {name!r}: unknown budget key(s) "
                f"{sorted(unknown)}; known: {sorted(known)}")
        for key in ("fuel", "value_cap", "burst"):
            value = spec.get(key)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)
                                      or value <= 0):
                raise ValueError(
                    f"tenant {name!r}: {key!r} must be a positive integer")
        qps = spec.get("qps")
        if qps is not None and (isinstance(qps, bool)
                                or not isinstance(qps, (int, float))
                                or qps <= 0):
            raise ValueError(f"tenant {name!r}: 'qps' must be positive")
        backend = spec.get("backend")
        tiers = BACKENDS + tuple(BACKEND_ALIASES)
        if backend is not None and backend not in tiers:
            raise ValueError(
                f"tenant {name!r}: 'backend' must be one of "
                f"{sorted(tiers)}")
        audit = spec.get("audit")
        if audit is not None and not isinstance(audit, bool):
            raise ValueError(f"tenant {name!r}: 'audit' must be a boolean")
        audit_sample = spec.get("audit_sample")
        if audit_sample is not None and (
                isinstance(audit_sample, bool)
                or not isinstance(audit_sample, (int, float))
                or not 0.0 <= audit_sample <= 1.0):
            raise ValueError(
                f"tenant {name!r}: 'audit_sample' must be in [0, 1]")
        return cls(name, fuel=spec.get("fuel"),
                   value_cap=spec.get("value_cap"), qps=qps,
                   burst=spec.get("burst"), backend=backend, audit=audit,
                   audit_sample=audit_sample)

    def to_dict(self) -> Dict:
        return {key: getattr(self, key)
                for key in ("fuel", "value_cap", "qps", "burst", "backend",
                            "audit", "audit_sample")
                if getattr(self, key) is not None}


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second, ``burst`` deep.

    ``now`` is injectable so tests drive time deterministically.
    """

    def __init__(self, rate: float, burst: int, now=time.monotonic) -> None:
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self._tokens = float(self.burst)
        self._now = now
        self._stamp = now()
        self._lock = threading.Lock()

    def admit(self) -> bool:
        with self._lock:
            now = self._now()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class TenantRegistry:
    """Known tenants and their admission state.

    Unknown tenants are rejected (403) unless the registry was built
    with ``open_admission`` — the default for a server started without
    a tenants file, where every caller shares the ``default`` budget.
    """

    def __init__(self, default: Optional[TenantBudget] = None,
                 tenants: Optional[Dict[str, TenantBudget]] = None,
                 open_admission: bool = True,
                 now=time.monotonic) -> None:
        self.default = default or TenantBudget("default")
        self.tenants = dict(tenants or {})
        self.open_admission = open_admission
        self._now = now
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_dict(cls, spec: Dict, now=time.monotonic) -> "TenantRegistry":
        if not isinstance(spec, dict):
            raise ValueError("tenants config must be a JSON object")
        default = TenantBudget.from_dict("default",
                                         spec.get("default", {}))
        tenants = {
            name: TenantBudget.from_dict(name, budget)
            for name, budget in spec.get("tenants", {}).items()}
        # A config that names tenants is a closed world unless it says
        # otherwise; a config with only a default admits anyone.
        open_admission = bool(spec.get("open_admission", not tenants))
        return cls(default=default, tenants=tenants,
                   open_admission=open_admission, now=now)

    @classmethod
    def from_file(cls, path: str) -> "TenantRegistry":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def budget_for(self, tenant: str) -> TenantBudget:
        """The tenant's budget, or a structured 403 for strangers."""
        budget = self.tenants.get(tenant)
        if budget is not None:
            return budget
        if tenant == "default" or self.open_admission:
            return self.default
        raise RequestError(403, "unknown_tenant",
                           f"unknown tenant {tenant!r}")

    def admit(self, tenant: str) -> TenantBudget:
        """Budget lookup + QPS admission (429 when the bucket is dry)."""
        budget = self.budget_for(tenant)
        if budget.qps is not None:
            with self._lock:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    burst = budget.burst or max(1, int(budget.qps))
                    bucket = TokenBucket(budget.qps, burst, now=self._now)
                    self._buckets[tenant] = bucket
            if not bucket.admit():
                raise RequestError(
                    429, "qps_exceeded",
                    f"tenant {tenant!r} exceeded {budget.qps} requests/s")
        return budget

    def effective_fuel(self, budget: TenantBudget,
                       requested: Optional[int], default: int) -> int:
        """The run's fuel: request <= tenant ceiling <= server default."""
        ceiling = budget.fuel if budget.fuel is not None else default
        if requested is None:
            return ceiling
        if requested > ceiling:
            raise RequestError(
                403, "budget_exceeded",
                f"tenant {budget.name!r} fuel ceiling is {ceiling}; "
                f"requested {requested}")
        return requested

    def effective_value_cap(self, budget: TenantBudget,
                            requested: Optional[int],
                            default: Optional[int]) -> Optional[int]:
        """The run's value cap — tighter of request and ceiling.

        ``None`` (uncapped) is the loosest cap, so a tenant with a cap
        ceiling can never run uncapped, and a request may only lower
        the bit budget further.
        """
        ceiling = budget.value_cap if budget.value_cap is not None else default
        if requested is None:
            return ceiling
        if ceiling is not None and requested > ceiling:
            raise RequestError(
                403, "budget_exceeded",
                f"tenant {budget.name!r} value-cap ceiling is {ceiling} "
                f"bits; requested {requested}")
        return requested
