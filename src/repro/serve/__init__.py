"""`repro serve`: the multi-tenant enforcement service.

Jones & Lipton model an enforcement mechanism as surveillance attached
to a *run*; this package turns the repo's mechanisms into a long-lived
served workload (ROADMAP item 1): an asyncio HTTP/JSON front end over
the execution tiers, the parallel sweep runner, the linter, and the
provenance explainer, with per-tenant fuel/value-cap/QPS budgets and a
result cache shared across tenants.

Layering
--------
- :mod:`.schema`   — request validation (structured 4xx, never a 500)
- :mod:`.tenants`  — tenant budgets, QPS token buckets
- :mod:`.cache`    — fingerprinted flowchart + response caches
- :mod:`.batcher`  — coalesces concurrent /execute into batch grids
- :mod:`.server`   — the asyncio HTTP server and endpoint handlers

Configuration discipline: the *CLI layer* reads the environment once
at startup (``REPRO_BACKEND``, ``REPRO_VALUE_CAP``); everything below
receives budgets and backends as explicit parameters.  See docs/SERVING.md.
"""

from .schema import RequestError
from .server import ReproServer, ServerConfig, serve_in_thread
from .tenants import TenantBudget, TenantRegistry

__all__ = [
    "ReproServer", "RequestError", "ServerConfig", "TenantBudget",
    "TenantRegistry", "serve_in_thread",
]
