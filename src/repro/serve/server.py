"""The asyncio HTTP/JSON enforcement service behind ``repro serve``.

One process, many tenants: the server fronts the execution tiers, the
parallel sweep runner, the flowlint passes, and the provenance
explainer over a deliberately small HTTP/1.1 surface (stdlib asyncio
streams — no new dependencies):

========  =========  ====================================================
method    path       what
========  =========  ====================================================
GET       /healthz   liveness probe (503 once graceful drain begins)
GET       /metrics   Prometheus text exposition of the obs registry
POST      /execute   one point execution (``repro run``)
POST      /sweep     a soundness sweep (``repro sweep --results-json``)
POST      /lint      static analysis (``repro lint --json``)
POST      /explain   violation provenance (``repro explain --json``)
========  =========  ====================================================

Responses are bit-identical to their CLI twins: same values, same step
counts, same ``Λ!fuel[N]``/``Λ!cap[C]`` notice strings, same sweep
rows, same lint/explain dictionaries.  The serve test suite pins this
against golden CLI output.

Startup is where the environment dies: the three env caches are reset
and read exactly once into :class:`ServerConfig` effective defaults;
from there on, every budget and backend travels as an explicit
parameter.  Handlers never touch ``os.environ`` — that is the whole
point of the PR8 bugfixes this service sits on.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..core.errors import ReproError
from ..flowchart.fastpath import (default_backend, reset_backend_cache,
                                  resolve_backend)
from ..flowchart.interpreter import DEFAULT_FUEL
from ..obs import runtime as _obs
from ..obs.audit import (AuditLedger, SpikeTracker, budget_fingerprint,
                         classify_notice, decision_payload, sampled_in)
from ..robustness.faults import default_value_cap, reset_value_cap_cache
from .batcher import ExecuteBatcher, execute_point_outcome
from .cache import ServeCache
from .schema import (RequestError, library_flowchart, parse_execute,
                     parse_explain, parse_lint, parse_sweep)
from .tenants import TenantRegistry

__all__ = ["ReproServer", "ServerConfig", "serve_in_thread"]

#: The served paths — also the closed label set for per-endpoint
#: latency series (anything else is labeled ``other``).
_ENDPOINTS = ("/healthz", "/metrics", "/execute", "/sweep", "/lint",
              "/explain")

#: Write staged audit decisions to the ledger this often, from a pool
#: thread (never on the request path); an unclean exit loses at most
#: this window, and the trailing seal it leaves behind is exactly
#: what ``repro audit verify`` reports.
_AUDIT_DRAIN_INTERVAL_S = 1.0

_JSON = "application/json; charset=utf-8"
_PROM = "text/plain; version=0.0.4; charset=utf-8"
_REASONS = {200: "OK", 400: "Bad Request", 403: "Forbidden",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class ServerConfig:
    """Everything the server reads exactly once, before serving.

    ``backend`` defaults to the *batch* tier: coalescing concurrent
    /execute requests into grid evaluations is the service's reason to
    exist, and the differential suite guarantees batch lanes are
    bit-identical to scalar runs.  Pass ``backend="compiled"`` (or any
    other tier) to opt out.  ``value_cap`` left unset inherits the
    environment default — read once at startup through the PR8 reset
    functions, never again.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 tenants: Optional[TenantRegistry] = None,
                 fuel: int = DEFAULT_FUEL,
                 value_cap: Optional[int] = None,
                 backend: str = "batch",
                 executor: str = "thread",
                 jobs: Optional[int] = None,
                 batch_window_ms: float = 2.0,
                 batch_max_lanes: int = 512,
                 cache_size: int = 4096,
                 workers: int = 8,
                 max_body: int = 1 << 20,
                 audit_path: Optional[str] = None,
                 audit_sample: float = 1.0,
                 audit_max_bytes: Optional[int] = None,
                 drain_grace_s: float = 0.0,
                 drain_deadline_s: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.tenants = tenants or TenantRegistry()
        self.fuel = fuel
        self.value_cap = value_cap
        self.backend = backend
        self.executor = executor
        self.jobs = jobs
        self.batch_window_ms = batch_window_ms
        self.batch_max_lanes = batch_max_lanes
        self.cache_size = cache_size
        self.workers = workers
        self.max_body = max_body
        # Audit plane: a hash-chained decision ledger (off when no
        # path).  ``audit_sample`` is the server-wide record rate;
        # tenants can thin (``audit_sample``) or opt out (``audit``)
        # per budget.  ``audit_max_bytes`` rotates generations.
        self.audit_path = audit_path
        self.audit_sample = audit_sample
        self.audit_max_bytes = audit_max_bytes
        # Graceful drain: once stop is requested /healthz answers 503
        # so load balancers stop routing here; ``drain_grace_s`` keeps
        # the listener open that long for probes to notice, and
        # ``drain_deadline_s`` bounds how long in-flight requests get
        # to finish before teardown proceeds anyway.
        self.drain_grace_s = drain_grace_s
        self.drain_deadline_s = drain_deadline_s


class _ThreadSpanParent:
    """Parent the current worker thread's spans under ``span_id``.

    The sweep runner opens its own span tree on whatever thread runs
    it; pushing the request span onto that thread's stack makes the
    sweep a child of the request, keeping each request single-rooted
    under the server's ``serve`` span (the soak test asserts this).
    """

    def __init__(self, span_id: Optional[str]) -> None:
        self._span_id = span_id

    def __enter__(self) -> "_ThreadSpanParent":
        if self._span_id is not None:
            _obs._stack().append(self._span_id)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._span_id is not None:
            stack = _obs._stack()
            if stack and stack[-1] == self._span_id:
                stack.pop()


class ReproServer:
    """The serving loop.  Create, ``await start()``, ``await
    wait_stopped()``; call :meth:`request_stop` (thread-safe) to end."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.cache = ServeCache(config.cache_size)
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batcher: Optional[ExecuteBatcher] = None
        self._stopped: Optional[asyncio.Event] = None
        self._draining = False
        self._inflight = 0
        self._inflight_sweeps: Dict[Tuple, asyncio.Future] = {}
        self._root_span = None
        self.audit: Optional[AuditLedger] = None
        self._budget_fps: Dict[Tuple, str] = {}
        self._audit_staged: list = []
        self._audit_staged_lock = threading.Lock()
        self._seal_task: Optional["asyncio.Task"] = None
        self._spikes = SpikeTracker()
        # Effective defaults, fixed at start(); placeholders until then.
        self.fuel = config.fuel
        self.default_value_cap = config.value_cap
        self.default_backend = config.backend

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        # The one environment read of the server's lifetime: flush both
        # env-derived caches, then capture their values as this
        # process's explicit defaults.
        reset_value_cap_cache()
        reset_backend_cache()
        self.fuel = self.config.fuel
        self.default_backend = resolve_backend(self.config.backend)
        self.default_value_cap = (self.config.value_cap
                                  if self.config.value_cap is not None
                                  else default_value_cap())

        if self.config.audit_path is not None:
            # Requests stage decisions in memory and a periodic
            # pool-thread task drains them via append_batch, which seals
            # once per drain — neither the write nor the sidecar seal's
            # atomic replace (which can block for milliseconds on
            # filesystem journaling) ever runs on the request path.
            # Shutdown drains the rest, so the ledger closes sealed.
            self.audit = AuditLedger(
                self.config.audit_path, sample=self.config.audit_sample,
                max_bytes=self.config.audit_max_bytes)

        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        self._root_span = _obs.span_begin(
            "serve", host=self.config.host,
            backend=self.default_backend, fuel=self.fuel)
        self._batcher = ExecuteBatcher(
            self._loop, self._executor,
            window_s=self.config.batch_window_ms / 1000.0,
            max_lanes=self.config.batch_max_lanes,
            root_span=self._root_span.id if self._root_span else None)
        if self.audit is not None:
            self._seal_task = asyncio.ensure_future(
                self._drain_audit_periodically())
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)
        self.started_at = time.monotonic()

    def _drain_audit(self) -> None:
        """Chain and write the staged decisions, sealing once."""
        with self._audit_staged_lock:
            staged, self._audit_staged = self._audit_staged, []
        if staged:
            self.audit.append_batch(staged)

    async def _drain_audit_periodically(self) -> None:
        """Write staged decisions off the request path, forever."""
        while True:
            await asyncio.sleep(_AUDIT_DRAIN_INTERVAL_S)
            await self._loop.run_in_executor(self._executor,
                                             self._drain_audit)

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Thread-safe, idempotent shutdown request.

        Flips the drain flag immediately — the very next /healthz
        answers 503 even before the event loop processes the stop —
        so a probing load balancer never routes to a server that has
        decided to go away.
        """
        self._draining = True
        if self._loop is not None and self._stopped is not None:
            try:
                self._loop.call_soon_threadsafe(self._stopped.set)
            except RuntimeError:
                pass  # loop already closed: nothing left to stop

    async def wait_stopped(self) -> None:
        """Serve until :meth:`request_stop`, then tear down."""
        assert self._stopped is not None
        await self._stopped.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        self._draining = True
        if self.config.drain_grace_s > 0:
            # Keep the listener open while probes observe the 503 —
            # in-flight and newly arriving requests complete normally
            # during the grace window; only /healthz changes answer.
            await asyncio.sleep(self.config.drain_grace_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_deadline_s
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._seal_task is not None:
            self._seal_task.cancel()
            try:
                await self._seal_task
            except asyncio.CancelledError:
                pass
            self._seal_task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.audit is not None:
            self._drain_audit()
            self.audit.close()
        _obs.span_finish(self._root_span)
        self._root_span = None

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except RequestError as error:
                    writer.write(self._render_response(
                        error.status, _JSON,
                        self._json_bytes(error.to_dict()), False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (headers.get("connection", "").lower()
                              != "close")
                status, content_type, payload = await self._dispatch(
                    method, path, body)
                writer.write(self._render_response(
                    status, content_type, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to clean up per-connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # shutdown races the close handshake; both fine

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise ConnectionError("malformed request line")
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise RequestError(
                400, "bad_request",
                f"Content-Length {raw_length!r} is not a "
                "non-negative integer")
        if length > self.config.max_body:
            # Answer 413 and drop the connection without draining.
            raise RequestError(
                413, "payload_too_large",
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body}-byte limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path.split("?", 1)[0], headers, body

    @staticmethod
    def _render_response(status: int, content_type: str, payload: bytes,
                         keep_alive: bool) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {connection}\r\n\r\n")
        return head.encode("latin-1") + payload

    @staticmethod
    def _json_bytes(payload: Dict) -> bytes:
        return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> Tuple[int, str, bytes]:
        started = time.perf_counter()
        self._inflight += 1
        registry = _obs.registry
        registry.counter("serve.requests").inc()
        span = _obs.span_begin(
            "request",
            parent=self._root_span.id if self._root_span else None,
            method=method, path=path)
        status = 500
        try:
            status, content_type, payload = await self._route(
                method, path, body, span)
            return status, content_type, payload
        except RequestError as error:
            status = error.status
            registry.counter("serve.errors").inc()
            registry.counter(f"serve.errors.{error.code}").inc()
            return status, _JSON, self._json_bytes(error.to_dict())
        except ReproError as error:
            # A domain error that slipped past request validation is
            # still the client's input, not a server fault.
            status = 400
            registry.counter("serve.errors").inc()
            return status, _JSON, self._json_bytes(
                {"error": {"code": "repro_error", "message": str(error)}})
        except Exception as error:  # the 500 of last resort
            registry.counter("serve.errors").inc()
            registry.counter("serve.errors.internal").inc()
            return 500, _JSON, self._json_bytes(
                {"error": {"code": "internal",
                           "message": f"{type(error).__name__}: {error}"}})
        finally:
            self._inflight -= 1
            elapsed = time.perf_counter() - started
            registry.histogram("serve.latency_s").observe(elapsed)
            # Per-endpoint latency rides a labeled series; unknown
            # paths collapse into one label so a probe scan cannot
            # mint unbounded metric cardinality.
            endpoint = path if path in _ENDPOINTS else "other"
            registry.histogram("serve.latency_s",
                               labels={"endpoint": endpoint}).observe(elapsed)
            _obs.span_finish(span, status=status)

    async def _route(self, method: str, path: str, body: bytes,
                     span) -> Tuple[int, str, bytes]:
        if path == "/healthz":
            if method != "GET":
                raise RequestError(405, "method_not_allowed",
                                   f"{path} is GET-only")
            status = 503 if self._draining else 200
            return status, _JSON, self._json_bytes(self._healthz())
        if path == "/metrics":
            if method != "GET":
                raise RequestError(405, "method_not_allowed",
                                   f"{path} is GET-only")
            return 200, _PROM, self._metrics_text().encode("utf-8")
        handlers = {"/execute": self._handle_execute,
                    "/sweep": self._handle_sweep,
                    "/lint": self._handle_lint,
                    "/explain": self._handle_explain}
        handler = handlers.get(path)
        if handler is None:
            raise RequestError(404, "not_found", f"unknown path {path!r}")
        if method != "POST":
            raise RequestError(405, "method_not_allowed",
                               f"{path} is POST-only")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(400, "bad_json",
                               f"request body is not JSON: {error}")
        response = await handler(payload, span)
        return 200, _JSON, self._json_bytes(response)

    # -- GET endpoints ------------------------------------------------------

    def _healthz(self) -> Dict:
        uptime = (time.monotonic() - self.started_at
                  if self.started_at is not None else 0.0)
        return {"status": "draining" if self._draining else "ok",
                "uptime_s": round(uptime, 3),
                "backend": self.default_backend, "fuel": self.fuel,
                "value_cap": self.default_value_cap}

    def _metrics_text(self) -> str:
        registry = _obs.registry
        for name, value in self.cache.stats().items():
            registry.gauge(f"serve.cache.{name}").set(value)
        if self._batcher is not None:
            registry.gauge("serve.batches_flushed").set(
                self._batcher.batches_flushed)
            registry.gauge("serve.lanes_executed").set(
                self._batcher.lanes_executed)
        if self.audit is not None:
            registry.gauge("audit.records").set(
                self.audit.records + len(self._audit_staged))
        return registry.to_prometheus()

    # -- POST endpoints -----------------------------------------------------

    def _effective_budgets(self, tenant: str, fuel: Optional[int],
                           value_cap: Optional[int]):
        registry = self.config.tenants
        budget = registry.admit(tenant)
        return (budget,
                registry.effective_fuel(budget, fuel, self.fuel),
                registry.effective_value_cap(budget, value_cap,
                                             self.default_value_cap))

    def _record_decision(self, budget, tenant: str, endpoint: str, span,
                         notice: Optional[str], fuel: Optional[int] = None,
                         value_cap: Optional[int] = None,
                         backend: Optional[str] = None,
                         provenance: Optional[Dict] = None) -> None:
        """One enforcement decision: labeled metrics + audit ledger.

        The labeled counters always run (they are how ``/metrics``
        exposes per-tenant decision analytics); the ledger append runs
        only when the server has one and the tenant has not opted out.
        Cache hits record too — a served decision is a decision, no
        matter which layer produced it.
        """
        registry = _obs.registry
        decision = "notice" if notice is not None else "accept"
        registry.counter("serve.decisions",
                         labels={"tenant": tenant,
                                 "decision": decision}).inc()
        if notice is not None:
            registry.counter("serve.notices",
                             labels={"tenant": tenant,
                                     "kind": classify_notice(notice)}).inc()
        rate = self._spikes.update(tenant, notice is not None)
        if rate is not None:
            registry.counter("serve.rate_spikes",
                             labels={"tenant": tenant}).inc()
            _obs.emit("violation_rate_spike", tenant=tenant,
                      rate=round(rate, 6), window=self._spikes.window)
        if self.audit is None or budget.audit is False:
            return
        if provenance is not None:
            provenance = {key: value for key, value in provenance.items()
                          if value is not None} or None
        # The request path only *stages* the decision: building the
        # payload and growing a list costs single-digit microseconds,
        # while chaining, hashing, writing, and sealing cost tens to
        # (on a journaling filesystem) thousands — so those run on the
        # periodic drain task, off every request's critical path.
        # Shutdown drains before closing, so a clean stop loses
        # nothing; an unclean exit loses at most the drain interval,
        # which the trailing seal makes visible to ``verify``.
        payload = decision_payload(
            decision, notice=notice, tenant=tenant, endpoint=endpoint,
            span=span.id if span else None,
            budget=self._budget_fingerprint(fuel, value_cap, backend),
            provenance=provenance, ts=time.time())
        if not sampled_in(payload, self.audit.sample
                          if budget.audit_sample is None
                          else budget.audit_sample):
            return
        with self._audit_staged_lock:
            self._audit_staged.append(payload)

    def _budget_fingerprint(self, fuel, value_cap, backend) -> str:
        """Memoized :func:`budget_fingerprint` — a server sees few
        distinct budgets, and the canonical-JSON + sha256 round is
        measurable on the request path.  Bounded against adversarial
        per-request fuel values."""
        key = (fuel, value_cap, backend)
        cached = self._budget_fps.get(key)
        if cached is None:
            if len(self._budget_fps) >= 4096:
                self._budget_fps.clear()
            cached = self._budget_fps[key] = budget_fingerprint(
                fuel=fuel, value_cap=value_cap, backend=backend)
        return cached

    async def _handle_execute(self, payload, span) -> Dict:
        request = parse_execute(payload)
        budget, fuel, value_cap = self._effective_budgets(
            request.tenant, request.fuel, request.value_cap)
        backend = resolve_backend(request.backend or budget.backend
                                  or self.default_backend)
        flowchart, fingerprint = self.cache.intern_flowchart(
            request.flowchart)
        tenant = (budget.name if request.tenant == "default"
                  else request.tenant)
        key = ("execute", fingerprint, request.inputs, fuel, value_cap,
               backend)
        # The shared key is budget-only, so the cached payload must be
        # tenant-free: the requester's tenant is stamped on after the
        # lookup, never stored where another tenant could read it.
        provenance = {"program": flowchart.name,
                      "point": list(request.inputs)}
        cached = self.cache.get_response(key)
        if cached is not None:
            _obs.registry.counter("serve.execute.cache_hits").inc()
            self._record_decision(budget, tenant, "/execute", span,
                                  cached["notice"], fuel=fuel,
                                  value_cap=value_cap, backend=backend,
                                  provenance=provenance)
            return dict(cached, tenant=tenant)
        if backend == "batch":
            outcome = await self._batcher.submit(
                key[:2] + key[3:], flowchart, request.inputs, fuel,
                value_cap, request_span=span.id if span else None)
        else:
            outcome = await self._loop.run_in_executor(
                self._executor, execute_point_outcome, flowchart,
                request.inputs, fuel, value_cap, backend)
        response = {
            "program": flowchart.name,
            "inputs": list(request.inputs),
            "value": outcome["value"],
            "steps": outcome["steps"],
            "notice": outcome["notice"],
            "fuel": fuel,
            "value_cap": value_cap,
            "backend": backend,
        }
        self.cache.put_response(key, response)
        self._record_decision(budget, tenant, "/execute", span,
                              outcome["notice"], fuel=fuel,
                              value_cap=value_cap, backend=backend,
                              provenance=provenance)
        return dict(response, tenant=tenant)

    async def _handle_sweep(self, payload, span) -> Dict:
        request = parse_sweep(payload)
        budget, fuel, value_cap = self._effective_budgets(
            request.tenant, request.fuel, request.value_cap)
        backend = resolve_backend(request.backend or budget.backend
                                  or self.default_backend)
        key = request.cache_key(fuel, value_cap, backend)
        tenant = (budget.name if request.tenant == "default"
                  else request.tenant)

        def record(response: Dict) -> Dict:
            # A sweep request's decision is its verdict: any unsound
            # pair is a notice for the requester, and the provenance
            # pointer names the (programs, mechanism) to re-explain.
            notice = "Λ" if response.get("unsound") else None
            self._record_decision(
                budget, tenant, "/sweep", span, notice, fuel=fuel,
                value_cap=value_cap, backend=backend,
                provenance={"programs": list(request.programs),
                            "policy": request.mechanism})
            return response

        cached = self.cache.get_response(key)
        if cached is not None:
            _obs.registry.counter("serve.sweep.cache_hits").inc()
            return record(cached)
        # Concurrent identical sweeps coalesce onto one computation:
        # rows are schedule-independent, so every waiter can share it.
        inflight = self._inflight_sweeps.get(key)
        if inflight is not None:
            return record(await asyncio.shield(inflight))
        future = self._loop.create_future()
        self._inflight_sweeps[key] = future
        try:
            response = await self._loop.run_in_executor(
                self._executor, self._run_sweep, request, fuel,
                value_cap, backend, span.id if span else None)
            self.cache.put_response(key, response)
            future.set_result(response)
            return record(response)
        except BaseException as error:
            future.set_exception(error)
            # A shared failure is still consumed by any waiters above;
            # mark it retrieved so lone failures don't warn on GC.
            future.exception()
            raise
        finally:
            self._inflight_sweeps.pop(key, None)

    def _run_sweep(self, request, fuel: int, value_cap: Optional[int],
                   backend: str, parent_span: Optional[str]) -> Dict:
        from ..core import ProductDomain
        from ..verify import parallel_soundness_sweep, unsound_results

        flowcharts = [library_flowchart(name) for name in request.programs]
        executor = request.executor or self.config.executor
        with _ThreadSpanParent(parent_span):
            results = parallel_soundness_sweep(
                flowcharts, request.mechanism,
                grid=lambda arity: ProductDomain.integer_grid(
                    request.low, request.high, arity),
                fuel=fuel,
                executor=executor,
                max_workers=request.jobs or self.config.jobs,
                chunk_size=request.chunk_size,
                value_cap=value_cap,
                backend=backend)
        rows = [
            {
                "program": result.program_name,
                "policy": result.policy_name,
                "sound": result.sound,
                "accepts": result.accepts,
                "domain_size": result.domain_size,
                "backends": result.backends,
            }
            for result in results
        ]
        return {
            "rows": rows,
            "pairs": len(results),
            "unsound": len(unsound_results(results)),
            "mechanism": request.mechanism,
            "low": request.low,
            "high": request.high,
            "fuel": fuel,
            "value_cap": value_cap,
            "backend": backend,
        }

    async def _handle_lint(self, payload, span) -> Dict:
        request = parse_lint(payload)
        budget = self.config.tenants.admit(request.tenant)
        tenant = (budget.name if request.tenant == "default"
                  else request.tenant)
        flowchart, fingerprint = self.cache.intern_flowchart(
            request.flowchart)
        provenance = {"program": flowchart.name,
                      "policy": request.policy_text}

        def record(response: Dict) -> Dict:
            notice = "Λ" if response.get("errors") else None
            self._record_decision(budget, tenant, "/lint", span, notice,
                                  provenance=provenance)
            return response

        key = request.cache_key(fingerprint)
        cached = self.cache.get_response(key)
        if cached is not None:
            _obs.registry.counter("serve.lint.cache_hits").inc()
            return record(cached)
        response = await self._loop.run_in_executor(
            self._executor, self._run_lint, flowchart,
            request.policy_text, span.id if span else None)
        self.cache.put_response(key, response)
        return record(response)

    def _run_lint(self, flowchart, policy_text: Optional[str],
                  parent_span: Optional[str]) -> Dict:
        from ..analysis import PassManager
        from ..flowchart.parser import parse_policy

        policy = (parse_policy(policy_text, arity=flowchart.arity)
                  if policy_text is not None else None)
        with _ThreadSpanParent(parent_span):
            report = PassManager.with_default_passes().run(flowchart,
                                                           policy)
        exit_code = 1 if report.has_errors else 0
        # The exact shape of ``repro lint --json`` for one program.
        return {
            "programs": 1,
            "errors": len(report.errors),
            "exit_code": exit_code,
            "reports": [report.to_dict()],
        }

    async def _handle_explain(self, payload, span) -> Dict:
        request = parse_explain(payload)
        budget, fuel, _cap = self._effective_budgets(
            request.tenant, request.fuel, None)
        tenant = (budget.name if request.tenant == "default"
                  else request.tenant)
        flowchart, _fingerprint = self.cache.intern_flowchart(
            request.flowchart)
        response = await self._loop.run_in_executor(
            self._executor, self._run_explain, flowchart, request, fuel,
            span.id if span else None)
        self._record_decision(
            budget, tenant, "/explain", span,
            "Λ" if response.get("violated") else None, fuel=fuel,
            provenance={"program": flowchart.name,
                        "policy": request.policy.name,
                        "point": (list(request.inputs)
                                  if request.inputs is not None else None)})
        return response

    def _run_explain(self, flowchart, request, fuel: int,
                     parent_span: Optional[str]) -> Dict:
        from .. import obs

        with _ThreadSpanParent(parent_span):
            if request.static:
                explanation = obs.explain_static(flowchart,
                                                 request.policy)
            else:
                explanation = obs.explain(flowchart, request.policy,
                                          request.inputs,
                                          timed=request.timed, fuel=fuel)
        # ``repro explain --json`` prints exactly ``to_dict()``; keep it
        # verbatim under "explanation" with the exit signal alongside.
        return {"explanation": explanation.to_dict(),
                "violated": explanation.violated}


class ServerHandle:
    """A running server on a background thread (tests, benches, CI)."""

    def __init__(self, server: ReproServer, thread: threading.Thread,
                 port: int) -> None:
        self.server = server
        self.thread = thread
        self.port = port
        self.host = server.config.host

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        self.server.request_stop()
        self.thread.join(timeout)


def serve_in_thread(config: Optional[ServerConfig] = None,
                    timeout: float = 10.0) -> ServerHandle:
    """Start a server on a daemon thread; returns once it is bound."""
    config = config or ServerConfig()
    server = ReproServer(config)
    started = threading.Event()
    failure: list = []

    async def _main() -> None:
        try:
            await server.start()
        except Exception as error:  # surface bind errors to the caller
            failure.append(error)
            started.set()
            return
        started.set()
        await server.wait_stopped()

    def _run() -> None:
        asyncio.run(_main())

    thread = threading.Thread(target=_run, daemon=True,
                              name="repro-serve-loop")
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("server failed to start within "
                           f"{timeout}s")
    if failure:
        raise failure[0]
    return ServerHandle(server, thread, server.port)
