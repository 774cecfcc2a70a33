"""Request validation for the serve endpoints.

Every parser takes the decoded JSON payload and returns a typed
request object, or raises :class:`RequestError` carrying an HTTP
status, a stable machine-readable ``code``, and a human message.  A
malformed flowchart, an unknown policy, a negative fuel budget — all
of these are *client* errors and must surface as structured 4xx
responses, never as a 500 (the serve test suite enforces this over a
corpus of malformed payloads).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..flowchart.fastpath import BACKEND_ALIASES, BACKENDS
from ..flowchart.interpreter import DEFAULT_FUEL
from ..flowchart.parser import parse_policy, parse_program
from ..flowchart.program import Flowchart

__all__ = [
    "ExecuteRequest", "ExplainRequest", "LintRequest", "RequestError",
    "SweepRequest", "library_flowchart", "parse_execute", "parse_explain",
    "parse_lint", "parse_sweep",
]

#: Upper bound on sweep grid extent per axis — a served ∀-sweep over an
#: unbounded grid is a denial-of-service vector, not a proof.
MAX_GRID_SPAN = 64

_MECHANISMS = ("program", "surveillance", "timed", "highwater")
_EXECUTORS = ("auto", "serial", "thread", "process")


class RequestError(Exception):
    """A client error with an HTTP status and a stable error code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_dict(self) -> Dict:
        return {"error": {"code": self.code, "message": self.message}}


def _bad(code: str, message: str) -> RequestError:
    return RequestError(400, code, message)


def _library() -> Dict:
    from ..cli import LIBRARY  # late: cli imports serve lazily, not here
    return LIBRARY


#: name -> the one validated library flowchart this process serves.
_LIBRARY_FLOWCHARTS: Dict[str, Flowchart] = {}


def library_flowchart(name: str) -> Flowchart:
    """The library program ``name``, built and validated once per process.

    Every endpoint shares it, so after the first request it reaches
    :meth:`~repro.serve.cache.ServeCache.intern_flowchart` already
    fingerprinted, and the compile and instrumentation caches keyed on
    its identity stay warm.  Raises ``KeyError`` for unknown names,
    which are never cached.
    """
    flowchart = _LIBRARY_FLOWCHARTS.get(name)
    if flowchart is None:
        # Two threads may both build it; setdefault keeps one for both.
        flowchart = _LIBRARY_FLOWCHARTS.setdefault(name, _library()[name]())
    return flowchart


def _require_object(payload) -> Dict:
    if not isinstance(payload, dict):
        raise _bad("bad_request",
                   f"request body must be a JSON object, "
                   f"got {type(payload).__name__}")
    return payload


def _parse_flowchart(payload: Dict) -> Flowchart:
    """``{"library": name}`` or ``{"source": text}`` — exactly one."""
    library_name = payload.get("library")
    source = payload.get("source")
    if (library_name is None) == (source is None):
        raise _bad("bad_program",
                   "provide exactly one of 'library' or 'source'")
    if library_name is not None:
        if not isinstance(library_name, str):
            raise _bad("bad_program", "'library' must be a string")
        try:
            return library_flowchart(library_name)
        except KeyError:
            known = ", ".join(sorted(_library()))
            raise _bad("unknown_program",
                       f"unknown library program {library_name!r}; "
                       f"known: {known}") from None
    if not isinstance(source, str):
        raise _bad("bad_program", "'source' must be a string")
    try:
        return parse_program(source).compile()
    except ReproError as error:
        raise _bad("bad_program", f"cannot parse program: {error}") from None


def _parse_policy(payload: Dict, arity: int, required: bool = True):
    text = payload.get("policy")
    if text is None:
        if required:
            raise _bad("bad_policy", "'policy' is required")
        return None
    if not isinstance(text, str):
        raise _bad("bad_policy", "'policy' must be a string")
    try:
        return parse_policy(text, arity=arity)
    except ReproError as error:
        raise _bad("bad_policy", f"cannot parse policy: {error}") from None


def _parse_int(payload: Dict, key: str, default: Optional[int] = None,
               minimum: Optional[int] = None,
               maximum: Optional[int] = None) -> Optional[int]:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"bad_{key}", f"'{key}' must be an integer")
    if minimum is not None and value < minimum:
        raise _bad(f"bad_{key}", f"'{key}' must be >= {minimum}; got {value}")
    if maximum is not None and value > maximum:
        raise _bad(f"bad_{key}", f"'{key}' must be <= {maximum}; got {value}")
    return value


def _parse_choice(payload: Dict, key: str, choices: Tuple[str, ...],
                  default: Optional[str] = None) -> Optional[str]:
    value = payload.get(key, default)
    if value is None:
        return None
    if not isinstance(value, str) or value not in choices:
        raise _bad(f"bad_{key}",
                   f"'{key}' must be one of {list(choices)}; got {value!r}")
    return value


def _parse_tenant(payload: Dict) -> str:
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise _bad("bad_tenant", "'tenant' must be a non-empty string")
    return tenant


def _parse_backend(payload: Dict) -> Optional[str]:
    backend = payload.get("backend")
    if backend is None:
        return None
    valid = tuple(BACKENDS) + tuple(BACKEND_ALIASES)
    if not isinstance(backend, str) or backend not in valid:
        raise _bad("bad_backend",
                   f"'backend' must be one of {sorted(valid)}; "
                   f"got {backend!r}")
    return BACKEND_ALIASES.get(backend, backend)


class ExecuteRequest:
    """One point execution: the served analogue of ``repro run``."""

    __slots__ = ("tenant", "flowchart", "inputs", "fuel", "value_cap",
                 "backend")

    def __init__(self, tenant: str, flowchart: Flowchart,
                 inputs: Tuple[int, ...], fuel: Optional[int],
                 value_cap: Optional[int],
                 backend: Optional[str]) -> None:
        self.tenant = tenant
        self.flowchart = flowchart
        self.inputs = inputs
        self.fuel = fuel
        self.value_cap = value_cap
        self.backend = backend


def parse_execute(payload) -> ExecuteRequest:
    payload = _require_object(payload)
    flowchart = _parse_flowchart(payload)
    raw_inputs = payload.get("inputs")
    if not isinstance(raw_inputs, list):
        raise _bad("bad_inputs", "'inputs' must be a list of integers")
    if any(isinstance(v, bool) or not isinstance(v, int)
           for v in raw_inputs):
        raise _bad("bad_inputs", "'inputs' must be a list of integers")
    if len(raw_inputs) != flowchart.arity:
        raise _bad("bad_inputs",
                   f"program {flowchart.name!r} takes {flowchart.arity} "
                   f"input(s); got {len(raw_inputs)}")
    return ExecuteRequest(
        tenant=_parse_tenant(payload),
        flowchart=flowchart,
        inputs=tuple(raw_inputs),
        fuel=_parse_int(payload, "fuel", minimum=1),
        value_cap=_parse_int(payload, "value_cap", minimum=1),
        backend=_parse_backend(payload),
    )


class SweepRequest:
    """A soundness sweep: the served analogue of ``repro sweep``."""

    __slots__ = ("tenant", "programs", "mechanism", "low", "high", "fuel",
                 "value_cap", "executor", "jobs", "chunk_size", "backend")

    def __init__(self, tenant: str, programs: List[str], mechanism: str,
                 low: int, high: int, fuel: Optional[int],
                 value_cap: Optional[int], executor: Optional[str],
                 jobs: Optional[int], chunk_size: Optional[int],
                 backend: Optional[str]) -> None:
        self.tenant = tenant
        self.programs = programs
        self.mechanism = mechanism
        self.low = low
        self.high = high
        self.fuel = fuel
        self.value_cap = value_cap
        self.executor = executor
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.backend = backend

    def cache_key(self, fuel: int, value_cap: Optional[int],
                  backend: str) -> Tuple:
        """Identity of the *rows* — executor/jobs excluded, because the
        sweep's verdicts are schedule-independent (the PR3 invariant the
        differential suite pins)."""
        return ("sweep", tuple(self.programs), self.mechanism, self.low,
                self.high, fuel, value_cap, backend)


def parse_sweep(payload) -> SweepRequest:
    payload = _require_object(payload)
    raw_programs = payload.get("programs")
    if (not isinstance(raw_programs, list) or not raw_programs
            or any(not isinstance(name, str) for name in raw_programs)):
        raise _bad("bad_programs",
                   "'programs' must be a non-empty list of library names")
    library = _library()
    unknown = [name for name in raw_programs if name not in library]
    if unknown:
        raise _bad("unknown_program",
                   f"unknown library program(s): {', '.join(unknown)}")
    mechanism = _parse_choice(payload, "mechanism", _MECHANISMS,
                              default="surveillance")
    low = _parse_int(payload, "low", default=0)
    high = _parse_int(payload, "high", default=2)
    if high < low:
        raise _bad("bad_grid", f"'high' ({high}) must be >= 'low' ({low})")
    if high - low > MAX_GRID_SPAN:
        raise _bad("bad_grid",
                   f"grid span {high - low} exceeds the served maximum "
                   f"{MAX_GRID_SPAN}")
    backend = _parse_backend(payload)
    return SweepRequest(
        tenant=_parse_tenant(payload),
        programs=list(raw_programs),
        mechanism=mechanism,
        low=low,
        high=high,
        fuel=_parse_int(payload, "fuel", minimum=1),
        value_cap=_parse_int(payload, "value_cap", minimum=1),
        executor=_parse_choice(payload, "executor", _EXECUTORS),
        jobs=_parse_int(payload, "jobs", minimum=1, maximum=64),
        chunk_size=_parse_int(payload, "chunk_size", minimum=1),
        backend=backend,
    )


class LintRequest:
    """Static analysis: the served analogue of ``repro lint --json``."""

    __slots__ = ("tenant", "flowchart", "policy_text")

    def __init__(self, tenant: str, flowchart: Flowchart,
                 policy_text: Optional[str]) -> None:
        self.tenant = tenant
        self.flowchart = flowchart
        self.policy_text = policy_text

    def cache_key(self, fingerprint: str) -> Tuple:
        return ("lint", fingerprint, self.policy_text)


def parse_lint(payload) -> LintRequest:
    payload = _require_object(payload)
    flowchart = _parse_flowchart(payload)
    policy_text = payload.get("policy")
    if policy_text is not None:
        # Validate eagerly so a bad policy is a 400 here, not a crash
        # in the worker thread.
        _parse_policy(payload, flowchart.arity)
    return LintRequest(_parse_tenant(payload), flowchart, policy_text)


class ExplainRequest:
    """Provenance: the served analogue of ``repro explain --json``."""

    __slots__ = ("tenant", "flowchart", "policy", "inputs", "static",
                 "timed", "fuel")

    def __init__(self, tenant: str, flowchart: Flowchart, policy,
                 inputs: Optional[Tuple[int, ...]], static: bool,
                 timed: bool, fuel: Optional[int]) -> None:
        self.tenant = tenant
        self.flowchart = flowchart
        self.policy = policy
        self.inputs = inputs
        self.static = static
        self.timed = timed
        self.fuel = fuel


def parse_explain(payload) -> ExplainRequest:
    payload = _require_object(payload)
    flowchart = _parse_flowchart(payload)
    policy = _parse_policy(payload, flowchart.arity)
    static = payload.get("static", False)
    if not isinstance(static, bool):
        raise _bad("bad_static", "'static' must be a boolean")
    timed = payload.get("timed", False)
    if not isinstance(timed, bool):
        raise _bad("bad_timed", "'timed' must be a boolean")
    raw_inputs = payload.get("inputs")
    inputs: Optional[Tuple[int, ...]] = None
    if static:
        if raw_inputs is not None:
            raise _bad("bad_inputs",
                       "'static' derives the compile-time chain; it takes "
                       "no concrete inputs")
    else:
        if (not isinstance(raw_inputs, list)
                or any(isinstance(v, bool) or not isinstance(v, int)
                       for v in raw_inputs)):
            raise _bad("bad_inputs",
                       "'inputs' must be a list of integers (or pass "
                       "'static': true)")
        if len(raw_inputs) != flowchart.arity:
            raise _bad("bad_inputs",
                       f"program {flowchart.name!r} takes "
                       f"{flowchart.arity} input(s); got {len(raw_inputs)}")
        inputs = tuple(raw_inputs)
    return ExplainRequest(
        tenant=_parse_tenant(payload),
        flowchart=flowchart,
        policy=policy,
        inputs=inputs,
        static=static,
        timed=timed,
        fuel=_parse_int(payload, "fuel", minimum=1),
    )
