"""Compiled flowchart execution: source generation + ``compile()``.

The tree-walking interpreter in :mod:`repro.flowchart.interpreter` is
the hot path under every ∀-sweep in this reproduction: each grid point
of each policy of each flowchart bottoms out in recursive ``Expr.eval``
calls and per-box ``isinstance`` dispatch.  This module translates a
:class:`~repro.flowchart.program.Flowchart` once into a single native
Python function — expressions become Python expressions over local
variables, basic blocks become straight-line statement runs, control
flow becomes a small ``while``/``elif`` dispatch loop — and caches the
result per flowchart.

The Observability Postulate makes this a *semantics-preserving*
exercise, not just a fast one: running time (the box-count convention
documented in ``interpreter.py``) and the page-fault proxy (number of
distinct variables touched) are outputs of the program, so the compiled
function must reproduce ``(value, steps, faults)`` bit-for-bit,
including *when* a :class:`FuelExhaustedError` is raised.  The
differential test suite (``tests/flowchart/test_fastpath.py``) checks
this against the interpreter over the whole figure library.

Step-count fidelity
-------------------
The interpreter checks ``steps >= fuel`` before executing each box.  A
basic block of ``n`` boxes therefore completes iff
``steps_before + n <= fuel`` — so one comparison per block is exact,
*provided* no box in the block can raise from inside an expression.
Expressions are total except :class:`~repro.flowchart.expr.LoopExpr`
(whose own fuel can raise ``ExecutionError``); blocks containing such a
box fall back to per-box fuel checks so the interpreter's exception
(fuel vs. loop error) is reproduced exactly.

Fault-count fidelity
--------------------
``touched`` is a per-run union of statically known per-box variable
sets, so the compiler assigns every environment variable a bit and each
block a precomputed mask: one ``|=`` per executed block replaces two
set operations per executed box.  The mask→frozenset decoding is
memoised per compiled flowchart (runs revisit the same few masks).

Backends
--------
:func:`resolve_backend` decides between ``"compiled"``,
``"interpreted"`` and ``"batch"``; the ``REPRO_BACKEND`` environment
variable overrides the default, and ``as_program`` / the CLI accept an
explicit argument that overrides both.  :func:`run_flowchart` is the
dispatching entry point used by mechanism constructors: one point runs
on the interpreter or, for ``compiled`` and ``batch`` alike, as one
call of the compiled function.  ``batch`` names a whole-grid mode, not
an engine (:mod:`repro.flowchart.batchpath`).

The one cache here is the per-flowchart compiled function (weak-keyed —
dies with the graph).  Results are not memoised: a sweep task runs each
grid point of its chunk once and decides every policy of the flowchart
from that run (:mod:`repro.verify.parallel`), and ``repro serve``
caches responses.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import (ArityMismatchError, FuelExhaustedError,
                           ReproError, ValueCapExceededError)
from ..obs import runtime as _obs
from ..robustness.faults import default_value_cap, resolve_value_cap
from .boxes import (AssignBox, Box, DecisionBox, DowngradeBox, HaltBox,
                    NodeId, PolicyChangeBox, RecvBox, SendBox, StartBox)
from .expr import (And, BinOp, BoolConst, Compare, Const, Expr, Ite,
                   LoopExpr, Neg, Not, Or, Pred, Var)
from .interpreter import DEFAULT_FUEL, ExecutionResult, execute
from .program import Flowchart

#: Environment variable selecting the default execution backend.
BACKEND_ENV = "REPRO_BACKEND"

_DEFAULT_BACKEND = "compiled"


#: Accepted spellings that map onto an execution tier.
BACKEND_ALIASES: Dict[str, str] = {"interp": "interpreted"}

#: Execution backend names.  A single run under ``batch`` is a
#: compiled-tier call; sweeps and ``repro serve`` batch whole grids.
BACKENDS: Tuple[str, ...] = ("compiled", "interpreted", "batch")


#: Cached ``REPRO_BACKEND`` read: ``(loaded, choice)``.  The env var is
#: a *process startup* default — reading it per call deep inside
#: ``run_flowchart`` meant one caller's ``os.environ`` mutation leaked
#: into every other caller sharing the process (the multi-tenant server
#: made this observable).  Mirrors ``_ENV_CAP_CACHE`` in
#: ``robustness.faults``.
_ENV_BACKEND_CACHE: Tuple[bool, Optional[str]] = (False, None)


def default_backend() -> str:
    """The backend used when no explicit choice is given.

    ``REPRO_BACKEND`` is read once and cached; call
    :func:`reset_backend_cache` after changing the env mid-process
    (tests, notebooks).  Long-running services should pass ``backend=``
    explicitly instead of mutating the environment.
    """
    global _ENV_BACKEND_CACHE
    loaded, cached = _ENV_BACKEND_CACHE
    if not loaded:
        cached = os.environ.get(BACKEND_ENV) or None
        _ENV_BACKEND_CACHE = (True, cached)
    return cached or _DEFAULT_BACKEND


def reset_backend_cache() -> None:
    """Forget the cached ``REPRO_BACKEND`` read (re-read on next use)."""
    global _ENV_BACKEND_CACHE
    _ENV_BACKEND_CACHE = (False, None)


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve an explicit choice, the env override, or the default.

    Precedence: explicit argument > ``REPRO_BACKEND`` (cached at first
    use; see :func:`default_backend`) > ``"compiled"``.  Aliases
    (``interp``) resolve to their canonical tier name.
    """
    choice = backend or default_backend()
    choice = choice.strip().lower()
    choice = BACKEND_ALIASES.get(choice, choice)
    if choice not in BACKENDS:
        raise ReproError(
            f"unknown execution backend {choice!r}; expected one of {BACKENDS}")
    return choice


# ---------------------------------------------------------------------------
# Expression / predicate code generation
# ---------------------------------------------------------------------------

def _total_floordiv(a: int, b: int) -> int:
    return a // b if b != 0 else 0


def _total_mod(a: int, b: int) -> int:
    return a % b if b != 0 else 0


_INLINE_BINOPS = frozenset("+-*|&^")


class _Codegen:
    """Translates one flowchart into Python source + exec namespace."""

    def __init__(self, flowchart: Flowchart) -> None:
        self.flowchart = flowchart
        # The environment variable set must match initial_environment():
        # program variables, read-but-never-assigned variables, the
        # output variable, and the inputs.
        names = set(flowchart.program_variables())
        names.update(name for name in flowchart.read_variables()
                     if name not in flowchart.input_variables)
        names.add(flowchart.output_variable)
        names.update(flowchart.input_variables)
        self.env_names: Tuple[str, ...] = tuple(sorted(names))
        self.local_of: Dict[str, str] = {
            name: f"_v{index}" for index, name in enumerate(self.env_names)}
        self.bit_of: Dict[str, int] = {
            name: index for index, name in enumerate(self.env_names)}
        self.namespace: Dict[str, object] = {
            "_idiv": _total_floordiv,
            "_imod": _total_mod,
            "min": min,
            "max": max,
            "int": int,
            "_FuelExhaustedError": FuelExhaustedError,
        }
        self._node_refs = 0

    # -- expressions ----------------------------------------------------

    def expr(self, node: Expr) -> str:
        if isinstance(node, Const):
            return f"({node.value!r})"
        if isinstance(node, Var):
            return self.local_of[node.name]
        if isinstance(node, BinOp):
            left, right = self.expr(node.left), self.expr(node.right)
            if node.op in _INLINE_BINOPS:
                return f"({left} {node.op} {right})"
            if node.op == "//":
                return f"_idiv({left}, {right})"
            if node.op == "%":
                return f"_imod({left}, {right})"
            # min / max: builtins evaluate arguments left-to-right,
            # matching the interpreter's evaluation order.
            return f"{node.op}({left}, {right})"
        if isinstance(node, Neg):
            return f"(-{self.expr(node.operand)})"
        if isinstance(node, Ite):
            return (f"({self.expr(node.then_value)} "
                    f"if {self.pred(node.predicate)} "
                    f"else {self.expr(node.else_value)})")
        if isinstance(node, LoopExpr):
            # A whole while-loop in expression position cannot be
            # inlined into a Python expression; delegate to the node's
            # own eval over a dict rebuilt from the locals it reads
            # (all of which are environment variables by construction).
            ref = f"_n{self._node_refs}"
            self._node_refs += 1
            self.namespace[ref] = node
            items = ", ".join(
                f"{name!r}: {self.local_of[name]}"
                for name in sorted(node.variables()))
            return f"{ref}.eval({{{items}}})"
        raise ReproError(
            f"cannot compile expression node {type(node).__name__}")

    def pred(self, node: Pred) -> str:
        if isinstance(node, Compare):
            return f"({self.expr(node.left)} {node.op} {self.expr(node.right)})"
        if isinstance(node, BoolConst):
            return "True" if node.value else "False"
        if isinstance(node, Not):
            return f"(not {self.pred(node.operand)})"
        if isinstance(node, And):
            return f"({self.pred(node.left)} and {self.pred(node.right)})"
        if isinstance(node, Or):
            return f"({self.pred(node.left)} or {self.pred(node.right)})"
        raise ReproError(
            f"cannot compile predicate node {type(node).__name__}")


def _contains_loop_expr(node) -> bool:
    """Whether an expression/predicate can raise from inside eval."""
    if isinstance(node, LoopExpr):
        return True
    if isinstance(node, (BinOp, Compare, And, Or)):
        return _contains_loop_expr(node.left) or _contains_loop_expr(node.right)
    if isinstance(node, (Neg, Not)):
        return _contains_loop_expr(node.operand)
    if isinstance(node, Ite):
        return (_contains_loop_expr(node.predicate)
                or _contains_loop_expr(node.then_value)
                or _contains_loop_expr(node.else_value))
    return False


def _box_hazardous(box: Box) -> bool:
    if isinstance(box, AssignBox):
        return _contains_loop_expr(box.expression)
    if isinstance(box, DecisionBox):
        return _contains_loop_expr(box.predicate)
    if isinstance(box, (SendBox, RecvBox)):
        # Channel boxes mutate queue state the generated code does not
        # model; channel programs run on the interpreter on every tier.
        return True
    return False


def _box_touch_bits(box: Box, flowchart: Flowchart,
                    bit_of: Dict[str, int]) -> int:
    """The interpreter's per-box ``touched`` contribution, as a bitmask."""
    mask = 0
    if isinstance(box, HaltBox):
        mask |= 1 << bit_of[flowchart.output_variable]
    elif isinstance(box, AssignBox):
        mask |= 1 << bit_of[box.target]
        for name in box.expression.variables():
            mask |= 1 << bit_of[name]
    elif isinstance(box, DecisionBox):
        for name in box.predicate.variables():
            mask |= 1 << bit_of[name]
    elif isinstance(box, DowngradeBox):
        # Matches the interpreter: the relabel touches its variable.
        mask |= 1 << bit_of[box.variable]
    return mask


# ---------------------------------------------------------------------------
# Basic blocks
# ---------------------------------------------------------------------------

def _find_leaders(flowchart: Flowchart, entry: NodeId) -> List[NodeId]:
    """Block leaders: the entry, decision targets, and join points."""
    predecessors = flowchart.predecessors()
    leaders = [entry]
    seen = {entry}
    for node_id in flowchart.reachable_from(entry):
        box = flowchart.boxes[node_id]
        if isinstance(box, DecisionBox):
            for target in box.successors():
                if target not in seen:
                    seen.add(target)
                    leaders.append(target)
        if node_id not in seen and len(predecessors[node_id]) > 1:
            seen.add(node_id)
            leaders.append(node_id)
    return leaders


def _block_chain(flowchart: Flowchart, leader: NodeId,
                 leader_set: frozenset) -> Tuple[List[NodeId], Optional[NodeId]]:
    """Boxes of the block starting at ``leader`` plus its fallthrough.

    The chain extends through assignment (and degenerate start) boxes
    until it reaches a decision/halt box (included, ends the block) or
    the next box is a leader (excluded; the block falls through to it).
    """
    chain: List[NodeId] = []
    current = leader
    while True:
        chain.append(current)
        box = flowchart.boxes[current]
        if isinstance(box, (DecisionBox, HaltBox)):
            return chain, None
        nxt = box.successors()[0]
        if nxt in leader_set:
            return chain, nxt
        current = nxt


class CompiledFlowchart:
    """One flowchart's compiled executor plus its decode tables."""

    __slots__ = ("flowchart_name", "arity", "source", "function",
                 "env_names", "_mask_cache")

    def __init__(self, flowchart_name: str, arity: int, source: str,
                 function, env_names: Tuple[str, ...]) -> None:
        self.flowchart_name = flowchart_name
        self.arity = arity
        self.source = source
        self.function = function
        self.env_names = env_names
        self._mask_cache: Dict[int, frozenset] = {}

    def touched_set(self, mask: int) -> frozenset:
        """Decode a touch bitmask into the interpreter's frozenset."""
        try:
            return self._mask_cache[mask]
        except KeyError:
            names = frozenset(
                name for index, name in enumerate(self.env_names)
                if mask >> index & 1)
            self._mask_cache[mask] = names
            return names


def generate_source(flowchart: Flowchart) -> Tuple[str, Dict[str, object],
                                                   Tuple[str, ...]]:
    """Generate the executor source for a flowchart.

    Returns ``(source, namespace, env_names)``; exposed separately from
    :func:`compile_flowchart` so tests and the curious can inspect the
    generated code.
    """
    gen = _Codegen(flowchart)
    entry = flowchart.boxes[flowchart.start_id].successors()[0]
    leaders = _find_leaders(flowchart, entry)
    leader_set = frozenset(leaders)
    pc_of = {leader: index for index, leader in enumerate(leaders)}

    lines: List[str] = []
    emit = lines.append
    emit("def _compiled(_inputs, _fuel, _capture_env, _cap, _capb):")
    for name in gen.env_names:
        emit(f"    {gen.local_of[name]} = 0")
    for position, name in enumerate(flowchart.input_variables):
        emit(f"    {gen.local_of[name]} = int(_inputs[{position}])")
    emit("    _steps = 0")
    emit("    _touched = 0")
    emit("    _pc = 0")

    env_literal = "{" + ", ".join(
        f"{name!r}: {gen.local_of[name]}" for name in gen.env_names) + "}"

    def emit_body(boxes, fallthrough, indent: str, capped: bool) -> None:
        """One block body, in one of two fidelity modes.

        ``capped=False`` is today's fast shape: one exact fuel check for
        a whole non-hazardous block (see module docstring).  ``capped``
        mode interleaves the interpreter's per-box fuel check with the
        post-assignment cap check, because a block where box *i* would
        blow the cap and box *j > i* would blow the fuel must raise the
        same exception the interpreter raises — the bulk fuel precheck
        would report fuel where the interpreter reports the cap.
        """
        block_mask = 0
        for box in boxes:
            block_mask |= _box_touch_bits(box, flowchart, gen.bit_of)
        hazardous = any(_box_hazardous(box) for box in boxes)
        per_box = capped or hazardous

        if not per_box:
            emit(f"{indent}if _steps + {len(boxes)} > _fuel:")
            emit(f"{indent}    raise _fuel_error(_fuel, _inputs)")
            emit(f"{indent}_steps += {len(boxes)}")
            if block_mask:
                emit(f"{indent}_touched |= {block_mask}")

        for box in boxes:
            if per_box:
                box_mask = _box_touch_bits(box, flowchart, gen.bit_of)
                emit(f"{indent}if _steps >= _fuel:")
                emit(f"{indent}    raise _fuel_error(_fuel, _inputs)")
                emit(f"{indent}_steps += 1")
                if box_mask:
                    emit(f"{indent}_touched |= {box_mask}")
            if isinstance(box, AssignBox):
                target = gen.local_of[box.target]
                emit(f"{indent}{target} = {gen.expr(box.expression)}")
                if capped:
                    emit(f"{indent}if {target} >= _capb "
                         f"or {target} <= -_capb:")
                    emit(f"{indent}    raise _cap_error(_cap, _inputs)")
            elif isinstance(box, DecisionBox):
                true_pc = pc_of[box.true_next]
                false_pc = pc_of[box.false_next]
                emit(f"{indent}_pc = {true_pc} "
                     f"if {gen.pred(box.predicate)} else {false_pc}")
                emit(f"{indent}continue")
            elif isinstance(box, HaltBox):
                value = gen.local_of[flowchart.output_variable]
                emit(f"{indent}return ({value}, _steps, _touched, "
                     f"{env_literal} if _capture_env else None)")
            elif isinstance(box, (PolicyChangeBox, DowngradeBox)):
                # Label-layer effects only: no value change at this tier.
                # The step and touch accounting above already covers them.
                pass
            elif isinstance(box, StartBox):  # pragma: no cover - validation
                pass  # costs one step, touches nothing, falls through
        if fallthrough is not None:
            emit(f"{indent}_pc = {pc_of[fallthrough]}")
            emit(f"{indent}continue")

    def emit_machine(indent: str, capped: bool) -> None:
        emit(f"{indent}while True:")
        for leader in leaders:
            chain, fallthrough = _block_chain(flowchart, leader,
                                              leader_set)
            branch = "if" if pc_of[leader] == 0 else "elif"
            emit(f"{indent}    {branch} _pc == {pc_of[leader]}:")
            boxes = [flowchart.boxes[node_id] for node_id in chain]
            emit_body(boxes, fallthrough, indent + "        ", capped)

    # Two complete machines, selected once per call: the uncapped
    # default runs exactly the pre-guard bulk-checked shape (arm
    # dispatch inside the block loop measurably slows the hot kernel),
    # and a live value cap runs its per-box guarded twin.
    emit("    if _capb is None:")
    emit_machine("        ", capped=False)
    emit("    else:")
    emit_machine("        ", capped=True)

    source = "\n".join(lines) + "\n"

    name = flowchart.name

    def _fuel_error(fuel: int, inputs) -> FuelExhaustedError:
        return FuelExhaustedError(
            fuel, f"flowchart {name} exceeded {fuel} steps "
                  f"on input {tuple(inputs)!r}")

    def _cap_error(cap: int, inputs) -> ValueCapExceededError:
        return ValueCapExceededError(
            cap, f"flowchart {name} assigned a value wider than "
                 f"{cap} bits on input {tuple(inputs)!r}")

    gen.namespace["_fuel_error"] = _fuel_error
    gen.namespace["_cap_error"] = _cap_error
    return source, gen.namespace, gen.env_names


_compile_lock = threading.Lock()
_COMPILED: "weakref.WeakKeyDictionary[Flowchart, CompiledFlowchart]" = (
    weakref.WeakKeyDictionary())


def compile_flowchart(flowchart: Flowchart) -> CompiledFlowchart:
    """Compile (with per-flowchart caching) a flowchart to native code."""
    compiled = _COMPILED.get(flowchart)
    if compiled is not None:
        return compiled
    with _compile_lock:
        compiled = _COMPILED.get(flowchart)
        if compiled is not None:
            return compiled
        source, namespace, env_names = generate_source(flowchart)
        code = compile(source, f"<fastpath:{flowchart.name}>", "exec")
        exec(code, namespace)
        compiled = CompiledFlowchart(
            flowchart.name, flowchart.arity, source,
            namespace["_compiled"], env_names)
        _COMPILED[flowchart] = compiled
        return compiled


# ---------------------------------------------------------------------------
# LRU memo (the serve caches)
# ---------------------------------------------------------------------------

class _LRUMemo:
    """A small thread-safe LRU map; maxsize <= 0 disables it."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if self.maxsize <= 0:
            return None
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                self.misses += 1
                return None
            self._data[key] = value
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """One consistent snapshot of size/maxsize/hits/misses.

        Taken under the memo lock so a concurrent ``put`` mid-trim can
        never be observed as ``size > maxsize`` (unlocked reads could
        tear exactly that way under the server's thread pool).
        """
        with self._lock:
            return {"size": len(self._data), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


def clear_result_memo() -> None:
    """Drop memoised execution results: a no-op, kept for callers that
    clear before every timed rep (``bench/sweep_bench.py``).  No result
    is memoised: a sweep shares each point's run across its policies
    by scheduling (:mod:`repro.verify.parallel`)."""


def clear_caches() -> None:
    """Drop compiled functions."""
    with _compile_lock:
        _COMPILED.clear()


# ---------------------------------------------------------------------------
# Execution entry points
# ---------------------------------------------------------------------------

def execute_compiled(flowchart: Flowchart, inputs: Sequence[int],
                     fuel: int = DEFAULT_FUEL,
                     record_trace: bool = False,
                     capture_env: bool = False,
                     value_cap: Optional[int] = None) -> ExecutionResult:
    """Compiled-backend twin of :func:`~repro.flowchart.interpreter.execute`.

    ``record_trace`` needs per-box identities the compiled code no
    longer has, so tracing runs fall back to the interpreter (the trace
    is a debugging observable, not part of the Section 2 output).
    """
    if record_trace:
        return execute(flowchart, inputs, fuel=fuel, record_trace=True,
                       capture_env=capture_env, value_cap=value_cap)
    if flowchart.has_channels():
        # Channel queues are runtime state the generated straight-line
        # code does not model; the interpreter is the reference
        # semantics for send/recv, so single-node runs stay
        # bit-identical across every tier by construction.
        return execute(flowchart, inputs, fuel=fuel,
                       capture_env=capture_env, value_cap=value_cap)
    if len(inputs) != flowchart.arity:
        raise ArityMismatchError(
            f"flowchart {flowchart.name} takes {flowchart.arity} inputs, "
            f"got {len(inputs)}"
        )
    cap = (default_value_cap() if value_cap is None
           else resolve_value_cap(value_cap))
    bound = None if cap is None else 1 << cap
    compiled = compile_flowchart(flowchart)
    if _obs.active:
        try:
            value, steps, mask, env = compiled.function(
                tuple(inputs), fuel, capture_env, cap, bound)
        except FuelExhaustedError as error:
            _obs.record_fuel_exhausted(flowchart.name, error.fuel)
            raise
        except ValueCapExceededError as error:
            _obs.record_value_cap_exceeded(flowchart.name, error.cap)
            raise
        _obs.record_run("compiled", flowchart.name, steps)
    else:
        value, steps, mask, env = compiled.function(
            tuple(inputs), fuel, capture_env, cap, bound)
    return ExecutionResult(value, steps, None, env,
                           compiled.touched_set(mask))


def run_flowchart(flowchart: Flowchart, inputs: Sequence[int],
                  fuel: int = DEFAULT_FUEL,
                  record_trace: bool = False,
                  capture_env: bool = False,
                  backend: Optional[str] = None,
                  value_cap: Optional[int] = None) -> ExecutionResult:
    """Execute via whichever tier :func:`resolve_backend` selects; one
    point under ``batch`` is one compiled-tier call."""
    if resolve_backend(backend) == "interpreted":
        return execute(flowchart, inputs, fuel=fuel,
                       record_trace=record_trace, capture_env=capture_env,
                       value_cap=value_cap)
    return execute_compiled(flowchart, inputs, fuel=fuel,
                            record_trace=record_trace,
                            capture_env=capture_env, value_cap=value_cap)
