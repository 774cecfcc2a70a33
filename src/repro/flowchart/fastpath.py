"""Compiled flowchart execution: source generation + ``compile()``.

The tree-walking interpreter in :mod:`repro.flowchart.interpreter` is
the hot path under every ∀-sweep in this reproduction: each grid point
of each policy of each flowchart bottoms out in recursive ``Expr.eval``
calls and per-box ``isinstance`` dispatch.  This module translates a
:class:`~repro.flowchart.program.Flowchart` once into a single native
Python function — expressions become Python expressions over local
variables, basic blocks become straight-line statement runs — and
caches the result per flowchart.  Control flow is native where it can
be: only the entry and the join points (leaders with other than one
incoming edge) get an arm of the ``while``/``elif`` dispatch loop.
Every other block is emitted inline at its one incoming edge, a
decision as ``if pred:`` with the true path inside and the false path
after it.  An arm whose inline paths jump back to its own leader runs
them inside a ``while True:`` whose back edge is ``continue``; a jump
to another arm is ``_pc = J`` and ``break`` (or ``continue`` from an
arm that does not loop), so structured loops become native Python
loops.  A block nested deeper than :data:`_MAX_INLINE_DEPTH` ``if``
bodies gets an arm of its own.

The Observability Postulate makes this a *semantics-preserving*
exercise, not just a fast one: running time (the box-count convention
documented in ``interpreter.py``) and the page-fault proxy (number of
distinct variables touched) are outputs of the program, so the compiled
function must reproduce ``(value, steps, faults)`` bit-for-bit,
including *when* a :class:`FuelExhaustedError` is raised.  The
differential test suites (``tests/flowchart/test_fastpath.py``,
``test_fault_differential.py``) check this against the interpreter over
the whole figure library and over arbitrary box graphs.

Step-count fidelity
-------------------
The interpreter checks ``steps >= fuel`` before executing each box, so
a run raises iff it would execute more than ``fuel`` boxes, and the
error carries only the fuel and the inputs.  Every compiled function
(plain and labelled, capped or not) therefore checks fuel once per
block and settles steps once per *path*: each inline path from an arm
adds up its boxes' steps and touch bits when the source is generated,
each block on it checks ``_steps + k > _fuel`` before it runs (``k`` the
path's steps through the block's end), and the path adds its steps to
``_steps`` and its bits to ``_touched`` once, where it ends (back edge,
arm transfer or halt).  A block that would cross the budget runs none
of its boxes inline, so no box past the budget ever runs: fuel bounds
time.  The function that tests a value cap (compiled only for runs
that arm one) adds one test after each assignment and nothing else.

The budget edge
---------------
A block whose check fails raises the fuel fault at once, exactly the
interpreter's fault, unless a box before its last could fault first:
an assignment under an armed cap, or an expression holding a
:class:`~repro.flowchart.expr.LoopExpr` (whose own fuel can raise
``ExecutionError``).  Such a block hands its start state to the label
walk :func:`repro.surveillance.dynamic._walk` (the interpreter's box
rules), which runs its boxes up to the budget and raises whichever
fault comes first, re-raised here with the compiled tier's message.
The block's last box lies past the budget, so no decision runs in that
stretch: a labelled lane's first-test list is already exact, and
nothing is re-run.

Fault-count fidelity
--------------------
``touched`` is a per-run union of statically known per-box variable
sets, so the compiler assigns every environment variable a bit and each
path a precomputed mask: one ``|=`` per executed path replaces two set
operations per executed box.  The mask→frozenset decoding is memoised
per compiled flowchart (runs revisit the same few masks).

Labelled mode
-------------
Section 3 defines surveillance as a program transformation, so labels
are computation like any other.  ``generate_source(Q, labels=rule)``
emits, from the same skeleton (arms, inline blocks, the cap test when
one is armed) with the exact fuel checks above, a function that keeps
each variable's label as an int-mask local beside its value (bit
``i-1`` for input ``x_i``) and returns the fields of the *policy-free*
labelled run of :func:`repro.surveillance.dynamic.policy_free_runs`:
``(value, steps, ȳ ∪ C̄, active policy, epoch, early stop, first-test
steps)``.  The rules (:data:`LABEL_RULES`) are ``timed`` (labels forget; each
epoch-0 test appends ``(step, fresh indices)`` to the caller's list,
and past a policy change a test outside the installed policy stops the
run) and ``highwater`` (labels accumulate).  The caller passes the
first-test list in, so the entries recorded before a fuel or cap fault
survive the raise.  Steps count the original boxes; channel programs
keep the interpreter's walk, the reference semantics.

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

The one cache here is the per-flowchart compiled function, one per
label rule and cap flag (weak-keyed — dies with the graph).  Results
are not memoised: a sweep task runs each grid point of its chunk once
and decides every policy of the flowchart from that run
(:mod:`repro.verify.parallel`), and ``repro serve`` caches responses.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import (ArityMismatchError, FuelExhaustedError,
                           ReproError, ValueCapExceededError)
from ..obs import runtime as _obs
from ..robustness.faults import default_value_cap, resolve_value_cap
from ..surveillance.labels import to_mask
from .boxes import (AssignBox, Box, DecisionBox, DowngradeBox, HaltBox,
                    NodeId, PolicyChangeBox)
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

#: The label rules of the labelled mode, each with the ``(timed,
#: forgetting)`` flags of the label walk it equals.
LABEL_RULES: Dict[str, Tuple[bool, bool]] = {"timed": (True, True),
                                             "highwater": (False, False)}


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


def _block_exits(flowchart: Flowchart, chain: List[NodeId],
                 fallthrough: Optional[NodeId]) -> List[Tuple[NodeId, int]]:
    """A block's successor leaders, each with the extra ``if`` nesting
    its inline emission takes: the true branch one, the rest none."""
    last = flowchart.boxes[chain[-1]]
    if isinstance(last, DecisionBox):
        return [(last.true_next, 1), (last.false_next, 0)]
    return [] if fallthrough is None else [(fallthrough, 0)]


#: ``if`` bodies a single-predecessor block may sit inside before it
#: gets a dispatch arm of its own (CPython refuses source indented
#: 100 levels deep).
_MAX_INLINE_DEPTH = 32


def _find_arms(flowchart: Flowchart, entry: NodeId,
               leader_set: frozenset) -> List[NodeId]:
    """The leaders that get a dispatch arm, the entry first.

    An arm is the entry, a join point (a leader whose number of
    predecessor edges is not one), or a block nested deeper than
    :data:`_MAX_INLINE_DEPTH`.  Every other leader has one incoming
    edge, from a decision, and is emitted inline there, so each arm
    owns a tree of inline blocks; every cycle passes through an arm.
    """
    predecessors = flowchart.predecessors()
    arms = [entry]
    is_arm = {entry}
    for arm in arms:  # grows while it is walked
        stack = [(arm, 0)]
        while stack:
            leader, depth = stack.pop()
            chain, fallthrough = _block_chain(flowchart, leader, leader_set)
            for target, nesting in _block_exits(flowchart, chain,
                                                fallthrough):
                if target in is_arm:
                    continue
                if (len(predecessors[target]) != 1
                        or depth + nesting > _MAX_INLINE_DEPTH):
                    is_arm.add(target)
                    arms.append(target)
                else:
                    stack.append((target, depth + nesting))
    return arms


class _Labels:
    """The label statements of one rule, for the labelled mode of
    :func:`generate_source`: each box's run before its value statement.

    Each environment variable's label is the local ``_l<i>`` beside its
    value ``_v<i>``, C̄ is ``_lC``; the timed rule keeps ``_tested``
    (indices already in an epoch-0 test label), and a flowchart with
    policy changes keeps ``_active`` (None in epoch 0) and ``_epoch``.
    """

    def __init__(self, gen: _Codegen, flowchart: Flowchart,
                 rule: str) -> None:
        try:
            self.timed, self.forgetting = LABEL_RULES[rule]
        except KeyError:
            raise ReproError(f"unknown label rule {rule!r}; expected one "
                             f"of {tuple(LABEL_RULES)}") from None
        self.epochs = bool(flowchart.policy_change_ids())
        self.label_of = {name: f"_l{index}"
                         for index, name in enumerate(gen.env_names)}
        self.bits = {name: 1 << position for position, name
                     in enumerate(flowchart.input_variables)}
        output = self.label_of[flowchart.output_variable]
        active, epoch = ("_active", "_epoch") if self.epochs else ("None",
                                                                   "0")
        #: The fields after the value and the steps of every return:
        #: ȳ ∪ C̄, the active policy and the epoch.
        self.state = f"{output} | _lC, {active}, {epoch}"

    def prologue(self) -> List[str]:
        lines = [f"{self.label_of[name]} = {self.bits.get(name, 0)}"
                 for name in self.label_of]
        lines.append("_lC = 0")
        if self.timed:
            lines.append("_tested = 0")
        if self.epochs:
            lines += ["_active = None", "_epoch = 0"]
        return lines

    def _join(self, names) -> List[str]:
        return [self.label_of[name] for name in sorted(names)]

    def box(self, box: Box, pending: int) -> List[str]:
        """``box``'s label statements; ``pending`` steps have run but
        are not yet added to ``_steps``."""
        steps = f"_steps + {pending}" if pending else "_steps"
        if isinstance(box, AssignBox):
            # v̄ := w̄1 ∪ ... ∪ w̄p ∪ C̄, replacing or accumulating.
            incoming = " | ".join(
                ["_lC"] + self._join(box.expression.variables()))
            operator = "=" if self.forgetting else "|="
            return [f"{self.label_of[box.target]} {operator} {incoming}"]
        if isinstance(box, DecisionBox):
            test = " | ".join(self._join(box.predicate.variables()))
            if not test:
                return []
            if not self.timed:
                return [f"_lC |= {test}"]
            record = ["_f = _t & ~_tested", "if _f:", "    _tested |= _f",
                      f"    _tests.append(({steps}, _f))"]
            if self.epochs:
                # Past a policy change the installed policy guards the
                # test (Theorem 3′): a bit outside it stops the run.
                record = (["if _active is None:"]
                          + ["    " + line for line in record]
                          + ["elif _t & ~_active:",
                             f"    return (None, {steps}, {self.state}, "
                             "True, _tests)"])
            return [f"_t = {test}"] + record + ["_lC |= _t"]
        if isinstance(box, PolicyChangeBox):
            return [f"_active = {to_mask(box.allowed)}", "_epoch += 1"]
        if isinstance(box, DowngradeBox):
            return [f"{self.label_of[box.variable]} &= "
                    f"~{to_mask(box.indices)}"]
        return []

    def halt(self, value: str) -> str:
        return f"return ({value}, _steps, {self.state}, False, _tests)"


class CompiledFlowchart:
    """One flowchart's compiled executor plus its decode tables.

    ``labels`` is the label rule of a labelled function, None for the
    plain one.
    """

    __slots__ = ("flowchart_name", "arity", "source", "function",
                 "env_names", "labels", "_mask_cache")

    def __init__(self, flowchart_name: str, arity: int, source: str,
                 function, env_names: Tuple[str, ...],
                 labels: Optional[str] = None) -> None:
        self.flowchart_name = flowchart_name
        self.arity = arity
        self.source = source
        self.function = function
        self.env_names = env_names
        self.labels = labels
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


def generate_source(flowchart: Flowchart, labels: Optional[str] = None,
                    capped: bool = False
                    ) -> Tuple[str, Dict[str, object], Tuple[str, ...]]:
    """Generate the executor source for a flowchart.

    Returns ``(source, namespace, env_names)``; exposed separately from
    :func:`compile_flowchart` so tests and the curious can inspect the
    generated code.  ``labels`` names a rule of :data:`LABEL_RULES` for
    the labelled function (see "Labelled mode" above), called as
    ``function(inputs, fuel, first_test, cap, cap_bound)``.  ``capped``
    adds the value-cap test after each assignment; without it the
    function ignores its cap arguments.
    """
    gen = _Codegen(flowchart)
    entry = flowchart.boxes[flowchart.start_id].successors()[0]
    leader_set = frozenset(_find_leaders(flowchart, entry))
    arms = _find_arms(flowchart, entry, leader_set)
    pc_of = {leader: index for index, leader in enumerate(arms)}
    rule = None if labels is None else _Labels(gen, flowchart, labels)

    lines: List[str] = []
    emit = lines.append
    emit("def _compiled(_inputs, _fuel, "
         f"{'_capture_env' if rule is None else '_tests'}, _cap, _capb):")
    for name in gen.env_names:
        emit(f"    {gen.local_of[name]} = 0")
    for position, name in enumerate(flowchart.input_variables):
        emit(f"    {gen.local_of[name]} = int(_inputs[{position}])")
    if rule is not None:
        for line in rule.prologue():
            emit(f"    {line}")
    emit("    _steps = 0")
    if rule is None:
        emit("    _touched = 0")
    if len(arms) > 1:
        emit("    _pc = 0")

    env_literal = "{" + ", ".join(
        f"{name!r}: {gen.local_of[name]}" for name in gen.env_names) + "}"
    edge_cap = "_cap" if capped else "None"

    def arm_body(arm: NodeId) -> Tuple[List[str], bool]:
        """One arm's inline tree of blocks: its lines, and whether a
        path jumps back to the arm's own leader.

        A block checks ``_steps + k > _fuel`` before it runs, ``k``
        being the steps of its path from the arm through the block's
        end (a constant here), and the path adds its steps and touch
        bits once, where it ends.  A failing check raises the fuel fault
        unless a box before the block's last could fault first (an
        assignment under an armed cap, or a ``LoopExpr``); then the
        shared walk runs the block's boxes up to the budget and raises
        whichever fault comes first (``_edge``).  A labelled function
        keeps no touch mask; each box's label statements precede its
        value statement.
        """
        body: List[str] = []
        exits: List[int] = []
        loops = False
        #: Blocks and transfers still to emit: (leader, indent, the
        #: steps and touch bits the path has checked but not added).
        stack: List[Tuple[NodeId, str, int, int]] = []

        def settle(pad: str, steps: int, mask: int) -> None:
            if steps:
                body.append(f"{pad}_steps += {steps}")
            if mask:
                body.append(f"{pad}_touched |= {mask}")

        def block(leader: NodeId, pad: str, steps: int, mask: int) -> None:
            chain, fallthrough = _block_chain(flowchart, leader, leader_set)
            boxes = [flowchart.boxes[node_id] for node_id in chain]
            body.append(f"{pad}if _steps + {steps + len(boxes)} > _fuel:")
            # The block's last box lies past the budget, so only an
            # assignment before it can fault first: under an armed cap,
            # or through a LoopExpr.
            if any(isinstance(box, AssignBox)
                   and (capped or _contains_loop_expr(box.expression))
                   for box in boxes[:-1]):
                start = f"_steps + {steps}" if steps else "_steps"
                body.append(f"{pad}    _edge(_inputs, _fuel, {edge_cap}, "
                            f"{env_literal}, {start}, {leader!r})")
            else:
                body.append(f"{pad}    raise _fuel_error(_fuel, _inputs)")
            steps += len(boxes)
            for box in boxes:
                if rule is None:
                    mask |= _box_touch_bits(box, flowchart, gen.bit_of)
                else:
                    # Only a decision, the block's last box, reads the
                    # step count: the path's steps so far, this block's
                    # included.
                    body.extend(pad + line for line in rule.box(box, steps))
                if isinstance(box, AssignBox):
                    target = gen.local_of[box.target]
                    body.append(f"{pad}{target} = {gen.expr(box.expression)}")
                    if capped:
                        body.append(f"{pad}if {target} >= _capb "
                                    f"or {target} <= -_capb:")
                        body.append(
                            f"{pad}    raise _cap_error(_cap, _inputs)")
                elif isinstance(box, DecisionBox):
                    body.append(f"{pad}if {gen.pred(box.predicate)}:")
                elif isinstance(box, HaltBox):
                    value = gen.local_of[flowchart.output_variable]
                    settle(pad, steps, mask)
                    if rule is None:
                        body.append(f"{pad}return ({value}, _steps, _touched,"
                                    f" {env_literal} if _capture_env"
                                    " else None)")
                    else:
                        body.append(f"{pad}{rule.halt(value)}")
                # Policy changes and downgrades are label-layer effects
                # only, and a (degenerate) start box falls through: the
                # step and touch accounting above covers them.
            # Pushed in reverse, so the true branch's whole tree is
            # emitted inside its ``if`` before the false branch after it.
            for target, nesting in reversed(_block_exits(flowchart, chain,
                                                         fallthrough)):
                stack.append((target, pad + "    " * nesting, steps, mask))

        block(arm, "", 0, 0)
        while stack:
            target, pad, steps, mask = stack.pop()
            if target not in pc_of:
                block(target, pad, steps, mask)
                continue
            settle(pad, steps, mask)
            if target == arm:
                body.append(f"{pad}continue")
                loops = True
            else:
                body.append(f"{pad}_pc = {pc_of[target]}")
                exits.append(len(body))
                body.append(pad)
        # A transfer leaves the arm's own loop, or else goes straight
        # back to the dispatch loop.
        for index in exits:
            body[index] += "break" if loops else "continue"
        return body, loops

    def emit_arm(arm: NodeId, indent: str) -> None:
        body, loops = arm_body(arm)
        if loops:
            emit(f"{indent}while True:")
            indent += "    "
        for line in body:
            emit(indent + line)

    if len(arms) == 1:
        emit_arm(arms[0], "    ")
    else:
        emit("    while True:")
        for arm in arms:
            branch = "if" if pc_of[arm] == 0 else "elif"
            emit(f"        {branch} _pc == {pc_of[arm]}:")
            emit_arm(arm, "            ")

    source = "\n".join(lines) + "\n"

    name = flowchart.name
    # Weak: the compile cache is keyed weakly on the flowchart, and a
    # strong reference from its own function would keep it alive.
    graph = weakref.ref(flowchart)

    def _fuel_error(fuel: int, inputs) -> FuelExhaustedError:
        return FuelExhaustedError(
            fuel, f"flowchart {name} exceeded {fuel} steps "
                  f"on input {tuple(inputs)!r}")

    def _cap_error(cap: int, inputs) -> ValueCapExceededError:
        return ValueCapExceededError(
            cap, f"flowchart {name} assigned a value wider than "
                 f"{cap} bits on input {tuple(inputs)!r}")

    def _edge(inputs, fuel: int, cap: Optional[int], env: Dict[str, int],
              steps: int, leader: NodeId) -> None:
        """Raise the first fault of a block whose last box lies past the
        budget: the shared walk runs its boxes from ``leader``, ``steps``
        taken, and raises at that box at the latest.  No decision runs
        in that stretch, so the labels (and a labelled lane's first
        tests) are not needed."""
        # Imported here: the surveillance package imports this module.
        from ..surveillance.dynamic import _walk
        flowchart = graph()
        state = [leader, env, dict.fromkeys(env, 0), 0, None, 0, steps]
        try:
            _walk(flowchart, inputs, state, flowchart.boxes, channels=None,
                  timed=False, forgetting=True, fuel=fuel, cap=cap,
                  record=False, first_test=None, watch=None)
        except FuelExhaustedError:
            raise _fuel_error(fuel, inputs) from None
        except ValueCapExceededError:
            raise _cap_error(cap, inputs) from None

    gen.namespace["_fuel_error"] = _fuel_error
    gen.namespace["_cap_error"] = _cap_error
    gen.namespace["_edge"] = _edge
    return source, gen.namespace, gen.env_names


_compile_lock = threading.Lock()
#: Each flowchart's compiled functions, by label rule (None: plain) and
#: whether a value cap is armed.
_COMPILED: ("weakref.WeakKeyDictionary[Flowchart, "
            "Dict[Tuple[Optional[str], bool], CompiledFlowchart]]") = (
    weakref.WeakKeyDictionary())


def compile_flowchart(flowchart: Flowchart, labels: Optional[str] = None,
                      capped: bool = False) -> CompiledFlowchart:
    """Compile (with per-flowchart caching) a flowchart to native code;
    ``labels`` names the label rule of a labelled function, and
    ``capped`` asks for the function that tests the value cap."""
    key = (labels, capped)
    functions = _COMPILED.get(flowchart)
    if functions is not None:
        compiled = functions.get(key)
        if compiled is not None:
            return compiled
    with _compile_lock:
        functions = _COMPILED.setdefault(flowchart, {})
        compiled = functions.get(key)
        if compiled is not None:
            return compiled
        source, namespace, env_names = generate_source(flowchart, labels,
                                                       capped)
        tag = ("" if labels is None else f":{labels}") + (
            ":capped" if capped else "")
        exec(compile(source, f"<fastpath:{flowchart.name}{tag}>", "exec"),
             namespace)
        compiled = functions[key] = CompiledFlowchart(
            flowchart.name, flowchart.arity, source,
            namespace["_compiled"], env_names, labels)
        return compiled


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
    compiled = compile_flowchart(flowchart, capped=cap is not None)
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
