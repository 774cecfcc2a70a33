"""Batch (gen-2) flowchart execution: whole grids per basic block.

The compiled backend (:mod:`repro.flowchart.fastpath`) removed the
interpreter's per-box dispatch but still runs one grid point per call,
so a ∀-sweep pays Python call/loop overhead once per point.  This
module compiles a flowchart once into a *structure-of-arrays*
evaluator: the environment becomes one column per variable, and each
basic block executes over the whole vector of grid points that are
currently parked at it.  Control flow is a worklist over program
counters — every round, active lanes are grouped by their ``pc`` and
each group runs its block's vectorized body, so lanes that take
different branches (or exit loops at different trip counts) simply end
up in different groups.

Lanes are int64 NumPy columns and block bodies are NumPy ufuncs.
Exactness is protected twice over: a *static* per-block bit-width
analysis proves no intermediate can overflow int64 given the
per-flowchart entry invariant ``|v| <= 2**E``, and a *dynamic*
block-exit guard retires any lane whose value outgrows ``2**E`` to the
per-lane fallback below.  A flowchart the analysis cannot bound (or
with more than 63 environment variables, the ``touched`` bitmask
width) compiles to no blocks at all, and so does every flowchart when
NumPy is not importable: each of its lanes runs on the compiled tier,
so NumPy stays optional.

Per-lane fidelity mirrors the fastpath dual machines exactly: the
uncapped machine does one bulk ``steps + n > fuel`` check per block,
the capped machine interleaves the per-box ``steps >= fuel`` check
with the post-assignment cap check, so a block where box *i* blows the
cap and box *j > i* blows the fuel faults with the cap — the same
``Λ!fuel[N]`` / ``Λ!cap[C]`` ordering the interpreter produces.  Lanes
that fault retire from the active mask with their fault *kind* (fault
notices carry only the global budget, so no per-lane error object is
needed); lanes that hit a hazard (a :class:`LoopExpr` block), an
oversized input, or the value guard retire to ``FALLBACK`` and
are re-run individually on the compiled engine, so correctness never
depends on the vectorizer handling every shape.

Caching: one compiled artifact per flowchart with hit/miss counters
(surfaced through ``fastpath.memo_stats``), plus an LRU over
``(flowchart, points, fuel, cap)`` batch rows so a sweep's 2^k
policies share one evaluation of the policy-independent program rows.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import (ArityMismatchError, FuelExhaustedError,
                           ReproError, ValueCapExceededError)
from ..obs import runtime as _obs
from ..robustness.faults import default_value_cap, resolve_value_cap
from .boxes import AssignBox, Box, DecisionBox, HaltBox, StartBox
from .expr import (And, BinOp, BoolConst, Compare, Const, Ite, LoopExpr,
                   Neg, Not, Or, Var)
from .fastpath import (_Codegen, _LRUMemo, _block_chain, _box_hazardous,
                       _box_touch_bits, _find_leaders, compile_flowchart)
from .interpreter import DEFAULT_FUEL, ExecutionResult, execute
from .program import Flowchart

#: Per-lane outcome kinds on a finished batch.
K_OK, K_FUEL, K_CAP = 0, 1, 2

# Lane statuses while a batch is being driven.
_ACTIVE, _DONE, _FUEL, _CAP, _FALLBACK = 0, 1, 2, 3, 4

#: Every intermediate must fit int64: |v| <= 2**62 keeps one sign bit.
_SAFE_BITS = 62

_ROWS_MEMO_SIZE = 512


def _numpy():
    """The numpy module, or None (imported once, never required)."""
    global _NP_PROBED, _NP
    if not _NP_PROBED:
        try:
            import numpy
            _NP = numpy
        except ImportError:  # pragma: no cover - numpy present in CI image
            _NP = None
        _NP_PROBED = True
    return _NP


_NP = None
_NP_PROBED = False


# ---------------------------------------------------------------------------
# Static bit-width analysis (int64 lane safety)
# ---------------------------------------------------------------------------

def _expr_width(node, widths: Dict[str, int], seen: List[int]) -> int:
    """Magnitude exponent bound: the result satisfies ``|v| <= 2**w``.

    Every subexpression's bound lands in ``seen`` — the caller rejects
    the block if any intermediate can exceed ``2**_SAFE_BITS``.
    """
    if isinstance(node, Const):
        width = abs(node.value).bit_length()
    elif isinstance(node, Var):
        width = widths[node.name]
    elif isinstance(node, BinOp):
        left = _expr_width(node.left, widths, seen)
        right = _expr_width(node.right, widths, seen)
        if node.op in ("+", "-"):
            width = max(left, right) + 1
        elif node.op == "*":
            width = left + right
        elif node.op == "//":
            width = left
        elif node.op == "%":
            width = right
        elif node.op in ("min", "max"):
            width = max(left, right)
        else:  # | & ^ on two's complement int64
            width = max(left, right) + 1
    elif isinstance(node, Neg):
        width = _expr_width(node.operand, widths, seen)
    elif isinstance(node, Ite):
        _pred_width(node.predicate, widths, seen)
        width = max(_expr_width(node.then_value, widths, seen),
                    _expr_width(node.else_value, widths, seen))
    else:  # pragma: no cover - LoopExpr blocks are hazardous, never analysed
        raise ReproError(
            f"cannot bound expression node {type(node).__name__}")
    seen.append(width)
    return width


def _pred_width(node, widths: Dict[str, int], seen: List[int]) -> None:
    if isinstance(node, Compare):
        _expr_width(node.left, widths, seen)
        _expr_width(node.right, widths, seen)
    elif isinstance(node, (And, Or)):
        _pred_width(node.left, widths, seen)
        _pred_width(node.right, widths, seen)
    elif isinstance(node, Not):
        _pred_width(node.operand, widths, seen)
    # BoolConst: no numeric operands.


def _block_exit_widths(plan: "_BlockPlan", env_names: Sequence[str],
                       entry: int) -> Optional[Dict[str, int]]:
    """Widths of block-exit values given entry invariant ``2**entry``.

    Returns None if any intermediate can exceed ``2**_SAFE_BITS``;
    otherwise a map of assigned variables to their exit-value bound
    (a variable assigned twice keeps the *last* width — that is the
    value the block-exit guard sees).
    """
    widths = {name: entry for name in env_names}
    assigned: Dict[str, int] = {}
    seen: List[int] = []
    for box in plan.boxes:
        if isinstance(box, AssignBox):
            width = _expr_width(box.expression, widths, seen)
            widths[box.target] = width
            assigned[box.target] = width
        elif isinstance(box, DecisionBox):
            _pred_width(box.predicate, widths, seen)
    if any(width > _SAFE_BITS for width in seen):
        return None
    return assigned


def _guard_exponent(plans: Sequence["_BlockPlan"],
                    env_names: Sequence[str]) -> Optional[int]:
    """The largest entry invariant E that keeps every block int64-safe."""
    for exponent in range(_SAFE_BITS, 0, -1):
        if all(plan.hazardous
               or _block_exit_widths(plan, env_names, exponent) is not None
               for plan in plans):
            return exponent
    return None


# ---------------------------------------------------------------------------
# Block plans
# ---------------------------------------------------------------------------

class _BlockPlan:
    __slots__ = ("index", "boxes", "fallthrough", "hazardous")

    def __init__(self, index: int, boxes: List[Box],
                 fallthrough: Optional[int], hazardous: bool) -> None:
        self.index = index
        self.boxes = boxes
        self.fallthrough = fallthrough  # pc of the next block, or None
        self.hazardous = hazardous


def _block_plans(flowchart: Flowchart) -> Tuple[List[_BlockPlan], _Codegen]:
    gen = _Codegen(flowchart)
    entry = flowchart.boxes[flowchart.start_id].successors()[0]
    leaders = _find_leaders(flowchart, entry)
    leader_set = frozenset(leaders)
    pc_of = {leader: index for index, leader in enumerate(leaders)}
    plans = []
    for leader in leaders:
        chain, fallthrough = _block_chain(flowchart, leader, leader_set)
        boxes = [flowchart.boxes[node_id] for node_id in chain]
        plans.append(_BlockPlan(
            pc_of[leader], boxes,
            None if fallthrough is None else pc_of[fallthrough],
            any(_box_hazardous(box) for box in boxes)))
    gen.pc_of = pc_of
    return plans, gen


def _block_vars(plan: _BlockPlan, flowchart: Flowchart) -> Tuple[List[str],
                                                                 List[str]]:
    """(used, assigned) env variable names of a block, in stable order."""
    used: List[str] = []
    assigned: List[str] = []

    def note(name: str) -> None:
        if name not in used:
            used.append(name)

    for box in plan.boxes:
        if isinstance(box, AssignBox):
            for name in sorted(box.expression.variables()):
                note(name)
            note(box.target)
            if box.target not in assigned:
                assigned.append(box.target)
        elif isinstance(box, DecisionBox):
            for name in sorted(box.predicate.variables()):
                note(name)
        elif isinstance(box, HaltBox):
            note(flowchart.output_variable)
    return used, assigned


# ---------------------------------------------------------------------------
# Vectorized expression + block codegen
# ---------------------------------------------------------------------------

class _VecGen:
    """Vector twin of ``_Codegen.expr``: arrays in, arrays (mostly) out."""

    def __init__(self, gen: _Codegen) -> None:
        self.gen = gen

    def expr(self, node) -> str:
        gen = self.gen
        if isinstance(node, Const):
            return f"({node.value!r})"
        if isinstance(node, Var):
            return gen.local_of[node.name]
        if isinstance(node, BinOp):
            left, right = self.expr(node.left), self.expr(node.right)
            if node.op in ("+", "-", "*", "|", "&", "^"):
                return f"({left} {node.op} {right})"
            if node.op == "//":
                return f"_vdiv({left}, {right})"
            if node.op == "%":
                return f"_vmod({left}, {right})"
            if node.op == "min":
                return f"_np.minimum({left}, {right})"
            return f"_np.maximum({left}, {right})"
        if isinstance(node, Neg):
            return f"(-{self.expr(node.operand)})"
        if isinstance(node, Ite):
            return (f"_np.where({self.pred(node.predicate)}, "
                    f"{self.expr(node.then_value)}, "
                    f"{self.expr(node.else_value)})")
        raise ReproError(  # pragma: no cover - hazardous blocks never emitted
            f"cannot vectorize expression node {type(node).__name__}")

    def pred(self, node) -> str:
        if isinstance(node, Compare):
            return (f"({self.expr(node.left)} {node.op} "
                    f"{self.expr(node.right)})")
        if isinstance(node, BoolConst):
            return "True" if node.value else "False"
        if isinstance(node, Not):
            return f"_np.logical_not({self.pred(node.operand)})"
        if isinstance(node, And):
            return (f"_np.logical_and({self.pred(node.left)}, "
                    f"{self.pred(node.right)})")
        if isinstance(node, Or):
            return (f"_np.logical_or({self.pred(node.left)}, "
                    f"{self.pred(node.right)})")
        raise ReproError(  # pragma: no cover - hazardous blocks never emitted
            f"cannot vectorize predicate node {type(node).__name__}")


def _emit_numpy_block(lines: List[str], flowchart: Flowchart,
                      gen: _Codegen, vec: _VecGen, plan: _BlockPlan,
                      capped: bool, guard_names: Sequence[str],
                      fuel_checked: bool = True) -> None:
    emit = lines.append
    used, assigned = _block_vars(plan, flowchart)
    local = gen.local_of
    suffix = "c" if capped else ("u" if fuel_checked else "f")
    extra = ", _capb" if capped else ""
    emit(f"def _b{plan.index}_{suffix}(_env, _sel, _steps, _touched, "
         f"_pc, _status, _value, _fuel{extra}):")

    live_locals: List[str] = []

    def emit_filter(keep: str) -> None:
        """Retire faulted lanes and compress _sel plus live locals."""
        emit(f"        _sel = _sel[{keep}]")
        for name in live_locals:
            emit(f"        {name} = {name}[{keep}]")
        emit("        if _sel.shape[0] == 0:")
        emit("            return")

    if not capped:
        n_boxes = len(plan.boxes)
        block_mask = 0
        for box in plan.boxes:
            block_mask |= _box_touch_bits(box, flowchart, gen.bit_of)
        # The "f" variant omits the fuel test: the driver only calls
        # it on rounds where its scalar steps ceiling proves no lane
        # can exhaust (see _drive_numpy), so the test is all-False.
        if fuel_checked:
            emit(f"    _over = _steps[_sel] + {n_boxes} > _fuel")
            emit("    if _over.any():")
            emit(f"        _f = _sel[_over]")
            emit(f"        _status[_f] = {_FUEL}")
            emit("        _pc[_f] = -1")
            emit_filter("~_over")
        emit(f"    _steps[_sel] += {n_boxes}")
        if block_mask:
            emit(f"    _touched[_sel] |= {block_mask}")

    for name in used:
        emit(f"    {local[name]} = _env[{gen.bit_of[name]}][_sel]")
        live_locals.append(local[name])

    for box in plan.boxes:
        if capped:
            box_mask = _box_touch_bits(box, flowchart, gen.bit_of)
            emit("    _over = _steps[_sel] >= _fuel")
            emit("    if _over.any():")
            emit("        _f = _sel[_over]")
            emit(f"        _status[_f] = {_FUEL}")
            emit("        _pc[_f] = -1")
            emit_filter("~_over")
            emit("    _steps[_sel] += 1")
            if box_mask:
                emit(f"    _touched[_sel] |= {box_mask}")
        if isinstance(box, AssignBox):
            target = local[box.target]
            body = vec.expr(box.expression)
            scalar = not box.expression.variables()
            if scalar and (capped or box.target in guard_names):
                # A pure-constant assignment broadcasts fine through
                # arithmetic, but cap/guard checks boolean-index _sel
                # with its comparison result, which must be an array.
                body = f"_np.full(_sel.shape[0], {body}, dtype=_np.int64)"
            emit(f"    {target} = {body}")
            if capped:
                emit(f"    _hit = ({target} >= _capb) | "
                     f"({target} <= -_capb)")
                emit("    if _hit.any():")
                emit("        _f = _sel[_hit]")
                emit(f"        _status[_f] = {_CAP}")
                emit("        _pc[_f] = -1")
                emit_filter("~_hit")
        elif isinstance(box, StartBox):  # pragma: no cover - validation
            pass  # costs one step, touches nothing, falls through

    for name in assigned:
        emit(f"    _env[{gen.bit_of[name]}][_sel] = {local[name]}")

    terminator = plan.boxes[-1]
    if isinstance(terminator, HaltBox):
        emit(f"    _value[_sel] = {local[flowchart.output_variable]}")
        emit(f"    _status[_sel] = {_DONE}")
        emit("    _pc[_sel] = -1")
        return

    if isinstance(terminator, DecisionBox):
        true_pc = gen.pc_of[terminator.true_next]
        false_pc = gen.pc_of[terminator.false_next]
        emit(f"    _pc[_sel] = _np.where({vec.pred(terminator.predicate)}, "
             f"{true_pc}, {false_pc})")
    else:
        emit(f"    _pc[_sel] = {plan.fallthrough}")
    if guard_names:
        check = " | ".join(
            f"({local[name]} > _guard) | ({local[name]} < -_guard)"
            for name in guard_names)
        emit(f"    _g = {check}")
        emit("    if _g.any():")
        emit("        _f = _sel[_g]")
        emit(f"        _status[_f] = {_FALLBACK}")
        emit("        _pc[_f] = -1")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

class BatchCompiled:
    """One flowchart's batch evaluator.

    ``engine`` is ``"numpy"`` when the blocks run on int64 lanes, and
    ``"compiled"`` when the flowchart has no blocks (NumPy absent or
    widths uncertified): every lane then runs on the compiled tier.
    """

    __slots__ = ("flowchart_name", "arity", "engine", "env_names",
                 "input_bits", "blocks_u", "blocks_c", "blocks_f",
                 "max_block_cost", "source", "guard_exponent",
                 "_mask_cache")

    def __init__(self, flowchart_name: str, arity: int,
                 env_names: Tuple[str, ...], input_bits: Tuple[int, ...],
                 blocks_u: list, blocks_c: list, blocks_f: list,
                 max_block_cost: int, source: str,
                 guard_exponent: Optional[int]) -> None:
        self.flowchart_name = flowchart_name
        self.arity = arity
        self.engine = "compiled" if guard_exponent is None else "numpy"
        self.env_names = env_names
        self.input_bits = input_bits
        self.blocks_u = blocks_u  # per-pc step fn, None = hazardous
        self.blocks_c = blocks_c
        #: Fuel-test-free twins of blocks_u; the driver calls them on
        #: rounds its steps ceiling proves exhaustion-free.
        self.blocks_f = blocks_f
        #: Max step cost of any single block — the ceiling's increment.
        self.max_block_cost = max_block_cost
        self.source = source
        self.guard_exponent = guard_exponent
        self._mask_cache: Dict[int, frozenset] = {}

    def touched_set(self, mask: int) -> frozenset:
        try:
            return self._mask_cache[mask]
        except KeyError:
            names = frozenset(
                name for index, name in enumerate(self.env_names)
                if mask >> index & 1)
            self._mask_cache[mask] = names
            return names


def _make_vec_helpers(np_mod) -> Dict[str, object]:
    def _vdiv(a, b):
        zero = (b == 0)
        return np_mod.where(zero, 0,
                            np_mod.floor_divide(a, np_mod.where(zero, 1, b)))

    def _vmod(a, b):
        zero = (b == 0)
        return np_mod.where(zero, 0,
                            np_mod.remainder(a, np_mod.where(zero, 1, b)))

    return {"_np": np_mod, "_vdiv": _vdiv, "_vmod": _vmod}


def _numpy_vectorizable(plans: Sequence[_BlockPlan],
                        env_names: Sequence[str]) -> Optional[int]:
    """The guard exponent if int64 lanes can run this flowchart."""
    if _numpy() is None:
        return None
    if len(env_names) > 63:  # touched bitmask must fit int64
        return None
    return _guard_exponent(plans, env_names)


def generate_batch_source(flowchart: Flowchart) -> Tuple[str,
                                                         Dict[str, object],
                                                         _Codegen,
                                                         List[_BlockPlan],
                                                         Optional[int]]:
    """Generate the per-block step functions and their guard exponent.

    The guard is None, and the source empty, when NumPy is absent or
    the width analysis cannot certify int64 safety.
    """
    plans, gen = _block_plans(flowchart)
    guard = _numpy_vectorizable(plans, gen.env_names)
    namespace = dict(gen.namespace)
    lines: List[str] = []
    if guard is not None:
        vec = _VecGen(gen)
        namespace.update(_make_vec_helpers(_numpy()))
        namespace["_guard"] = 1 << guard
        for plan in plans:
            if plan.hazardous:
                continue
            exits = _block_exit_widths(plan, gen.env_names, guard)
            guard_names = [name for name, width in exits.items()
                           if width > guard]
            for capped, fuel_checked in ((False, True), (False, False),
                                         (True, True)):
                _emit_numpy_block(lines, flowchart, gen, vec, plan,
                                  capped=capped, guard_names=guard_names,
                                  fuel_checked=fuel_checked)
                lines.append("")
    source = "\n".join(lines) + "\n"
    return source, namespace, gen, plans, guard


_batch_lock = threading.Lock()
_BATCH_COMPILED: "weakref.WeakKeyDictionary[Flowchart, BatchCompiled]" = (
    weakref.WeakKeyDictionary())
_COMPILE_HITS = 0
_COMPILE_MISSES = 0
_LANE_FALLBACKS = 0


def compile_batch(flowchart: Flowchart) -> BatchCompiled:
    """Compile (with per-flowchart caching) a batch evaluator."""
    global _COMPILE_HITS, _COMPILE_MISSES
    with _batch_lock:
        compiled = _BATCH_COMPILED.get(flowchart)
        if compiled is not None:
            _COMPILE_HITS += 1
            return compiled
        _COMPILE_MISSES += 1
        source, namespace, gen, plans, guard = generate_batch_source(
            flowchart)
        code = compile(source, f"<batchpath:{flowchart.name}>", "exec")
        exec(code, namespace)
        if guard is None:
            plans = []  # no lanes: every point runs on the compiled tier

        def blocks(suffix: str) -> list:
            return [None if plan.hazardous
                    else namespace[f"_b{plan.index}_{suffix}"]
                    for plan in plans]

        max_cost = max(
            (len(plan.boxes) for plan in plans if not plan.hazardous),
            default=1)
        compiled = BatchCompiled(
            flowchart.name, flowchart.arity, gen.env_names,
            tuple(gen.bit_of[name] for name in flowchart.input_variables),
            blocks("u"), blocks("c"), blocks("f"), max_cost, source, guard)
        _BATCH_COMPILED[flowchart] = compiled
    if _obs.active:
        _obs.emit("batch_compiled", program=flowchart.name,
                  engine=compiled.engine, blocks=len(plans))
    return compiled


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _drive_numpy(compiled: BatchCompiled, points: Sequence[Tuple[int, ...]],
                 fuel: int, capb: Optional[int]):
    np_mod = _numpy()
    n = len(points)
    # Step counters live in int64; a fuel budget beyond 2**62 is
    # indistinguishable from one at 2**62 (no run can execute that
    # many boxes), so clamp rather than overflow the comparison.
    fuel = min(fuel, 1 << _SAFE_BITS)
    width = len(compiled.env_names)
    env = [np_mod.zeros(n, dtype=np_mod.int64) for _ in range(width)]
    steps = np_mod.zeros(n, dtype=np_mod.int64)
    touched = np_mod.zeros(n, dtype=np_mod.int64)
    pc = np_mod.zeros(n, dtype=np_mod.int64)
    status = np_mod.zeros(n, dtype=np_mod.int64)
    value = np_mod.zeros(n, dtype=np_mod.int64)

    # Columnize inputs, pre-retiring lanes whose inputs break the
    # |v| <= 2**E entry invariant (they re-run on the compiled engine).
    bound = 1 << compiled.guard_exponent
    prefiltered = 0
    matrix = None
    if compiled.arity:
        try:
            matrix = np_mod.asarray(points, dtype=np_mod.int64).reshape(
                n, compiled.arity)  # (0, arity) for an empty batch
        except (OverflowError, ValueError):
            matrix = None  # some input exceeds int64: slow per-point path
    if matrix is not None:
        oversized = ((matrix > bound) | (matrix < -bound)).any(axis=1)
        for position, bit in enumerate(compiled.input_bits):
            env[bit][:] = matrix[:, position]
        if oversized.any():
            status[oversized] = _FALLBACK
            pc[oversized] = -1
            prefiltered = int(oversized.sum())
    elif compiled.arity:
        columns = [[0] * n for _ in range(compiled.arity)]
        for i, point in enumerate(points):
            if any(v > bound or v < -bound for v in point):
                status[i] = _FALLBACK
                pc[i] = -1
                prefiltered += 1
            else:
                for position in range(compiled.arity):
                    columns[position][i] = point[position]
        for position, bit in enumerate(compiled.input_bits):
            env[bit][:] = columns[position]

    # With cap >= 2**63 no int64-held value can trip the vector cap
    # check (the guard retires wider lanes first), so the bulk-fuel
    # machine is exact and the true cap only matters on fallback lanes.
    use_capped = capb is not None and capb <= (1 << _SAFE_BITS)
    blocks = compiled.blocks_c if use_capped else compiled.blocks_u
    hazard_lanes = 0
    # Retirement is monotone, so the live index set only ever shrinks:
    # maintain it incrementally instead of re-scanning the full vector,
    # and group lanes by block with a plain set — block counts are tiny
    # and ``np.unique``'s sort costs more than it saves here.
    #
    # A lane runs at most one block per round, so a scalar ceiling
    # (steps_hi, bumped by the worst block cost) bounds every lane's
    # step counter; while it proves the fuel budget unreachable, the
    # round dispatches the fuel-test-free block twins instead.
    steps_hi = 0
    max_cost = compiled.max_block_cost
    fast_blocks = compiled.blocks_f if not use_capped else None
    live = np_mod.flatnonzero(pc >= 0)
    while live.size:
        pcs = pc[live]
        present = set(pcs.tolist())
        if len(present) == 1:
            groups = ((present.pop(), live),)
        else:
            groups = tuple((block, live[pcs == block])
                           for block in sorted(present))
        steps_hi += max_cost
        table = (fast_blocks if fast_blocks is not None and steps_hi <= fuel
                 else blocks)
        for block, sel in groups:
            fn = table[block]
            if fn is None:  # hazardous (LoopExpr) block
                status[sel] = _FALLBACK
                pc[sel] = -1
                hazard_lanes += int(sel.size)
                continue
            if use_capped:
                fn(env, sel, steps, touched, pc, status, value, fuel, capb)
            else:
                fn(env, sel, steps, touched, pc, status, value, fuel)
        live = live[pc[live] >= 0]

    total_fallback = int((status == _FALLBACK).sum())
    reasons = {}
    if prefiltered:
        reasons["input_width"] = prefiltered
    if hazard_lanes:
        reasons["hazard"] = hazard_lanes
    guarded = total_fallback - prefiltered - hazard_lanes
    if guarded:
        reasons["value_guard"] = guarded
    return env, steps, touched, status, value, reasons, matrix


# ---------------------------------------------------------------------------
# Batch results
# ---------------------------------------------------------------------------

class BatchResult:
    """Per-lane outcomes of one batch execution.

    Lane ``i`` corresponds to ``points[i]``; ``kind(i)`` is one of
    ``K_OK`` / ``K_FUEL`` / ``K_CAP``, and the accessors reproduce the
    interpreter's observables for that lane.  Fallback lanes carry
    their full :class:`ExecutionResult` from the compiled re-run.
    """

    __slots__ = ("compiled", "points", "fuel", "cap", "kinds", "values",
                 "lane_steps", "lane_touched", "env_columns", "overrides",
                 "fallback_reasons", "input_matrix", "summary_cache")

    def __init__(self, compiled: BatchCompiled, points, fuel, cap,
                 kinds, values, lane_steps, lane_touched, env_columns,
                 overrides: Dict[int, ExecutionResult],
                 fallback_reasons: Dict[str, int],
                 input_matrix=None) -> None:
        self.compiled = compiled
        self.points = points
        self.fuel = fuel
        self.cap = cap
        self.kinds = kinds
        self.values = values
        self.lane_steps = lane_steps
        self.lane_touched = lane_touched
        self.env_columns = env_columns
        self.overrides = overrides
        self.fallback_reasons = fallback_reasons
        #: The int64 (n, arity) input matrix when the driver
        #: columnized it — callers (the sweep summarizer) reuse it
        #: instead of re-converting the Python point tuples.
        self.input_matrix = input_matrix
        #: Policy-independent (outkind, accepts, vals) computed by the
        #: sweep summarizer on first use; the rows memo hands the same
        #: BatchResult to every policy of a pair, so it pays once.
        self.summary_cache = None

    def __len__(self) -> int:
        return len(self.points)

    def kind(self, i: int) -> int:
        return int(self.kinds[i])

    def value(self, i: int) -> int:
        override = self.overrides.get(i)
        if override is not None:
            return override.value
        return int(self.values[i])

    def steps(self, i: int) -> int:
        override = self.overrides.get(i)
        if override is not None:
            return override.steps
        return int(self.lane_steps[i])

    def touched(self, i: int) -> frozenset:
        override = self.overrides.get(i)
        if override is not None:
            return override.touched
        return self.compiled.touched_set(int(self.lane_touched[i]))

    def env(self, i: int) -> Optional[Dict[str, int]]:
        override = self.overrides.get(i)
        if override is not None:
            return override.env
        return {name: int(self.env_columns[index][i])
                for index, name in enumerate(self.compiled.env_names)}

    def env_value(self, i: int, name: str) -> int:
        override = self.overrides.get(i)
        if override is not None:
            return override.env[name]
        index = self.compiled.env_names.index(name)
        return int(self.env_columns[index][i])

    def vector_view(self):
        """(numpy, kinds, values) when every lane lives in the arrays.

        None when any lane was resolved per-lane (its value may not
        even fit int64) — callers then walk the scalar accessors instead.
        """
        if isinstance(self.kinds, list):
            return None
        return _numpy(), self.kinds, self.values

    def env_column(self, name: str):
        """One environment column (only valid without overrides)."""
        return self.env_columns[self.compiled.env_names.index(name)]


# ---------------------------------------------------------------------------
# Execution entry points
# ---------------------------------------------------------------------------

_ROWS_MEMO = _LRUMemo(_ROWS_MEMO_SIZE)


def execute_batch(flowchart: Flowchart,
                  points: Sequence[Sequence[int]],
                  fuel: int = DEFAULT_FUEL,
                  value_cap: Optional[int] = None,
                  need_env: bool = False,
                  memo: bool = True) -> BatchResult:
    """Run a whole batch of grid points through one flowchart.

    Returns a :class:`BatchResult` whose rows are bit-identical to
    running the interpreter per point: same value/steps/touched on
    success, same fault *kind* on fuel/cap exhaustion (fault notices
    carry only the global budget, so the kind is the whole outcome).
    Undeclared faults (e.g. a LoopExpr exceeding its own fuel) raise
    out of the per-lane fallback exactly as the interpreter would.
    Metrics see the batch as one run; a lane's fuel or cap fault is
    for the caller that decides on it to count.
    """
    global _LANE_FALLBACKS
    arity = flowchart.arity
    cap = (default_value_cap() if value_cap is None
           else resolve_value_cap(value_cap))
    # Fast probe: when the caller already passes canonical tuples (the
    # sweep path does), hit the memo before paying canonicalisation or
    # the arity scan — a stored key proves those points validated once.
    key = (flowchart, tuple(points), fuel, cap, need_env) if memo else None
    if key is not None:
        try:
            cached = _ROWS_MEMO.get(key)
        except TypeError:  # non-tuple points; canonicalise and re-key
            cached = None
            key = None
        if cached is not None:
            return cached
    points = [point if type(point) is tuple else tuple(point)
              for point in points]
    for point in points:
        if len(point) != arity:
            raise ArityMismatchError(
                f"flowchart {flowchart.name} takes {arity} "
                f"inputs, got {len(point)}")
    if memo and key is None:
        key = (flowchart, tuple(points), fuel, cap, need_env)
        cached = _ROWS_MEMO.get(key)
        if cached is not None:
            return cached
    compiled = compile_batch(flowchart)
    overrides: Dict[int, ExecutionResult] = {}
    if compiled.engine == "numpy":
        (env, steps, touched, status, value, reasons,
         matrix) = _drive_numpy(compiled, points, fuel,
                                None if cap is None else 1 << cap)
        np_mod = _numpy()
        fallback_lanes = np_mod.flatnonzero(status == _FALLBACK).tolist()
        if fallback_lanes:
            kinds = [K_FUEL if s == _FUEL else K_CAP if s == _CAP else K_OK
                     for s in status.tolist()]
        else:
            kinds = np_mod.where(status == _FUEL, K_FUEL,
                                 np_mod.where(status == _CAP, K_CAP, K_OK))
    else:
        # No blocks: every lane runs on the compiled tier.
        env = matrix = None
        steps = touched = value = [0] * len(points)
        kinds = [K_OK] * len(points)
        fallback_lanes = range(len(points))
        reasons = {"unvectorized": len(points)} if points else {}
    # Channel programs re-run on the interpreter, the reference
    # semantics for send/recv, which records its own runs.
    channels = flowchart.has_channels()
    for i in fallback_lanes:
        try:
            overrides[i] = (
                execute(flowchart, points[i], fuel=fuel,
                        capture_env=need_env, value_cap=cap)
                if channels else
                _rerun_lane(flowchart, points[i], fuel, need_env, cap))
        except FuelExhaustedError:
            kinds[i] = K_FUEL
        except ValueCapExceededError:
            kinds[i] = K_CAP
    if fallback_lanes:
        _LANE_FALLBACKS += len(fallback_lanes)
        if _obs.active:
            _obs.inc("batch.lanes_fallback", len(fallback_lanes))
            for reason, count in sorted(reasons.items()):
                _obs.emit("batch_fallback", program=flowchart.name,
                          lanes=int(count), reason=reason)
    result = BatchResult(compiled, points, fuel, cap, kinds, value,
                         steps, touched, env, overrides, reasons,
                         input_matrix=matrix)
    if _obs.active:
        # One run for the whole batch: the lane array's steps, each
        # re-run lane's own count in place of its array entry.
        total_steps = int(steps.sum()) if compiled.engine == "numpy" else 0
        for i, lane in overrides.items():
            total_steps += (0 if channels else lane.steps) - int(steps[i])
        _obs.record_run("batch", flowchart.name, total_steps)
    if key is not None:
        _ROWS_MEMO.put(key, result)
    return result


def _rerun_lane(flowchart: Flowchart, point: Tuple[int, ...], fuel: int,
                need_env: bool, cap: Optional[int]) -> ExecutionResult:
    """Re-run one retired lane on the compiled tier, unobserved.

    The batch counts the lane's steps in its own run, and a lane's
    fault is for the caller to count: a sweep counts decisions, not
    lanes.  No compiled-memo lookup either: the rows memo already
    holds the whole vector, and a get and put per lane would double
    the cost of a batch whose every lane falls back.
    """
    compiled = compile_flowchart(flowchart)
    value, steps, mask, env = compiled.function(
        point, fuel, need_env, cap, None if cap is None else 1 << cap)
    return ExecutionResult(value, steps, None, env,
                           compiled.touched_set(mask))


def execute_batch_single(flowchart: Flowchart, inputs: Sequence[int],
                         fuel: int = DEFAULT_FUEL,
                         record_trace: bool = False,
                         capture_env: bool = False,
                         value_cap: Optional[int] = None) -> ExecutionResult:
    """Single-point entry used by ``run_flowchart(backend="batch")``.

    A one-lane batch; declared faults re-raise with the interpreter's
    exact message.  Tracing falls back to the interpreter just like the
    compiled backend does, and so do channel programs (send/recv boxes
    are hazardous — every lane would retire to the fallback anyway).
    """
    if record_trace:
        return execute(flowchart, inputs, fuel=fuel, record_trace=True,
                       capture_env=capture_env, value_cap=value_cap)
    if flowchart.has_channels():
        return execute(flowchart, inputs, fuel=fuel,
                       capture_env=capture_env, value_cap=value_cap)
    if len(inputs) != flowchart.arity:
        raise ArityMismatchError(
            f"flowchart {flowchart.name} takes {flowchart.arity} inputs, "
            f"got {len(inputs)}")
    rows = execute_batch(flowchart, [tuple(inputs)], fuel=fuel,
                         value_cap=value_cap, need_env=capture_env)
    kind = rows.kind(0)
    if kind == K_FUEL:
        if _obs.active:
            _obs.record_fuel_exhausted(flowchart.name, fuel)
        raise FuelExhaustedError(
            fuel, f"flowchart {flowchart.name} exceeded {fuel} steps "
                  f"on input {tuple(inputs)!r}")
    if kind == K_CAP:
        if _obs.active:
            _obs.record_value_cap_exceeded(flowchart.name, rows.cap)
        raise ValueCapExceededError(
            rows.cap, f"flowchart {flowchart.name} assigned a value wider "
                      f"than {rows.cap} bits on input {tuple(inputs)!r}")
    override = rows.overrides.get(0)
    if override is not None:
        return override
    return ExecutionResult(rows.value(0), rows.steps(0), None,
                           rows.env(0) if capture_env else None,
                           rows.touched(0))


# ---------------------------------------------------------------------------
# Stats / cache control
# ---------------------------------------------------------------------------

def batch_stats() -> Dict[str, int]:
    """Lifetime batch-tier counters (joined into ``fastpath.memo_stats``)."""
    return {
        "compile_hits": _COMPILE_HITS,
        "compile_misses": _COMPILE_MISSES,
        "lane_fallbacks": _LANE_FALLBACKS,
        "rows_size": len(_ROWS_MEMO),
        "rows_hits": _ROWS_MEMO.hits,
        "rows_misses": _ROWS_MEMO.misses,
    }


def clear_rows_memo() -> None:
    """Drop memoised batch rows (benchmarks call this per rep)."""
    _ROWS_MEMO.clear()


def clear_batch_caches() -> None:
    """Drop compiled batch evaluators, memoised rows, and counters."""
    global _COMPILE_HITS, _COMPILE_MISSES, _LANE_FALLBACKS
    _ROWS_MEMO.clear()
    with _batch_lock:
        _BATCH_COMPILED.clear()
        _COMPILE_HITS = 0
        _COMPILE_MISSES = 0
        _LANE_FALLBACKS = 0
