"""Property-based tests for the dynamic-policy subsystem.

Machine-generated programs with ``policy`` and ``downgrade`` statements
injected at random positions must satisfy the two contracts the
hand-written dynamic suite pins:

- *per-epoch static containment*: at every program counter the monitor
  visits, under whatever policy is then in force, the influence
  fixpoint's labels (for that policy bucket) dominate the monitor's
  labels — static ⊇ dynamic, bucket by bucket — and a certified
  (flowchart, policy) pair never fires the monitor.  Arbitrary box
  graphs (:mod:`tests.flowchart.box_graphs`: irreducible loops,
  self-loops, programs that never halt) are checked too; a run that
  runs out of fuel still checks the boxes it visited.  A decision that
  loops to itself is pinned as an explicit example: the draws reach
  one too rarely to catch a fixpoint that skips self-loop edges on
  every run;
- *engine agreement*: the interpreter-level surveillance mechanism,
  the compiled instrumented mechanism, and the batch tier produce
  identical outputs point-for-point, epoch-tagged notices included.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core import ProductDomain
from repro.core.policy import AllowPolicy
from repro.flowchart.batchpath import execute_batch
from repro.flowchart.boxes import AssignBox, DecisionBox, HaltBox, StartBox
from repro.flowchart.expr import Compare, Const, Var, var
from repro.flowchart.program import Flowchart
from repro.flowchart.structured import (Assign, Downgrade, If,
                                        PolicyChange, StructuredProgram,
                                        While)
from repro.surveillance.dynamic import surveil, surveillance_mechanism
from repro.surveillance.instrument import (EPOCH_VAR, VIOLATION_FLAG,
                                           instrument,
                                           instrumented_mechanism)
from repro.analysis import influence_analysis, static_verdict
from repro.robustness.faults import DECLARED_FAULTS
from tests.flowchart.box_graphs import box_graphs

GRID = [(a, b) for a in range(3) for b in range(3)]
DOMAIN = ProductDomain.integer_grid(0, 2, 2)

VARIABLES = ("x1", "x2", "r", "y")
WRITABLE = ("r", "y")


def expressions():
    atoms = st.one_of(
        st.sampled_from(VARIABLES).map(Var),
        st.integers(min_value=0, max_value=3).map(Const),
    )
    return st.recursive(
        atoms,
        lambda children: st.tuples(
            st.sampled_from(["+", "-"]), children, children
        ).map(lambda t: _binop(*t)),
        max_leaves=3,
    )


def _binop(op, left, right):
    from repro.flowchart.expr import BinOp

    return BinOp(op, left, right)


def predicates():
    return st.tuples(
        st.sampled_from(["==", "!=", "<", ">"]),
        expressions(), expressions(),
    ).map(lambda t: _compare(*t))


def _compare(op, left, right):
    from repro.flowchart.expr import Compare

    return Compare(op, left, right)


def index_sets(min_size=0):
    return st.sets(st.sampled_from([1, 2]), min_size=min_size)


def dynamic_statements(depth=1):
    assign = st.tuples(st.sampled_from(WRITABLE), expressions()).map(
        lambda t: Assign(*t))
    policy = index_sets().map(lambda s: PolicyChange(sorted(s)))
    downgrade = st.tuples(
        st.sampled_from(WRITABLE),
        index_sets(min_size=1),
    ).map(lambda t: Downgrade(t[0], sorted(t[1])))
    flat = st.one_of(assign, policy, downgrade)
    if depth == 0:
        return flat
    inner = st.lists(dynamic_statements(depth - 1), min_size=1, max_size=2)
    branch = st.tuples(predicates(), inner, inner).map(
        lambda t: If(t[0], t[1], t[2]))
    loop = inner.map(
        lambda body: If(var("x1").ne(0),
                        [Assign("c", Const(2)),
                         While(var("c").ne(0),
                               list(body) + [Assign("c", var("c") - 1)])],
                        []))
    return st.one_of(flat, branch, loop)


def dynamic_programs():
    # Force at least one dynamic construct so every example exercises
    # the new machinery (a plain program tests nothing new here).
    spine = st.one_of(
        index_sets().map(lambda s: PolicyChange(sorted(s))),
        st.tuples(st.sampled_from(WRITABLE),
                  index_sets(min_size=1)).map(
            lambda t: Downgrade(t[0], sorted(t[1]))),
    )
    return st.tuples(
        st.lists(dynamic_statements(), min_size=1, max_size=3),
        spine,
        st.lists(dynamic_statements(), min_size=0, max_size=2),
    ).map(lambda t: StructuredProgram(
        ["x1", "x2"], list(t[0]) + [t[1]] + list(t[2]), name="random-dyn"))


POLICIES = [AllowPolicy(sorted(s), 2)
            for s in ([], [1], [2], [1, 2])]

#: Generated programs and arbitrary box graphs, in equal shares.
FLOWCHARTS = st.one_of(
    dynamic_programs().map(lambda program: program.compile()),
    box_graphs())

#: Enough for every generated program; a box graph may never halt.
FUEL = 300

#: A decision that loops to itself: ``b0: if x1 == 0 goto b0 else b1``,
#: then ``b1: y := x2``.  At x1 = 0 the run loops until the fuel runs
#: out, and the observer sees b0 again with C̄ ⊇ {1}, which only the
#: self-loop edge carries back to b0.
SELF_LOOP = Flowchart({
    "start": StartBox("b0"),
    "b0": DecisionBox(Compare("==", Var("x1"), Const(0)), "b0", "b1"),
    "b1": AssignBox("y", Var("x2"), "halt"),
    "halt": HaltBox(),
}, ("x1", "x2"), "y", name="self-loop")


def surveil_within_fuel(flowchart, point, allowed, **hooks):
    """The surveillance run, or ``None`` when it faulted (the observer
    has still seen every box the run visited)."""
    try:
        return surveil(flowchart, point, allowed, fuel=FUEL, **hooks)
    except DECLARED_FAULTS:
        return None


# Twice the draws the generated programs alone had, so they keep their
# share.
@settings(max_examples=80, deadline=None)
@given(FLOWCHARTS, st.sampled_from(POLICIES))
@example(SELF_LOOP, POLICIES[0])
def test_static_per_epoch_labels_dominate_dynamic(flowchart, policy):
    analysis = influence_analysis(flowchart, policy.allowed)
    observed = []

    def observer(node, labels, pc_label, active, epoch):
        observed.append((node, dict(labels), pc_label, frozenset(active)))

    for point in GRID:
        observed.clear()
        surveil_within_fuel(flowchart, point, policy.allowed,
                            policy_observer=observer)
        for node, labels, pc_label, active in observed:
            assert pc_label <= analysis.pc_at(node, active), (point, node)
            for name, label in labels.items():
                assert label <= analysis.label_at(node, name, active), \
                    (point, node, name)


@settings(max_examples=40, deadline=None)
@given(dynamic_programs(), st.sampled_from(POLICIES))
def test_three_engines_agree_on_epoch_tagged_notices(program, policy):
    flowchart = program.compile()
    surv = surveillance_mechanism(flowchart, policy, DOMAIN)
    inst = instrumented_mechanism(flowchart, policy, DOMAIN)
    instrumented = instrument(flowchart, policy)
    batch = execute_batch(instrumented, GRID, need_env=True)
    has_epochs = bool(flowchart.policy_change_ids())
    for index, point in enumerate(GRID):
        reference = surv(*point)
        assert inst(*point) == reference, point
        env = batch.env(index)
        run = surveil(flowchart, point, frozenset(policy.allowed))
        assert (env.get(VIOLATION_FLAG, 0) == 1) == run.violated, point
        if run.violated and has_epochs:
            assert str(reference) == f"Λ@e{env.get(EPOCH_VAR, 0)}", point


@settings(max_examples=60, deadline=None)
@given(FLOWCHARTS, st.sampled_from(POLICIES))
def test_epoch_certification_implies_monitor_silence(flowchart, policy):
    # The soundness direction of the static verdict, on random
    # programs: a statically certified (flowchart, policy) pair never
    # triggers the monitor anywhere on the grid.
    if not static_verdict(flowchart, policy).certified:
        return
    for point in GRID:
        run = surveil_within_fuel(flowchart, point, policy.allowed)
        assert run is None or not run.violated, point
