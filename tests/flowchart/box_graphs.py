"""Arbitrary reachable box graphs, built directly as ``Flowchart(boxes, ...)``.

The structured front end writes only single-entry loops.  These graphs
also give the engines what no front end writes: irreducible loops with
two entries, decisions that loop to themselves or send both edges to
one box, loops that leave into a shared join, and programs that never
halt.  :func:`shapes` names the shapes a graph has, so a test can check
that :func:`box_graphs` draws each of them.
"""

from typing import Dict, List, Optional, Set

import hypothesis.strategies as st

from repro.flowchart.boxes import (AssignBox, DecisionBox, DowngradeBox,
                                   HaltBox, PolicyChangeBox, StartBox)
from repro.flowchart.expr import (BinOp, BoolConst, Compare, Const,
                                  LoopExpr, Var)
from repro.flowchart.program import Flowchart

INPUTS = ("x1", "x2")
WRITABLE = ("r", "s", "y")
START, HALT = "start", "halt"

KINDS = ("assign",) * 3 + ("decision",) * 3 + ("policy", "downgrade",
                                               "loop")

#: Every shape :func:`shapes` can name.
SHAPES = ("irreducible", "self-loop", "one-target", "exit-to-join",
          "never-halts")


def expressions():
    # + and - only: a box at most triples a value, so an uncapped run
    # of a few hundred boxes keeps its integers a few hundred bits wide.
    # Squarings, whose cost makes running a box past the fuel visible,
    # are in test_fault_differential.py::test_no_box_past_the_fuel_runs.
    atoms = st.one_of(st.sampled_from(INPUTS + WRITABLE).map(Var),
                      st.integers(-2, 3).map(Const))
    return st.recursive(
        atoms, lambda children: st.builds(BinOp, st.sampled_from("+-"),
                                          children, children),
        max_leaves=3)


def predicates():
    compare = st.builds(Compare, st.sampled_from(["==", "!=", "<", ">="]),
                        expressions(), expressions())
    # A constant test makes a loop that no input leaves.
    return st.one_of(compare, compare, compare,
                     st.booleans().map(BoolConst))


def loop_expressions():
    # A whole loop in one box (its expression can raise, so the engines
    # check fuel before it box by box); r % 3 != 0 turns at most twice.
    return expressions().map(lambda body: LoopExpr(
        Compare("!=", BinOp("%", Var("r"), Const(3)), Const(0)),
        {"r": BinOp("+", Var("r"), Const(1)), "s": body}, "s"))


@st.composite
def box_graphs(draw, max_boxes: int = 8) -> Flowchart:
    """A flowchart over inputs x1, x2 whose edges are drawn at random.

    A random spanning tree from the first box reaches every box and the
    halt box; every edge the tree leaves free goes to any box, itself
    and the halt box included (a decision's second edge to its first
    edge's target one time in four).
    """
    ids = [f"b{index}" for index in range(draw(st.integers(1, max_boxes)))]
    kinds = {node: draw(st.sampled_from(KINDS)) for node in ids}
    edges: Dict[str, List[Optional[str]]] = {
        node: [None] * (2 if kind == "decision" else 1)
        for node, kind in kinds.items()}
    # Boxes before the index-th hold index or more edges, and the tree
    # has used index - 1 of them, so one is always free.
    for index, child in enumerate(ids[1:] + [HALT], start=1):
        free = [(node, slot) for node in ids[:index]
                for slot, target in enumerate(edges[node]) if target is None]
        node, slot = draw(st.sampled_from(free))
        edges[node][slot] = child
    targets = st.sampled_from(ids + [HALT])
    for node in ids:
        for slot, target in enumerate(edges[node]):
            if target is not None:
                continue
            other = edges[node][1 - slot] if len(edges[node]) == 2 else None
            if other is not None and draw(st.integers(0, 3)) == 0:
                edges[node][slot] = other
            else:
                edges[node][slot] = draw(targets)
    boxes = {START: StartBox(ids[0]), HALT: HaltBox()}
    for node, kind in kinds.items():
        nxt = edges[node][0]
        if kind == "decision":
            boxes[node] = DecisionBox(draw(predicates()), *edges[node])
        elif kind == "assign":
            boxes[node] = AssignBox(draw(st.sampled_from(WRITABLE)),
                                    draw(expressions()), nxt)
        elif kind == "loop":
            boxes[node] = AssignBox(draw(st.sampled_from(WRITABLE)),
                                    draw(loop_expressions()), nxt)
        elif kind == "policy":
            boxes[node] = PolicyChangeBox(
                draw(st.sets(st.sampled_from([1, 2]))), nxt)
        else:
            boxes[node] = DowngradeBox(
                draw(st.sampled_from(WRITABLE)),
                draw(st.sets(st.sampled_from([1, 2]), min_size=1)), nxt)
    return Flowchart(boxes, INPUTS, "y", name="box-graph")


def shapes(flowchart: Flowchart) -> Set[str]:
    """The shapes of :data:`SHAPES` that ``flowchart`` has."""
    successors = {node: box.successors()
                  for node, box in flowchart.boxes.items()}
    predecessors = flowchart.predecessors()
    reach = {node: set(flowchart.reachable_from(node))
             for node in flowchart.boxes}
    found: Set[str] = set()
    for node, box in flowchart.boxes.items():
        if isinstance(box, DecisionBox):
            if node in successors[node]:
                found.add("self-loop")
            if box.true_next == box.false_next:
                found.add("one-target")
        loop = {other for other in reach[node] if node in reach[other]}
        if node not in successors[node] and len(loop) < 2:
            continue  # not on a cycle
        entries = {member for member in loop
                   if any(pred not in loop for pred in predecessors[member])}
        if len(entries) > 1:
            found.add("irreducible")
        if not any(isinstance(flowchart.boxes[other], HaltBox)
                   for other in reach[node]):
            found.add("never-halts")
        for member in loop:
            for target in successors[member]:
                outside = [pred for pred in predecessors[target]
                           if pred not in loop]
                if target not in loop and outside:
                    found.add("exit-to-join")
    return found
