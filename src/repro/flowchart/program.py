"""The flowchart program object and its wellformedness rules (Section 3).

A :class:`Flowchart` is a finite connected directed graph of boxes with
exactly one start box.  Variables are partitioned by spelling, matching
the paper's convention:

- input variables ``x1, ..., xk`` (``input_variables``),
- program variables ``r1, ..., rn`` (anything else that is assigned),
- the single output variable ``y`` (``output_variable``).

The semantics (paper, Section 3): the domain of all variables is the
integers; execution begins at the start box with program and output
variables 0 and each ``x_i`` bound to the i-th input; decision boxes
branch on their predicate; halt boxes end execution with output ``y``.
Execution itself lives in :mod:`repro.flowchart.interpreter`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.errors import FlowchartError
from .boxes import (AssignBox, Box, DecisionBox, DowngradeBox, HaltBox,
                    NodeId, PolicyChangeBox, RecvBox, SendBox, StartBox)


class Flowchart:
    """A wellformed Section 3 flowchart.

    Parameters
    ----------
    boxes:
        Mapping from node id to :class:`Box`.  Exactly one
        :class:`StartBox`; every successor id must exist; every box must
        be reachable from the start (the paper requires a *connected*
        graph).
    input_variables:
        Ordered names of ``x1..xk`` — the order defines input positions
        (and hence the 1-based indices policies refer to).
    output_variable:
        The name of ``y``.
    """

    def __init__(self, boxes: Dict[NodeId, Box],
                 input_variables: Iterable[str],
                 output_variable: str = "y",
                 name: str = "F") -> None:
        self.boxes: Dict[NodeId, Box] = dict(boxes)
        self.input_variables: Tuple[str, ...] = tuple(input_variables)
        self.output_variable = output_variable
        self.name = name
        self.start_id = self._validate()

    # -- wellformedness -------------------------------------------------

    def _validate(self) -> NodeId:
        if not self.boxes:
            raise FlowchartError(f"flowchart {self.name!r} has no boxes")
        if len(set(self.input_variables)) != len(self.input_variables):
            raise FlowchartError("duplicate input variable names")
        if self.output_variable in self.input_variables:
            raise FlowchartError(
                f"output variable {self.output_variable!r} collides with an input"
            )

        start_ids = [node_id for node_id, box in self.boxes.items()
                     if isinstance(box, StartBox)]
        if len(start_ids) != 1:
            raise FlowchartError(
                f"flowchart {self.name!r} must have exactly one start box, "
                f"found {len(start_ids)}"
            )
        start_id = start_ids[0]

        for node_id, box in self.boxes.items():
            for successor in box.successors():
                if successor not in self.boxes:
                    raise FlowchartError(
                        f"box {node_id!r} points to missing box {successor!r}"
                    )
            if isinstance(box, AssignBox) and box.target in self.input_variables:
                # The paper's programs never reassign inputs; allowing it
                # would confuse the surveillance label initialisation.
                raise FlowchartError(
                    f"box {node_id!r} assigns to input variable {box.target!r}"
                )
            if isinstance(box, PolicyChangeBox):
                bad = [i for i in box.allowed if i > len(self.input_variables)]
                if bad:
                    raise FlowchartError(
                        f"box {node_id!r} admits input indices {bad} beyond "
                        f"arity {len(self.input_variables)}"
                    )
            if isinstance(box, DowngradeBox):
                bad = [i for i in box.indices if i > len(self.input_variables)]
                if bad:
                    raise FlowchartError(
                        f"box {node_id!r} downgrades input indices {bad} "
                        f"beyond arity {len(self.input_variables)}"
                    )
            if isinstance(box, RecvBox) and box.variable in self.input_variables:
                # Same rule as assignment: inputs are never re-bound, and
                # a receive is a write in every engine.
                raise FlowchartError(
                    f"box {node_id!r} receives into input variable "
                    f"{box.variable!r}"
                )

        unreachable = set(self.boxes) - set(self.reachable_from(start_id))
        if unreachable:
            raise FlowchartError(
                f"flowchart {self.name!r} is not connected; unreachable boxes: "
                f"{sorted(map(str, unreachable))}"
            )
        if not any(isinstance(box, HaltBox) for box in self.boxes.values()):
            raise FlowchartError(f"flowchart {self.name!r} has no halt box")
        # Channel presence is consulted on every execution entry (the
        # compiled and batch tiers defer channel programs to the
        # interpreter), so cache it once at validation time.
        self._has_channels = any(isinstance(box, (SendBox, RecvBox))
                                 for box in self.boxes.values())
        return start_id

    # -- run-invariant structure ----------------------------------------
    #
    # Read by every run and fixed at construction (nothing mutates
    # ``boxes``), so computed once per flowchart -- on first use rather
    # than at validation, because ``repro serve`` validates a fresh
    # flowchart per request and discards most of them after interning.

    @cached_property
    def _policy_change_ids(self) -> Tuple[NodeId, ...]:
        return tuple(node_id for node_id, box in self.boxes.items()
                     if isinstance(box, PolicyChangeBox))

    @cached_property
    def _box_reads(self) -> Dict[NodeId, Tuple[str, ...]]:
        return {node_id: tuple(box.read_variables())
                for node_id, box in self.boxes.items()}

    @cached_property
    def _env_template(self) -> Dict[str, int]:
        # Program variables, variables read but never assigned (the
        # start box zeroes them like any other), the output, then the
        # inputs -- all 0 until a run binds the inputs.
        template: Dict[str, int] = dict.fromkeys(self.program_variables(), 0)
        for name in self.read_variables():
            if name not in self.input_variables:
                template.setdefault(name, 0)
        template[self.output_variable] = 0
        template.update(dict.fromkeys(self.input_variables, 0))
        return template

    # -- structural queries ---------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.input_variables)

    def reachable_from(self, node_id: NodeId) -> List[NodeId]:
        """Nodes reachable from ``node_id`` (depth-first, deterministic)."""
        seen: Dict[NodeId, None] = {}
        stack = [node_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen[current] = None
            stack.extend(reversed(self.boxes[current].successors()))
        return list(seen)

    def halt_ids(self) -> Tuple[NodeId, ...]:
        return tuple(node_id for node_id, box in self.boxes.items()
                     if isinstance(box, HaltBox))

    def decision_ids(self) -> Tuple[NodeId, ...]:
        return tuple(node_id for node_id, box in self.boxes.items()
                     if isinstance(box, DecisionBox))

    def assignment_ids(self) -> Tuple[NodeId, ...]:
        return tuple(node_id for node_id, box in self.boxes.items()
                     if isinstance(box, AssignBox))

    def policy_change_ids(self) -> Tuple[NodeId, ...]:
        """Policy-change boxes in box order (cached)."""
        return self._policy_change_ids

    def downgrade_ids(self) -> Tuple[NodeId, ...]:
        return tuple(node_id for node_id, box in self.boxes.items()
                     if isinstance(box, DowngradeBox))

    def send_ids(self) -> Tuple[NodeId, ...]:
        return tuple(node_id for node_id, box in self.boxes.items()
                     if isinstance(box, SendBox))

    def recv_ids(self) -> Tuple[NodeId, ...]:
        return tuple(node_id for node_id, box in self.boxes.items()
                     if isinstance(box, RecvBox))

    def channels(self) -> Tuple[str, ...]:
        """Sorted names of every channel a send or recv box mentions."""
        names = set()
        for box in self.boxes.values():
            if isinstance(box, (SendBox, RecvBox)):
                names.add(box.channel)
        return tuple(sorted(names))

    def has_channels(self) -> bool:
        """True when the flowchart contains send or recv boxes (cached)."""
        return self._has_channels

    def has_dynamic_policy(self) -> bool:
        """True when the flowchart changes policies or downgrades labels."""
        return any(isinstance(box, (PolicyChangeBox, DowngradeBox))
                   for box in self.boxes.values())

    def program_variables(self) -> Tuple[str, ...]:
        """Assigned variables that are neither inputs nor the output."""
        names = set()
        for box in self.boxes.values():
            target = box.written_variable()
            if target and target != self.output_variable:
                names.add(target)
        return tuple(sorted(names))

    def all_variables(self) -> Tuple[str, ...]:
        """Inputs, program variables, and the output, in that order."""
        return self.input_variables + self.program_variables() + (self.output_variable,)

    def read_variables(self) -> FrozenSet[str]:
        result: set = set()
        for box in self.boxes.values():
            result |= box.read_variables()
        return frozenset(result)

    def box_reads(self) -> Dict[NodeId, Tuple[str, ...]]:
        """Each box's read variables (cached; callers must not mutate)."""
        return self._box_reads

    def start_environment(self) -> Dict[str, int]:
        """A fresh copy of the start-box environment, inputs still 0."""
        return dict(self._env_template)

    def input_index(self, variable: str) -> Optional[int]:
        """1-based input position of a variable, or None if not an input."""
        try:
            return self.input_variables.index(variable) + 1
        except ValueError:
            return None

    def predecessors(self) -> Dict[NodeId, List[NodeId]]:
        """Reverse adjacency (used by the CFG analyses)."""
        reverse: Dict[NodeId, List[NodeId]] = {node_id: [] for node_id in self.boxes}
        for node_id, box in self.boxes.items():
            for successor in box.successors():
                reverse[successor].append(node_id)
        return reverse

    def __repr__(self) -> str:
        return (f"Flowchart({self.name}: {len(self.boxes)} boxes, "
                f"inputs={list(self.input_variables)}, "
                f"output={self.output_variable!r})")

    def pretty(self) -> str:
        """A readable multi-line rendering (for examples and debugging)."""
        lines = [f"flowchart {self.name} "
                 f"(inputs: {', '.join(self.input_variables)}; "
                 f"output: {self.output_variable})"]
        for node_id in self.reachable_from(self.start_id):
            lines.append(f"  [{node_id}] {self.boxes[node_id]!r}")
        return "\n".join(lines)
