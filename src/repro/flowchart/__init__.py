"""The flowchart programming language of Section 3.

Substrate for the surveillance mechanism: an expression language
(:mod:`~repro.flowchart.expr`), the four box kinds
(:mod:`~repro.flowchart.boxes`), wellformed flowchart graphs
(:mod:`~repro.flowchart.program`), a step-counted interpreter
(:mod:`~repro.flowchart.interpreter`), a compiled execution engine
(:mod:`~repro.flowchart.fastpath`), a whole-grid batch mode
(:mod:`~repro.flowchart.batchpath`), a structured front-end
(:mod:`~repro.flowchart.structured`), CFG analyses
(:mod:`~repro.flowchart.analysis`), the Section 4/5 transforms
(:mod:`~repro.flowchart.transforms`), and the paper's figure programs
(:mod:`~repro.flowchart.library`).
"""

from .expr import (And, BinOp, BoolConst, Compare, Const, Expr, Ite,
                   LoopExpr, Neg, Not, Or, Pred, Var, const,
                   structurally_equal, substitute, var, variables_of)
from .boxes import (AssignBox, Box, DecisionBox, DowngradeBox, HaltBox,
                    PolicyChangeBox, RecvBox, SendBox, StartBox)
from .program import Flowchart
from .interpreter import (DEFAULT_FUEL, ExecutionResult, as_program,
                          execute, initial_environment, running_time)
from .fastpath import (BACKENDS, CompiledFlowchart, compile_flowchart,
                       execute_compiled, resolve_backend, run_flowchart)
from .batchpath import execute_batch
from .builder import FlowchartBuilder, Label
from .structured import (Assign, Body, Downgrade, If, PolicyChange, Recv,
                         Send, Skip, Stmt, StructuredProgram, While,
                         compile_structured, seq)
from .analysis import (IteRegion, WhileRegion, dominators,
                       find_ite_regions, find_while_regions,
                       immediate_postdominator, is_straight_line,
                       postdominators)
from .transforms import (duplicate_assignment_transform,
                         functionally_equivalent, ite_transform,
                         ite_transform_all, symbolic_effect,
                         while_transform, while_transform_all)
from .dot import to_dot
from . import library

__all__ = [
    # expressions
    "Expr", "Pred", "Const", "Var", "BinOp", "Neg", "Ite", "LoopExpr",
    "Compare", "BoolConst", "Not", "And", "Or", "var", "const",
    "variables_of", "substitute", "structurally_equal",
    # boxes / graphs
    "Box", "StartBox", "DecisionBox", "AssignBox", "HaltBox",
    "PolicyChangeBox", "DowngradeBox", "SendBox", "RecvBox", "Flowchart",
    # execution
    "execute", "ExecutionResult", "as_program", "running_time",
    "initial_environment", "DEFAULT_FUEL",
    # compiled backend
    "BACKENDS", "CompiledFlowchart", "compile_flowchart",
    "execute_compiled", "resolve_backend", "run_flowchart",
    # batch tier
    "execute_batch",
    # building
    "FlowchartBuilder", "Label", "StructuredProgram", "Stmt", "Skip",
    "Assign", "If", "While", "PolicyChange", "Downgrade", "Send", "Recv",
    "Body", "compile_structured", "seq",
    # analysis
    "dominators", "postdominators", "immediate_postdominator",
    "IteRegion", "WhileRegion", "find_ite_regions", "find_while_regions",
    "is_straight_line",
    # transforms
    "symbolic_effect", "ite_transform", "ite_transform_all",
    "while_transform", "while_transform_all",
    "duplicate_assignment_transform", "functionally_equivalent",
    # rendering
    "to_dot",
    # figure programs
    "library",
]
