"""flowlint: static analysis for flowchart programs.

A pass-manager-driven analyzer over :class:`repro.flowchart.Flowchart`
programs.  The centrepiece is the *influence fixpoint* — one static
fixpoint over the same powerset-of-inputs labels Section 3's
surveillance mechanism tracks dynamically, its states kept per (box,
policy in force) — whose one verdict certifies or rejects a program
against an ``allow(J)`` policy without executing it, judging each halt
by the policy in force there.  The influence and epochs passes report
that verdict; around them sit a timing-channel pass (Theorem 3's
observable-time caveat, detected statically), the unwinding checker
and hygiene passes, plus a precision harness quantifying what the
static verdict gives up against dynamic surveillance and the maximal
mechanism.

Surface: ``repro lint`` and ``repro explain --static`` on the CLI;
:func:`lint_flowchart` / :func:`influence_analysis` /
:func:`precision_harness` from code.
"""

from .diagnostics import Diagnostic, LintReport, Severity
from .epochs import DynamicPolicyPass
from .influence import (EMPTY, InfluenceAnalysis, Label, StaticVerdict,
                        influence_analysis, static_verdict)
from .manager import (AnalysisContext, AnalysisPass, PassManager,
                      lint_flowchart)
from .passes import (DeadAssignmentPass, DivisionByZeroPass, InfluencePass,
                     UninitializedReadPass, UnreachableCodePass,
                     default_passes)
from .precision import (PairPrecision, PrecisionReport, pair_precision,
                        precision_harness)
from .timing import TimingChannelPass, arm_steps
from .unwinding import (UnwindingPass, UnwindingResult, UnwindingViolation,
                        unwinding_check)

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "DeadAssignmentPass",
    "Diagnostic",
    "DivisionByZeroPass",
    "DynamicPolicyPass",
    "EMPTY",
    "InfluenceAnalysis",
    "InfluencePass",
    "Label",
    "LintReport",
    "PairPrecision",
    "PassManager",
    "PrecisionReport",
    "Severity",
    "StaticVerdict",
    "TimingChannelPass",
    "UninitializedReadPass",
    "UnreachableCodePass",
    "UnwindingPass",
    "UnwindingResult",
    "UnwindingViolation",
    "arm_steps",
    "default_passes",
    "influence_analysis",
    "lint_flowchart",
    "pair_precision",
    "precision_harness",
    "static_verdict",
]
