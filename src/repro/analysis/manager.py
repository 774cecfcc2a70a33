"""The flowlint pass manager: registration, shared analyses, execution.

A pass is a small object with a ``name`` and a ``run(context)`` method
returning :class:`~repro.analysis.diagnostics.Diagnostic` lists.  The
:class:`AnalysisContext` memoises the graph analyses several passes
share (dominators, postdominators, control dependence, the influence
fixpoint) so a full lint run computes each exactly once, and the
:class:`PassManager` runs every registered pass, times it, and folds
the findings into one :class:`~repro.analysis.diagnostics.LintReport`.

Passes that need a policy (the influence verdict) declare
``requires_policy = True`` and are skipped — not failed — when the
caller lints without one.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..core.policy import AllowPolicy
from ..flowchart.analysis import dominators, postdominators
from ..flowchart.boxes import NodeId
from ..flowchart.program import Flowchart
from ..obs import runtime as _obs
from ..staticflow.cfgcertify import control_dependencies
from .diagnostics import Diagnostic, LintReport
from .influence import InfluenceAnalysis, influence_analysis


class AnalysisContext:
    """One flowchart + optional policy + memoised shared analyses."""

    def __init__(self, flowchart: Flowchart,
                 policy: Optional[AllowPolicy] = None) -> None:
        self.flowchart = flowchart
        self.policy = policy
        self._dominators: Optional[Dict[NodeId, FrozenSet[NodeId]]] = None
        self._postdominators: Optional[Dict[NodeId, FrozenSet[NodeId]]] = None
        self._control_dependencies = None
        self._influence: Optional[InfluenceAnalysis] = None
        self._predecessors = None
        self._unwinding = None

    def dominators(self) -> Dict[NodeId, FrozenSet[NodeId]]:
        if self._dominators is None:
            self._dominators = dominators(self.flowchart)
        return self._dominators

    def postdominators(self) -> Dict[NodeId, FrozenSet[NodeId]]:
        if self._postdominators is None:
            self._postdominators = postdominators(self.flowchart)
        return self._postdominators

    def control_dependencies(self):
        if self._control_dependencies is None:
            self._control_dependencies = control_dependencies(self.flowchart)
        return self._control_dependencies

    def influence(self) -> InfluenceAnalysis:
        """The influence fixpoint, epoch 0 keyed by the policy if any."""
        if self._influence is None:
            self._influence = influence_analysis(
                self.flowchart,
                None if self.policy is None else self.policy.allowed)
        return self._influence

    def predecessors(self):
        if self._predecessors is None:
            self._predecessors = self.flowchart.predecessors()
        return self._predecessors

    def unwinding(self):
        """Exact-state unwinding check (requires a policy)."""
        if self._unwinding is None:
            if self.policy is None:
                raise ValueError("the unwinding check requires a policy")
            from .unwinding import unwinding_check
            self._unwinding = unwinding_check(self.flowchart, self.policy)
        return self._unwinding


class AnalysisPass:
    """Base class for flowlint passes."""

    #: Unique pass name (shows up in diagnostics and timings).
    name: str = "pass"
    #: Skip this pass when the caller provides no policy.
    requires_policy: bool = False

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class PassManager:
    """Runs registered passes over a flowchart, aggregating diagnostics."""

    def __init__(self, passes: Optional[Sequence[AnalysisPass]] = None) -> None:
        self.passes: List[AnalysisPass] = list(passes or [])

    @classmethod
    def with_default_passes(cls) -> "PassManager":
        from .passes import default_passes

        return cls(default_passes())

    def register(self, analysis_pass: AnalysisPass) -> "PassManager":
        if any(existing.name == analysis_pass.name
               for existing in self.passes):
            raise ValueError(
                f"duplicate pass name {analysis_pass.name!r}")
        self.passes.append(analysis_pass)
        return self

    def run(self, flowchart: Flowchart,
            policy: Optional[AllowPolicy] = None) -> LintReport:
        context = AnalysisContext(flowchart, policy)
        diagnostics: List[Diagnostic] = []
        pass_seconds: Dict[str, float] = {}
        pass_stats: Dict[str, Dict[str, object]] = {}
        lint_span = _obs.span_begin("lint", program=flowchart.name,
                                    policy=policy.name if policy else None)
        for analysis_pass in self.passes:
            if analysis_pass.requires_policy and policy is None:
                continue
            pass_span = _obs.span_begin("lint_pass", push=True,
                                        program=flowchart.name,
                                        **{"pass": analysis_pass.name})
            started = time.perf_counter()
            found = analysis_pass.run(context)
            elapsed = time.perf_counter() - started
            diagnostics.extend(found)
            pass_seconds[analysis_pass.name] = elapsed
            stats: Dict[str, object] = {"seconds": elapsed,
                                        "diagnostics": len(found)}
            # Fixpoint passes expose their convergence cost after run();
            # fold it into the per-pass stats the JSON report carries.
            iterations = getattr(analysis_pass, "iterations", None)
            if iterations is not None:
                stats["iterations"] = iterations
            states = getattr(analysis_pass, "states_explored", None)
            if states is not None:
                stats["states_explored"] = states
            pass_stats[analysis_pass.name] = stats
            if _obs.active:
                _obs.inc("lint.passes")
                _obs.inc("lint.diagnostics", len(found))
                _obs.observe("lint.pass_seconds", elapsed)
                _obs.emit("lint_pass", program=flowchart.name,
                          **{"pass": analysis_pass.name},
                          seconds=round(elapsed, 6),
                          diagnostics=len(found))
            if (_obs.explain_active and policy is not None
                    and any(d.code == "FLOW001" for d in found)):
                # A FLOW001 rejection is justified by the influence
                # fixpoint; attach the static chain behind it.
                from ..obs.provenance import explain_static
                explanation = explain_static(flowchart, policy)
                _obs.emit("explanation", **explanation.event_fields())
            _obs.span_finish(pass_span, diagnostics=len(found))
        if _obs.active:
            _obs.inc("lint.runs")
        _obs.span_finish(lint_span, diagnostics=len(diagnostics))
        return LintReport(flowchart.name, diagnostics, pass_seconds,
                          policy_name=policy.name if policy else None,
                          pass_stats=pass_stats)


def lint_flowchart(flowchart: Flowchart,
                   policy: Optional[AllowPolicy] = None,
                   manager: Optional[PassManager] = None) -> LintReport:
    """Lint one flowchart with the default (or a custom) pass set."""
    if manager is None:
        manager = PassManager.with_default_passes()
    return manager.run(flowchart, policy)
