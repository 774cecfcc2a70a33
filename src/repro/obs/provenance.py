"""Violation provenance: *why* a mechanism said Λ, as a data structure.

The surveillance mechanism (Section 3) rejects a point when the label
of the output — the set of input indices that may have influenced it —
escapes the policy's J.  Until now the harness recorded that verdict as
a counter tick; this module reconstructs the *influence path* that
justified it: which assignments propagated which input indices, which
decisions folded them into the program counter, and which halt (or
timed guard) finally tested them against J.

Two producers build the same :class:`Explanation` record:

- :func:`explain` replays one concrete point under the surveillance
  interpreter with an observer attached, then takes a backward
  dependence slice over the recorded label states.  Because the
  interpreter-level mechanism, the instrumented flowchart, and the
  compiled backend are extensionally equal (bench E04), this one
  derivation explains a rejection from *any* execution backend.
- :func:`explain_static` reads the flowlint influence fixpoint and
  its one verdict (:mod:`repro.analysis.influence`, the verdict
  ``repro lint`` reports) and lists the assignments and decisions
  whose static labels carry the excess indices, ending at each
  (halt, policy in force) check — the compile-time counterpart,
  defined even without a concrete point.

When the runtime's ``explain`` flag is on
(``obs.enable(..., explain=True)``), the surveillance mechanisms and
the lint manager emit each record as an ``explanation`` trace event, so
the chain is recoverable offline via ``repro trace explain``.  The CLI
front door is ``repro explain``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

# The flowchart/surveillance layers import repro.obs at module load
# (for the runtime hooks), so this module must import them lazily —
# inside the functions — to keep the package acyclic.  Annotations stay
# as strings for the same reason.
NodeId = str
Label = frozenset

#: Mirrors repro.flowchart.interpreter.DEFAULT_FUEL (lazy import keeps
#: the package acyclic; the interpreter's value wins if they diverge).
DEFAULT_FUEL = 100_000


class ChainStep:
    """One link of the influence chain, anchored to a flowchart box.

    ``kind`` is one of ``"input"`` (an input variable introduced its
    index), ``"assign"`` (a surveillance-rule-2 label join), ``"decision"``
    (a rule-3 fold into C̄), or ``"check"`` (the rule-4 halt test / the
    timed rule-3′ guard that issued the verdict).
    """

    __slots__ = ("step", "node", "kind", "detail", "target", "label",
                 "sources")

    def __init__(self, step: Optional[int], node: Optional[NodeId],
                 kind: str, detail: str, target: Optional[str],
                 label: Sequence[int],
                 sources: Sequence[str] = ()) -> None:
        self.step = step
        self.node = node
        self.kind = kind
        self.detail = detail
        self.target = target
        self.label = sorted(label)
        self.sources = sorted(sources)

    def to_dict(self) -> Dict:
        return {
            "step": self.step,
            "node": self.node,
            "kind": self.kind,
            "detail": self.detail,
            "target": self.target,
            "label": list(self.label),
            "sources": list(self.sources),
        }

    def render(self) -> str:
        where = f"step {self.step:>3}  " if self.step is not None else "static  "
        label = "{" + ",".join(str(i) for i in self.label) + "}"
        return f"{where}[{self.kind:<8}] {self.detail}  -> {label}"

    def __repr__(self) -> str:
        return f"ChainStep({self.kind}, node={self.node!r}, {self.detail!r})"


class Explanation:
    """The full provenance record of one mechanism verdict."""

    __slots__ = ("program", "policy", "point", "verdict", "site", "clause",
                 "disallowed", "chain", "fuel", "timed", "mode")

    def __init__(self, program: str, policy: str,
                 point: Optional[Sequence[int]], verdict: str,
                 site: Optional[NodeId], clause: str,
                 disallowed: Sequence[int], chain: List[ChainStep],
                 fuel: Optional[Dict] = None, timed: bool = False,
                 mode: str = "dynamic") -> None:
        self.program = program
        self.policy = policy
        self.point = list(point) if point is not None else None
        #: "accepted" | "violation" | "fuel_exhausted"
        self.verdict = verdict
        self.site = site
        self.clause = clause
        self.disallowed = sorted(disallowed)
        self.chain = list(chain)
        self.fuel = dict(fuel) if fuel else None
        self.timed = timed
        #: "dynamic" (a replayed point) or "static" (the lint fixpoint)
        self.mode = mode

    @property
    def violated(self) -> bool:
        return self.verdict == "violation"

    def to_dict(self) -> Dict:
        return {
            "program": self.program,
            "policy": self.policy,
            "point": self.point,
            "verdict": self.verdict,
            "site": self.site,
            "clause": self.clause,
            "disallowed": list(self.disallowed),
            "chain": [step.to_dict() for step in self.chain],
            "fuel": self.fuel,
            "timed": self.timed,
            "mode": self.mode,
        }

    def event_fields(self) -> Dict:
        """The payload of the ``explanation`` trace event."""
        fields = {
            "program": self.program,
            "policy": self.policy,
            "point": self.point,
            "site": self.site,
            "chain": [step.to_dict() for step in self.chain],
            "verdict": self.verdict,
            "clause": self.clause,
            "disallowed": list(self.disallowed),
            "mode": self.mode,
        }
        if self.fuel:
            fields["fuel"] = self.fuel
        return fields

    def render(self) -> str:
        point = (f" at point {tuple(self.point)}"
                 if self.point is not None else "")
        head = (f"explanation [{self.mode}]: {self.program} x {self.policy}"
                f"{point} -- {self.verdict.upper()}")
        if self.site is not None:
            head += f" at {self.site}"
        lines = [head, f"  clause: {self.clause}"]
        if self.disallowed:
            lines.append("  disallowed indices: "
                         + ", ".join(str(i) for i in self.disallowed))
        if self.fuel:
            lines.append(f"  fuel: used {self.fuel.get('used')} of "
                         f"{self.fuel.get('budget')}")
        if self.chain:
            lines.append("  influence chain:")
            for step in self.chain:
                lines.append(f"    {step.render()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Explanation({self.program} x {self.policy}, "
                f"{self.verdict}, {len(self.chain)} step(s))")


def _label_text(label) -> str:
    return "{" + ",".join(str(i) for i in sorted(label)) + "}"


# ---------------------------------------------------------------------------
# Dynamic provenance: replay one point, slice backwards
# ---------------------------------------------------------------------------

def explain(flowchart: "Flowchart", policy: "AllowPolicy",
            point: Sequence[int], timed: bool = False,
            forgetting: bool = True,
            fuel: int = DEFAULT_FUEL,
            value_cap: Optional[int] = None) -> Explanation:
    """Replay ``point`` under surveillance and derive its provenance.

    Records every visited box's entry label state via the ``surveil``
    observer hook, then walks the record backwards from the verdict
    site, keeping exactly the assignments/decisions through which the
    offending indices flowed (a dependence slice over labels — a step
    whose label lacks an offending index cannot lie on its propagation
    path, since labels are monotone joins of their sources).

    ``fuel`` and ``value_cap`` must be the replayed mechanism's own
    budgets (``value_cap=None`` defers to ``REPRO_VALUE_CAP``), or the
    replay can fault where the mechanism's run did not.
    """
    from ..core.errors import FuelExhaustedError
    from ..flowchart.boxes import AssignBox, DecisionBox
    from ..surveillance.dynamic import surveil
    from ..surveillance.labels import join

    allowed = policy.allowed
    records: List[Tuple[NodeId, Dict[str, Label], Label]] = []

    def observer(node: NodeId, labels: Dict[str, Label],
                 pc_label: Label) -> None:
        records.append((node, dict(labels), pc_label))

    try:
        # record=False: this is a replay of a point the mechanism already
        # recorded — counting it again would double every metric.
        run = surveil(flowchart, point, allowed, timed=timed,
                      forgetting=forgetting, fuel=fuel, observer=observer,
                      record=False, value_cap=value_cap)
    except FuelExhaustedError as error:
        site = records[-1][0] if records else None
        return Explanation(
            flowchart.name, policy.name, point, "fuel_exhausted", site,
            f"fuel budget {error.fuel} exhausted before any verdict",
            disallowed=(), chain=[],
            fuel={"budget": error.fuel, "used": error.fuel,
                  "exhausted": True},
            timed=timed)

    site, site_labels, site_pc = records[-1]
    site_box = flowchart.boxes[site]
    output = flowchart.output_variable

    # Flows are judged by the policy in force when they complete, not
    # the initial one — after a policy_change the clause must show the
    # J that actually ran the check (and its epoch), or an epoch
    # violation reads as "⊆ J" yet VIOLATION.
    in_force = run.final_allowed
    j_text = f"J = {_label_text(in_force)}"
    if in_force != allowed:
        j_text += f" (in force @e{run.epoch})"

    # The offending label and the clause that tested it.
    if isinstance(site_box, DecisionBox) and run.halted_early:
        offending = join(*(site_labels[name]
                           for name in site_box.predicate.variables()))
        interesting: Set[str] = set(site_box.predicate.variables())
        pc_interesting = False
        clause = (f"timed guard: test label {_label_text(offending)} "
                  f"{'⊆' if offending <= in_force else '⊄'} "
                  f"{j_text}")
    else:
        offending = join(site_labels[output], site_pc)
        interesting = {output}
        pc_interesting = True
        clause = (f"halt check: ȳ ∪ C̄ = {_label_text(offending)} "
                  f"{'⊆' if offending <= in_force else '⊄'} "
                  f"{j_text}")

    verdict = "violation" if run.violated else "accepted"
    disallowed = offending - in_force
    # Slice toward what went wrong; for accepted points, toward
    # everything the user legitimately learned.
    focus = disallowed if run.violated else offending

    chain: List[ChainStep] = []
    chain.append(ChainStep(
        len(records), site, "check",
        ("timed test guard" if isinstance(site_box, DecisionBox)
         else f"halt: ȳ ∪ C̄ vs {j_text}"),
        None, offending))

    # Backward pass over records[0..-2]: the box at record i produced
    # the state at record i+1.
    for index in range(len(records) - 2, -1, -1):
        node, labels, pc_label = records[index]
        box = flowchart.boxes[node]
        after_labels = records[index + 1][1]
        if isinstance(box, AssignBox) and box.target in interesting:
            new_label = after_labels.get(box.target, frozenset())
            if new_label & focus or not focus:
                sources = sorted(box.expression.variables())
                chain.append(ChainStep(
                    index + 1, node, "assign",
                    f"{box.target} := {box.expression!r} "
                    f"(x̄ from {', '.join(sources) or 'constants'}"
                    f"{', C̄' if pc_label else ''})",
                    box.target, new_label, sources))
            if forgetting:
                interesting.discard(box.target)
            interesting.update(box.expression.variables())
            pc_interesting = True
        elif isinstance(box, DecisionBox) and pc_interesting:
            test_label = join(*(labels[name]
                                for name in box.predicate.variables()))
            if test_label & focus or not focus:
                sources = sorted(box.predicate.variables())
                chain.append(ChainStep(
                    index + 1, node, "decision",
                    f"test {box.predicate!r} folds "
                    f"{_label_text(test_label)} into C̄",
                    None, test_label, sources))
                interesting.update(box.predicate.variables())

    # Input introductions: which x_i seeded the chain.  Appended in
    # reverse so the final (reversed) chain lists them ascending.
    inputs_in = list(enumerate(flowchart.input_variables, 1))
    for position, name in reversed(inputs_in):
        if name in interesting and (position in focus or not focus):
            chain.append(ChainStep(
                0, None, "input",
                f"input {name} (index {position}) enters with "
                f"{_label_text({position})}",
                name, (position,)))

    chain.reverse()
    return Explanation(
        flowchart.name, policy.name, point, verdict, site, clause,
        disallowed, chain,
        fuel={"budget": fuel, "used": run.steps, "exhausted": False},
        timed=timed)


# ---------------------------------------------------------------------------
# Static provenance: read the flowlint influence fixpoint
# ---------------------------------------------------------------------------

def explain_static(flowchart: "Flowchart",
                   policy: "AllowPolicy") -> Explanation:
    """Provenance from the static influence fixpoint — no point needed.

    Lists, in reachability order, every assignment whose static label
    carries an excess index and every decision whose test label does,
    ending at the (halt, policy in force) checks whose observable label
    escapes that policy.  This is the chain behind flowlint's verdict:
    the same analysis and the same verdict, so it accepts exactly the
    pairs ``repro lint`` certifies (FLOW002).
    """
    from ..analysis.influence import influence_analysis
    from ..flowchart.boxes import AssignBox, DecisionBox

    analysis = influence_analysis(flowchart, policy.allowed)
    verdict = analysis.verdict(policy)
    allowed = policy.allowed
    excess = verdict.excess
    focus = excess if excess else verdict.output_label

    def check_text(label, in_force) -> str:
        # Name the policy a check ran against when it is not J: after
        # a policy_change the halt answers to the policy in force there.
        text = (f"{_label_text(label)} {'⊆' if label <= in_force else '⊄'}"
                f" J = {_label_text(in_force)}")
        return text if in_force == allowed else text + " (in force)"

    def j_first(in_force):
        return in_force != allowed, sorted(in_force)

    chain: List[ChainStep] = []
    for position, name in enumerate(flowchart.input_variables, 1):
        if position in focus or not focus:
            chain.append(ChainStep(
                None, None, "input",
                f"input {name} (index {position}) enters with "
                f"{_label_text({position})}",
                name, (position,)))

    order = flowchart.reachable_from(flowchart.start_id)
    for node in order:
        box = flowchart.boxes[node]
        if isinstance(box, AssignBox):
            # Out-label of the target after this box (entry label of its
            # successor's state is the fixpoint's merged view; use the
            # transfer directly for a per-box attribution).
            entry = analysis.var_influence.get(node, {})
            incoming = frozenset()
            for source in box.expression.variables():
                incoming |= entry.get(source, frozenset())
            incoming |= analysis.pc_influence.get(node, frozenset())
            out_label = entry.get(box.target, frozenset()) | incoming
            if out_label & focus:
                sources = sorted(box.expression.variables())
                chain.append(ChainStep(
                    None, node, "assign",
                    f"{box.target} := {box.expression!r} may carry "
                    f"{_label_text(out_label)}",
                    box.target, out_label, sources))
        elif isinstance(box, DecisionBox):
            test_label = analysis.test_label(node)
            if test_label & focus:
                chain.append(ChainStep(
                    None, node, "decision",
                    f"test {box.predicate!r} folds "
                    f"{_label_text(test_label)} into C̄",
                    None, test_label,
                    sorted(box.predicate.variables())))

    # One check per (halt, policy in force) and ȳ per policy in force
    # for the clause: the failing ones on a rejection, all on a
    # certificate.
    site: Optional[NodeId] = None
    observed: Dict[frozenset, frozenset] = {}
    for halt_id, row in verdict.observations.items():
        for in_force in sorted(row, key=j_first):
            label = row[in_force]
            observed[in_force] = observed.get(in_force, frozenset()) | label
            escaped = label - in_force
            if escaped or not excess:
                chain.append(ChainStep(
                    None, halt_id, "check",
                    f"halt: observable label {check_text(label, in_force)}",
                    None, label))
            if escaped and site is None:
                site = halt_id
    if site is None and verdict.halt_labels:
        site = next(iter(sorted(verdict.halt_labels)))

    clause = "static verdict: " + "; ".join(
        f"ȳ = {check_text(label, in_force)}"
        for in_force, label in sorted(
            (observed or {allowed: frozenset()}).items(),
            key=lambda item: j_first(item[0]))
        if not excess or not label <= in_force)
    return Explanation(
        flowchart.name, policy.name, None,
        "accepted" if verdict.certified else "violation",
        site, clause, excess, chain, mode="static")
