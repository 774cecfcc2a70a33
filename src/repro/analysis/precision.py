"""The static-vs-dynamic precision harness.

The reproduction question flowlint exists to answer: *how much
completeness does the static check give up* relative to Section 3's
dynamic surveillance and Theorem 2's maximal mechanism?  For every
(figure-library program, allow policy) pair over a finite grid, this
harness computes the full enforcement ladder:

- ``static`` — the flowlint influence verdict (all-or-nothing: a
  certified pair runs the bare program and accepts every input; a
  rejected pair accepts none),
- ``cfg`` — the forgetting CFG certifier of
  :mod:`repro.staticflow.cfgcertify` (still static, but region-scoped
  implicit flows — sharper than the monotone influence pass, and on
  reconvergent programs sharper even than dynamic surveillance, the
  page-49 phenomenon),
- ``dynamic`` — per-input acceptance of the surveillance mechanism,
- ``highwater`` — per-input acceptance of the no-forgetting variant,
- ``maximal`` — per-input acceptance of the (finite-domain) maximal
  mechanism: accept exactly the policy classes Q is constant on,
- ``exhaustive_sound`` — whether the *bare program* is already sound
  (equivalently: the maximal mechanism accepts everything).

Soundness obligation (the acceptance criterion CI enforces): a static
verdict must never certify a pair the exhaustive semantic check
rejects — :meth:`PrecisionReport.unsound_pairs` must be empty.  The
completeness gap is everything else: pairs where the ladder's lower
rungs reject inputs the upper rungs accept.

Pair *families*: classic pairs (no dynamic-policy boxes) keep the
ladder above verbatim.  ``policy-change`` and ``downgrader`` pairs share
the static rung (the influence verdict judges each halt by the policy
in force there) and take the *dynamic surveillance monitor* as their
semantic soundness reference — the fixed-policy NI baseline
(``exhaustive_sound``) is still reported but no longer arbitrates
``unsound_static``, because an
admitted intransitive downgrade *intentionally* violates NI while being
exactly the behaviour the dynamic policy licenses.  Downgrader pairs
additionally record the unwinding checker's explored state-space size
and iteration count.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.domains import ProductDomain
from ..flowchart.fastpath import run_flowchart
from ..flowchart.interpreter import DEFAULT_FUEL
from ..flowchart.program import Flowchart
from ..staticflow.cfgcertify import certify_flowchart
from ..surveillance.dynamic import surveil
from ..verify.enumerate import all_allow_policies, default_grid
from .influence import influence_analysis


class PairPrecision:
    """The enforcement ladder for one (program, policy, grid) triple."""

    __slots__ = ("program_name", "policy_name", "domain_size",
                 "static_certified", "cfg_certified", "dynamic_accepts",
                 "highwater_accepts", "maximal_accepts", "exhaustive_sound",
                 "family", "unwinding_certified", "unwinding_states",
                 "unwinding_iterations")

    def __init__(self, program_name: str, policy_name: str,
                 domain_size: int, static_certified: bool,
                 cfg_certified: bool, dynamic_accepts: int,
                 highwater_accepts: int, maximal_accepts: int,
                 exhaustive_sound: bool, family: str = "classic",
                 unwinding_certified: Optional[bool] = None,
                 unwinding_states: Optional[int] = None,
                 unwinding_iterations: Optional[int] = None) -> None:
        self.program_name = program_name
        self.policy_name = policy_name
        self.domain_size = domain_size
        self.static_certified = static_certified
        self.cfg_certified = cfg_certified
        self.dynamic_accepts = dynamic_accepts
        self.highwater_accepts = highwater_accepts
        self.maximal_accepts = maximal_accepts
        self.exhaustive_sound = exhaustive_sound
        self.family = family
        self.unwinding_certified = unwinding_certified
        self.unwinding_states = unwinding_states
        self.unwinding_iterations = unwinding_iterations

    @property
    def static_accepts(self) -> int:
        """All-or-nothing: certified pairs run the bare program."""
        return self.domain_size if self.static_certified else 0

    @property
    def cfg_accepts(self) -> int:
        return self.domain_size if self.cfg_certified else 0

    @property
    def unsound_static(self) -> bool:
        """True would be a soundness bug: static accepted, semantics reject.

        Family-dependent semantic reference: classic pairs use the NI
        baseline (``exhaustive_sound``); dynamic-policy pairs use the
        surveillance monitor itself, since admitted declassification
        violates NI by design — there, unsoundness means the static
        verdict certified a pair whose monitor still fires on some
        input.
        """
        if self.family == "classic":
            return ((self.static_certified or self.cfg_certified)
                    and not self.exhaustive_sound)
        return ((self.static_certified or self.cfg_certified)
                and self.dynamic_accepts < self.domain_size)

    @property
    def static_gap(self) -> int:
        """Inputs the maximal mechanism accepts but static enforcement loses."""
        return self.maximal_accepts - self.static_accepts

    @property
    def dynamic_gap(self) -> int:
        """Inputs the maximal mechanism accepts but surveillance loses."""
        return self.maximal_accepts - self.dynamic_accepts

    def to_dict(self) -> dict:
        row = {
            "program": self.program_name,
            "policy": self.policy_name,
            "family": self.family,
            "domain_size": self.domain_size,
            "static_certified": self.static_certified,
            "cfg_certified": self.cfg_certified,
            "static_accepts": self.static_accepts,
            "cfg_accepts": self.cfg_accepts,
            "dynamic_accepts": self.dynamic_accepts,
            "highwater_accepts": self.highwater_accepts,
            "maximal_accepts": self.maximal_accepts,
            "exhaustive_sound": self.exhaustive_sound,
            "unsound_static": self.unsound_static,
            "static_gap": self.static_gap,
            "dynamic_gap": self.dynamic_gap,
        }
        if self.unwinding_certified is not None:
            row["unwinding_certified"] = self.unwinding_certified
            row["unwinding_states"] = self.unwinding_states
            row["unwinding_iterations"] = self.unwinding_iterations
        return row

    def __repr__(self) -> str:
        return (f"PairPrecision({self.program_name}, {self.policy_name} "
                f"[{self.family}]: "
                f"static={self.static_accepts} cfg={self.cfg_accepts} "
                f"dyn={self.dynamic_accepts} max={self.maximal_accepts}"
                f"/{self.domain_size})")


class PrecisionReport:
    """All ladder rows plus the aggregate completeness-gap accounting."""

    def __init__(self, pairs: List[PairPrecision]) -> None:
        self.pairs = list(pairs)

    def unsound_pairs(self) -> List[PairPrecision]:
        """Static-certified pairs the exhaustive check rejects — must be []."""
        return [pair for pair in self.pairs if pair.unsound_static]

    def false_positives(self) -> Dict[str, int]:
        """Pairs each static verdict rejects although Q is sound as-is.

        Classic pairs only: the NI baseline is not the semantic
        reference for dynamic-policy families, so counting their
        rejections here would mislabel intentional declassification.
        """
        classic = [p for p in self.pairs if p.family == "classic"]
        return {
            "influence": sum(1 for p in classic
                             if p.exhaustive_sound and not p.static_certified),
            "cfg": sum(1 for p in classic
                       if p.exhaustive_sound and not p.cfg_certified),
        }

    def families(self) -> Dict[str, dict]:
        """Per-family pair counts and acceptance totals (CI gate input)."""
        summary: Dict[str, dict] = {}
        for pair in self.pairs:
            row = summary.setdefault(pair.family, {
                "pairs": 0, "static_certified": 0, "dynamic_accepts": 0,
                "domain_points": 0, "unsound_static": 0,
                "unwinding_states": 0, "unwinding_iterations": 0,
            })
            row["pairs"] += 1
            row["static_certified"] += int(pair.static_certified)
            row["dynamic_accepts"] += pair.dynamic_accepts
            row["domain_points"] += pair.domain_size
            row["unsound_static"] += int(pair.unsound_static)
            row["unwinding_states"] += pair.unwinding_states or 0
            row["unwinding_iterations"] += pair.unwinding_iterations or 0
        return summary

    def per_program(self) -> Dict[str, dict]:
        summary: Dict[str, dict] = {}
        for pair in self.pairs:
            row = summary.setdefault(pair.program_name, {
                "pairs": 0, "static_certified": 0, "cfg_certified": 0,
                "exhaustive_sound": 0, "static_accepts": 0,
                "dynamic_accepts": 0, "maximal_accepts": 0,
                "domain_points": 0,
            })
            row["pairs"] += 1
            row["static_certified"] += int(pair.static_certified)
            row["cfg_certified"] += int(pair.cfg_certified)
            row["exhaustive_sound"] += int(pair.exhaustive_sound)
            row["static_accepts"] += pair.static_accepts
            row["dynamic_accepts"] += pair.dynamic_accepts
            row["maximal_accepts"] += pair.maximal_accepts
            row["domain_points"] += pair.domain_size
        return summary

    def totals(self) -> dict:
        return {
            "pairs": len(self.pairs),
            "unsound_static_accepts": len(self.unsound_pairs()),
            "false_positives": self.false_positives(),
            "families": self.families(),
            "static_accepts": sum(p.static_accepts for p in self.pairs),
            "cfg_accepts": sum(p.cfg_accepts for p in self.pairs),
            "dynamic_accepts": sum(p.dynamic_accepts for p in self.pairs),
            "highwater_accepts": sum(p.highwater_accepts
                                     for p in self.pairs),
            "maximal_accepts": sum(p.maximal_accepts for p in self.pairs),
            "domain_points": sum(p.domain_size for p in self.pairs),
        }

    def to_dict(self) -> dict:
        return {
            "totals": self.totals(),
            "per_program": self.per_program(),
            "pairs": [pair.to_dict() for pair in self.pairs],
        }

    def render(self) -> str:
        from ..verify.report import Table

        table = Table(
            "precision ladder: accepted inputs per enforcement mechanism",
            ["program", "policy", "family", "static", "cfg", "dynamic",
             "highwater", "maximal", "|D|", "Q sound"])
        for pair in self.pairs:
            table.add_row(
                pair.program_name, pair.policy_name, pair.family,
                str(pair.static_accepts), str(pair.cfg_accepts),
                str(pair.dynamic_accepts), str(pair.highwater_accepts),
                str(pair.maximal_accepts), str(pair.domain_size),
                str(pair.exhaustive_sound))
        totals = self.totals()
        lines = [table.render(),
                 f"{totals['pairs']} pairs; unsound static accepts: "
                 f"{totals['unsound_static_accepts']} (must be 0); "
                 f"static false positives: "
                 f"{totals['false_positives']['influence']} influence / "
                 f"{totals['false_positives']['cfg']} cfg"]
        for family, row in sorted(self.families().items()):
            line = (f"  family {family}: {row['pairs']} pairs, "
                    f"{row['static_certified']} statically certified, "
                    f"{row['dynamic_accepts']}/{row['domain_points']} "
                    f"dynamic accepts")
            if row["unwinding_states"]:
                line += (f", unwinding {row['unwinding_states']} states / "
                         f"{row['unwinding_iterations']} iterations")
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self) -> str:
        totals = self.totals()
        return (f"PrecisionReport({totals['pairs']} pairs, "
                f"unsound={totals['unsound_static_accepts']})")


def pair_precision(flowchart: Flowchart, policy, domain,
                   values: Optional[Dict[tuple, int]] = None,
                   fuel: int = DEFAULT_FUEL) -> PairPrecision:
    """Compute one ladder row.

    ``values`` may carry precomputed ``{input: Q(input)}`` so sweeps
    evaluate each program once per grid rather than once per policy.
    """
    if values is None:
        values = {tuple(point): run_flowchart(flowchart, point,
                                              fuel=fuel).value
                  for point in domain}

    if flowchart.downgrade_ids():
        family = "downgrader"
    elif flowchart.policy_change_ids():
        family = "policy-change"
    else:
        family = "classic"

    static = influence_analysis(flowchart).verdict(policy).certified
    unwinding_certified = unwinding_states = unwinding_iterations = None
    if family != "classic":
        from .unwinding import unwinding_check
        unwinding = unwinding_check(flowchart, policy)
        unwinding_certified = unwinding.certified
        unwinding_states = unwinding.states_explored
        unwinding_iterations = unwinding.iterations
    cfg = certify_flowchart(flowchart, policy).certified

    dynamic_accepts = 0
    highwater_accepts = 0
    for point in domain:
        if not surveil(flowchart, point, policy.allowed,
                       fuel=fuel).violated:
            dynamic_accepts += 1
        if not surveil(flowchart, point, policy.allowed, forgetting=False,
                       fuel=fuel).violated:
            highwater_accepts += 1

    # Theorem 2's construction, inlined over precomputed values: a
    # policy class is accepted iff Q is constant on it.
    classes: Dict[object, List[tuple]] = {}
    for point in domain:
        classes.setdefault(policy(*point), []).append(tuple(point))
    maximal_accepts = 0
    for members in classes.values():
        first = values[members[0]]
        if all(values[member] == first for member in members[1:]):
            maximal_accepts += len(members)
    exhaustive_sound = maximal_accepts == len(domain)

    return PairPrecision(flowchart.name, policy.name, len(domain),
                         static, cfg, dynamic_accepts, highwater_accepts,
                         maximal_accepts, exhaustive_sound, family=family,
                         unwinding_certified=unwinding_certified,
                         unwinding_states=unwinding_states,
                         unwinding_iterations=unwinding_iterations)


def precision_harness(flowcharts: Optional[Sequence[Flowchart]] = None,
                      grid: Optional[Callable[[int], ProductDomain]] = None,
                      fuel: int = DEFAULT_FUEL) -> PrecisionReport:
    """The full ladder over the figure library × every allow policy.

    The default program set is the extended figure library plus the
    dynamic-policy suite (the ``policy-change`` and ``downgrader``
    families).
    """
    if flowcharts is None:
        from ..flowchart.library import dynamic_policy_suite, extended_suite

        flowcharts = list(extended_suite()) + list(dynamic_policy_suite())
    grid = grid or default_grid

    pairs: List[PairPrecision] = []
    for flowchart in flowcharts:
        domain = grid(flowchart.arity)
        values = {tuple(point): run_flowchart(flowchart, point,
                                              fuel=fuel).value
                  for point in domain}
        for policy in all_allow_policies(flowchart.arity):
            pairs.append(pair_precision(flowchart, policy, domain,
                                        values=values, fuel=fuel))
    return PrecisionReport(pairs)
