"""The high-water-mark protection mechanism (Section 3 comparison).

High-water mark is surveillance without forgetting: a variable's label
only ever grows.  The paper's page-48 comparison:

    *It is easy to see that Ms >= Mh ... Intuitively, surveillance is
    better here, since it allows "forgetting" while high-water mark does
    not.*

This module is a thin, named wrapper over the surveillance interpreter
with ``forgetting=False`` so the two mechanisms differ in exactly one
switch — the design choice bench E06 ablates.
"""

from __future__ import annotations

from typing import Optional

from ..core.domains import ProductDomain
from ..core.mechanism import ProtectionMechanism
from ..core.observability import VALUE_ONLY, OutputModel
from ..core.policy import AllowPolicy
from ..core.program import Program
from ..flowchart.interpreter import DEFAULT_FUEL
from ..flowchart.program import Flowchart
from .dynamic import surveillance_mechanism, surveillance_name


def highwater_mechanism(flowchart: Flowchart, policy: AllowPolicy,
                        domain: ProductDomain,
                        output_model: OutputModel = VALUE_ONLY,
                        timed: bool = False,
                        fuel: int = DEFAULT_FUEL,
                        program: Optional[Program] = None,
                        name: Optional[str] = None,
                        value_cap: Optional[int] = None,
                        backend: Optional[str] = None) -> ProtectionMechanism:
    """The high-water-mark mechanism Mh for (Q, allow(J)).

    Identical to the surveillance mechanism except labels accumulate
    monotonically across assignments — once a variable has depended on a
    disallowed input, it is marked forever.
    """
    return surveillance_mechanism(
        flowchart, policy, domain, output_model=output_model, timed=timed,
        forgetting=False, fuel=fuel, program=program,
        name=name or surveillance_name(flowchart, policy, forgetting=False),
        value_cap=value_cap, backend=backend,
    )
