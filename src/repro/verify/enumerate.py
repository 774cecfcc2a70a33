"""Domain-sweep helpers shared by tests and benches.

Soundness and completeness are ∀-statements; these helpers run the
standard sweeps — every (program, policy) pair over a grid — and
collect the verdicts, so tests/benches state *what* to sweep, not how.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

import inspect

from ..core.domains import ProductDomain
from ..core.errors import ReproError
from ..core.policy import AllowPolicy, allow
from ..core.soundness import check_soundness_with_accepts
from ..flowchart.interpreter import DEFAULT_FUEL
from ..flowchart.program import Flowchart
from ..robustness.faults import TotalizedMechanism, fuel_notice

__all__ = [
    "SweepResult", "all_allow_policies", "build_mechanism", "default_grid",
    "fuel_notice", "sampled_soundness", "soundness_sweep", "unsound_results",
]


def _accepts(parameters, name: str, positional_rank: int) -> bool:
    """Whether a factory with these signature ``parameters`` (None: no
    signature) can receive a given sweep budget: it takes ``name`` (or
    ``**kwargs``/``*args``), or has ``positional_rank`` positional slots."""
    if parameters is None:
        return False
    if name in parameters or any(
            parameter.kind in (inspect.Parameter.VAR_KEYWORD,
                               inspect.Parameter.VAR_POSITIONAL)
            for parameter in parameters.values()):
        return True
    positional = [
        parameter for parameter in parameters.values()
        if parameter.kind in (inspect.Parameter.POSITIONAL_ONLY,
                              inspect.Parameter.POSITIONAL_OR_KEYWORD)]
    return len(positional) >= positional_rank


def build_mechanism(factory, flowchart, policy, domain,
                    fuel: int = DEFAULT_FUEL,
                    value_cap: Optional[int] = None,
                    backend: Optional[str] = None):
    """Invoke a mechanism factory, threading the sweep budgets.

    Registered :data:`~repro.verify.parallel.FACTORIES` all accept
    ``(flowchart, policy, domain, fuel, value_cap, backend)``.  Legacy
    callables are still accepted — but only at the default budgets;
    silently dropping a caller's explicit fuel, value cap, or backend
    is exactly the bug this helper exists to prevent, so those cases
    raise instead.  A sweep builds each pair's mechanism once per
    process, so the factory's signature is read once per pair.
    """
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        parameters = None
    takes_fuel = _accepts(parameters, "fuel", 4)
    if not takes_fuel and fuel != DEFAULT_FUEL:
        raise ReproError(
            f"mechanism factory {getattr(factory, '__name__', factory)!r} "
            "takes (flowchart, policy, domain) only and cannot honour "
            f"fuel={fuel}; extend it to accept a fuel argument")
    kwargs = {}
    if value_cap is not None:
        if not _accepts(parameters, "value_cap", 5):
            raise ReproError(
                f"mechanism factory {getattr(factory, '__name__', factory)!r} "
                f"cannot honour value_cap={value_cap}; extend it to accept "
                "a value_cap argument")
        kwargs["value_cap"] = value_cap
    if backend is not None:
        if not _accepts(parameters, "backend", 6):
            raise ReproError(
                f"mechanism factory {getattr(factory, '__name__', factory)!r} "
                f"cannot honour backend={backend!r}; extend it to accept "
                "a backend argument")
        kwargs["backend"] = backend
    if kwargs:
        return factory(flowchart, policy, domain, fuel, **kwargs)
    if takes_fuel:
        return factory(flowchart, policy, domain, fuel)
    return factory(flowchart, policy, domain)


def all_allow_policies(arity: int) -> List[AllowPolicy]:
    """Every allow(...) policy for a k-ary program (2^k of them)."""
    import itertools

    policies = []
    indices = range(1, arity + 1)
    for size in range(arity + 1):
        for subset in itertools.combinations(indices, size):
            policies.append(allow(*subset, arity=arity))
    return policies


def default_grid(arity: int, low: int = 0, high: int = 2) -> ProductDomain:
    """The standard small grid used by sweeps (3^k points by default)."""
    return ProductDomain.integer_grid(low, high, arity)


class SweepResult:
    """One (program, policy, mechanism) soundness verdict."""

    def __init__(self, program_name: str, policy_name: str,
                 mechanism_name: str, sound: bool,
                 accepts: int, domain_size: int,
                 backends: Optional[Dict[str, int]] = None) -> None:
        self.program_name = program_name
        self.policy_name = policy_name
        self.mechanism_name = mechanism_name
        self.sound = sound
        self.accepts = accepts
        self.domain_size = domain_size
        #: chunk count per execution backend that actually evaluated
        #: this pair (parallel sweeps record it; None when untracked).
        self.backends = backends

    def __repr__(self) -> str:
        return (f"SweepResult({self.program_name}, {self.policy_name}: "
                f"sound={self.sound}, accepts={self.accepts}/{self.domain_size})")


def soundness_sweep(flowcharts: Sequence[Flowchart],
                    mechanism_factory: Callable,
                    grid: Optional[Callable[[int], ProductDomain]] = None,
                    fuel: int = DEFAULT_FUEL,
                    value_cap: Optional[int] = None) -> List[SweepResult]:
    """Check a mechanism family on every flowchart × every allow policy.

    ``mechanism_factory(flowchart, policy, domain[, fuel])`` builds the
    mechanism under test; ``grid(arity)`` supplies the domain (default
    :func:`default_grid`).  Returns one verdict per combination — the
    empirical content of Theorems 3/3′.

    ``fuel`` reaches the factory (see :func:`build_mechanism`), and a
    run that exhausts it is recorded as the distinguished
    :func:`fuel_notice` outcome rather than aborting the sweep, so the
    sweep itself is a total function of its arguments.

    Each domain point is evaluated exactly once: the soundness
    factorization check and the acceptance count both derive from the
    same per-point mechanism output
    (:func:`~repro.core.soundness.check_soundness_with_accepts`).
    For large products, :func:`repro.verify.parallel_soundness_sweep`
    runs the same sweep across a worker pool.
    """
    from ..obs import runtime as _obs

    grid = grid or default_grid
    results: List[SweepResult] = []
    total = sum(2 ** flowchart.arity for flowchart in flowcharts)
    with _obs.span(
            "sweep", executor="serial", pairs=total,
            points=sum(len(grid(f.arity)) * 2 ** f.arity
                       for f in flowcharts) if flowcharts else 0):
        for flowchart in flowcharts:
            domain = grid(flowchart.arity)
            for policy in all_allow_policies(flowchart.arity):
                with _obs.span("pair", program=flowchart.name,
                               policy=policy.name):
                    mechanism = build_mechanism(mechanism_factory, flowchart,
                                                policy, domain, fuel,
                                                value_cap=value_cap)
                    report, accepts = check_soundness_with_accepts(
                        TotalizedMechanism(mechanism), policy, domain)
                    results.append(SweepResult(
                        flowchart.name, policy.name, mechanism.name,
                        report.sound, accepts, len(domain)))
    return results


def unsound_results(results: Iterable[SweepResult]) -> List[SweepResult]:
    """Filter a sweep down to its failures (empty for a sound family)."""
    return [result for result in results if not result.sound]


def sampled_soundness(mechanism, policy, domain=None, samples: int = 1000,
                      seed: int = 0):
    """Soundness check by sampling — for domains too large to enumerate.

    Draws ``samples`` pseudo-random points (deterministic per seed) and
    runs the factorization check on them.  A returned witness is a real
    unsoundness proof; a "sound" verdict is only evidence (the full
    check is a ∀ statement — Theorem 4 territory).
    """
    from ..core.soundness import check_soundness

    domain = domain if domain is not None else mechanism.domain
    points = list(domain.sample(samples, seed=seed))
    return check_soundness(mechanism, policy, points)
