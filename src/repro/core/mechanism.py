"""Protection mechanisms (Section 2).

    *M : D1 x ... x Dk -> E ∪ F is a protection mechanism for Q provided
    for all (d1, ..., dk) either (1) M(d1,...,dk) = Q(d1,...,dk) or
    (2) M(d1,...,dk) is in the set F* (the violation notices of M).

A mechanism is a **gatekeeper**: on each input it either passes the
program's output through, or returns a violation notice.  This module
provides:

- :class:`ViolationNotice` and the canonical notice :data:`LAMBDA`
  (the paper's Λ),
- :class:`ProtectionMechanism`, with a checkable contract
  (:meth:`ProtectionMechanism.check_contract`),
- the two trivial mechanisms of Example 3 — the program as its own
  mechanism (:func:`program_as_mechanism`) and "pulling the plug"
  (:func:`null_mechanism`),
- the union/join of Theorem 1 (:func:`union`, :func:`join`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from .errors import ArityMismatchError, MechanismContractError, ProgramError
from .program import Program


class ViolationNotice:
    """A member of the notice set F.

    The user reads a notice as: *"It looks as if you have attempted to
    view information that is to be denied to you."*  Notices compare
    equal by message, and — crucially for Example 1's critique of
    Fenton — are a distinct type from ordinary outputs, so ``F`` and
    ``E`` are disjoint by construction.

    When comparing mechanisms for completeness the paper deliberately
    does **not** distinguish different notices; :func:`is_violation`
    is the predicate completeness relies on.
    """

    __slots__ = ("message",)

    def __init__(self, message: str = "Λ") -> None:
        self.message = message

    def __repr__(self) -> str:
        return f"ViolationNotice({self.message!r})"

    def __str__(self) -> str:
        return self.message

    def __eq__(self, other) -> bool:
        if not isinstance(other, ViolationNotice):
            return NotImplemented
        return self.message == other.message

    def __hash__(self) -> int:
        return hash((ViolationNotice, self.message))


#: The canonical single violation notice Λ of Example 3.
LAMBDA = ViolationNotice("Λ")


def is_violation(value) -> bool:
    """True iff ``value`` is a violation notice (a member of F)."""
    return isinstance(value, ViolationNotice)


class ProtectionMechanism:
    """A gatekeeper ``M : D1 x ... x Dk -> E ∪ F`` for a program ``Q``.

    The defining contract — every output is either ``Q``'s output or a
    notice — is *checkable* on finite domains via
    :meth:`check_contract`; constructors in this library produce
    mechanisms satisfying it by construction.
    """

    def __init__(self, fn: Callable, program: Program, name: str = "M") -> None:
        if not isinstance(program, Program):
            raise ProgramError("a mechanism must protect a Program instance")
        self._fn = fn
        self.program = program
        self.name = name
        self._cache: dict = {}

    @property
    def arity(self) -> int:
        return self.program.arity

    @property
    def domain(self):
        return self.program.domain

    def __call__(self, *inputs):
        if len(inputs) != self.arity:
            raise ArityMismatchError(
                f"mechanism {self.name} takes {self.arity} inputs, got {len(inputs)}"
            )
        try:
            return self._cache[inputs]
        except KeyError:
            pass
        except TypeError:
            return self._fn(*inputs)
        value = self._fn(*inputs)
        self._cache[inputs] = value
        return value

    def passes(self, *inputs) -> bool:
        """True iff M passes Q's output through at this input (no notice)."""
        return not is_violation(self(*inputs))

    def acceptance_set(self) -> frozenset:
        """All inputs (over the finite domain) where ``M(a) == Q(a)``.

        This set *is* the mechanism's position in the completeness
        order: ``M1 >= M2`` iff ``acceptance(M1) ⊇ acceptance(M2)``.
        """
        return frozenset(point for point in self.domain if self.passes(*point))

    def violation_rate(self) -> float:
        """Fraction of the domain receiving a violation notice."""
        total = len(self.domain)
        return 1.0 - len(self.acceptance_set()) / total

    def check_contract(self, domain=None) -> None:
        """Verify the Section 2 definition over a finite domain.

        Raises :class:`MechanismContractError` with a witness if some
        output is neither ``Q(a)`` nor a violation notice.
        """
        for point in (domain or self.domain):
            got = self(*point)
            if is_violation(got):
                continue
            expected = self.program(*point)
            if got != expected:
                raise MechanismContractError(point, got, expected)

    def __repr__(self) -> str:
        return f"ProtectionMechanism({self.name} for {self.program.name})"


def program_as_mechanism(program: Program) -> ProtectionMechanism:
    """Example 3, first trivial mechanism: the program Q itself.

    "This corresponds, of course, to no protection at all."  It is a
    valid mechanism (contract trivially holds) but is sound only for
    policies through which Q already factors (cf. Example 5's logon
    program, which is *unsound* as its own mechanism).
    """
    return ProtectionMechanism(program, program,
                               name=program_mechanism_name(program.name))


def program_mechanism_name(program_name: str) -> str:
    """The name :func:`program_as_mechanism` gives Q used unprotected."""
    return f"{program_name}-as-M"


def null_mechanism(program: Program,
                   notice: ViolationNotice = LAMBDA) -> ProtectionMechanism:
    """Example 3, second trivial mechanism: always output Λ.

    "This corresponds to pulling the plug."  Sound for *every* policy
    — and useless, which is what motivates the completeness order.
    """
    return ProtectionMechanism(lambda *inputs: notice, program,
                               name="M-null")


def mechanism_from_table(program: Program, table: dict,
                         name: str = "M-table") -> ProtectionMechanism:
    """A mechanism given extensionally, as ``{input_tuple: output}``.

    Inputs missing from the table map to Λ.  Useful in tests and for
    materialising the maximal mechanism.
    """

    def lookup(*inputs):
        return table.get(inputs, LAMBDA)

    return ProtectionMechanism(lookup, program, name=name)


def union(first: ProtectionMechanism, second: ProtectionMechanism,
          name: Optional[str] = None) -> ProtectionMechanism:
    """The join ``M1 ∨ M2`` of Theorem 1.

        ``(M1 ∨ M2)(a) = Q(a)``  if ``M1(a) == Q(a)`` or ``M2(a) == Q(a)``,
        ``(M1 ∨ M2)(a) = M1(a)`` otherwise.

    The key property: if *either* component passes Q's output through,
    so does the union.  Theorem 1 (proved in the test suite by
    exhaustive check, and in general by the soundness machinery): the
    union of sound mechanisms is sound and at least as complete as both.
    """
    if first.program is not second.program:
        # Mechanisms for different Program objects computing the same
        # function are fine mathematically, but almost always a bug here.
        if first.program.domain != second.program.domain:
            raise ProgramError(
                "union(): mechanisms protect programs over different domains"
            )

    def joined(*inputs):
        expected = first.program(*inputs)
        first_output = first(*inputs)
        if first_output == expected:
            return first_output
        second_output = second(*inputs)
        if second_output == expected:
            return second_output
        return first_output

    return ProtectionMechanism(
        joined, first.program,
        name=name or f"({first.name} ∨ {second.name})",
    )


def join(mechanisms: Sequence[ProtectionMechanism],
         name: Optional[str] = None) -> ProtectionMechanism:
    """The n-ary join ``M1 ∨ M2 ∨ ...`` (the Theorem 2 construction).

    Folds :func:`union` over the sequence; with a single element it is
    that element.  The paper notes the join of *all* sound mechanisms is
    the maximal one (see :mod:`repro.core.maximal` for the effective
    finite-domain construction).
    """
    mechanisms = list(mechanisms)
    if not mechanisms:
        raise ProgramError("join() of an empty mechanism family")
    result = mechanisms[0]
    for mechanism in mechanisms[1:]:
        result = union(result, mechanism)
    if name is not None:
        result.name = name
    return result
