"""Surveillance variables: label sets over input indices (Section 3).

    *Associate with each variable v of Q ... a new variable v̄ called the
    surveillance variable of v.  The values of v̄ are always subsets of
    {1, ..., k}.*

A label is a frozenset of 1-based input indices — "the set of indices of
all input variables that may have affected the current value of v in
some way".  The label algebra is the powerset lattice: join is union,
bottom is the empty set.

The literal flowchart instrumentation cannot store sets in integer
variables, so it encodes labels as bitmasks; the codec lives here too.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

Label = FrozenSet[int]

#: The bottom label: "depends on no input".
EMPTY: Label = frozenset()


def singleton(index: int) -> Label:
    """The label {i} given to input variable x_i at the start box."""
    if index < 1:
        raise ValueError(f"input indices are 1-based, got {index}")
    return frozenset((index,))


def join(*labels: Iterable[int]) -> Label:
    """Least upper bound (union) of labels."""
    result: set = set()
    for label in labels:
        result |= set(label)
    return frozenset(result)


def permitted(label: Label, allowed: Label) -> bool:
    """The halt-box test of the surveillance mechanism: ``v̄ ⊆ J``."""
    return label <= allowed


def to_mask(label: Iterable[int]) -> int:
    """Encode a label as a bitmask (bit i-1 set for index i)."""
    mask = 0
    for index in label:
        if index < 1:
            raise ValueError(f"input indices are 1-based, got {index}")
        mask |= 1 << (index - 1)
    return mask


def from_mask(mask: int) -> Label:
    """Decode a bitmask back into a label; 0 is the shared :data:`EMPTY`."""
    if not mask:
        return EMPTY
    if mask < 0:
        raise ValueError(f"label masks are non-negative, got {mask}")
    indices = []
    index = 1
    while mask:
        if mask & 1:
            indices.append(index)
        mask >>= 1
        index += 1
    return frozenset(indices)


def mask_subset(mask: int, allowed_mask: int) -> bool:
    """Bitmask form of the subset test: ``(mask | allowed) == allowed``."""
    return (mask | allowed_mask) == allowed_mask
