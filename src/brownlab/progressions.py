"""Arithmetic-progression machinery for finite sets and colorings.

Conventions: every singleton is a 1-term progression and any two points
form a 2-term progression, matching the degenerate cases of the
partition search (least length-1 threshold is 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Coloring, FiniteSet
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class ApWitness:
    start: int
    difference: int
    length: int

    def elements(self) -> FiniteSet:
        return tuple(self.start + i * self.difference for i in range(self.length))


@dataclass(frozen=True)
class ApReport:
    """Per color: the longest progression length and one witnessing progression."""

    per_color: tuple


def longest_ap(h: Sequence[int]):
    """Length of the longest arithmetic progression inside ``h``, with witness.

    Dynamic program over element pairs, O(|H|^2) time and space; adequate at
    desk scale, the known bottleneck past ~10^5 elements.  Among equally long
    progressions the witness with least (start, difference) is returned.
    Empty sets score 0, singletons 1.
    """
    h = tuple(h)
    n = len(h)
    if n == 0:
        return 0, None
    if n == 1:
        return 1, ApWitness(h[0], 0, 1)
    lengths: dict[tuple[int, int], int] = {}
    best_len = 2
    for j in range(1, n):
        hj = h[j]
        for i in range(j):
            d = hj - h[i]
            size = lengths.get((i, d), 1) + 1
            lengths[(j, d)] = size
            if size > best_len:
                best_len = size
    if best_len == 2:
        # least start is h[0]; its least partner is the next element
        return 2, ApWitness(h[0], h[1] - h[0], 2)
    candidates = [(h[j] - (best_len - 1) * d, d)
                  for (j, d), size in lengths.items() if size == best_len]
    start, diff = min(candidates)
    return best_len, ApWitness(start, diff, best_len)


def class_ap_report(coloring: Coloring) -> ApReport:
    return ApReport(per_color=tuple(longest_ap(h) for h in coloring.classes()))


def ap_partition_check(coloring: Coloring, l: int):
    """Find a monochromatic l-term progression in the colored prefix.

    Scans (start, difference) pairs in ascending order and returns
    ``(color, witness)`` for the first hit, or None; absence is a valid
    outcome below the corresponding van der Waerden threshold.
    """
    if l < 1:
        raise InvalidArgumentError("progression length must be >= 1")
    values = coloring.values
    n = len(values)
    if l == 1:
        if n == 0:
            return None
        return values[0], ApWitness(0, 0, 1)
    span = l - 1
    for start in range(n):
        color = values[start]
        max_diff = (n - 1 - start) // span
        for diff in range(1, max_diff + 1):
            if all(values[start + i * diff] == color for i in range(1, l)):
                return color, ApWitness(start, diff, l)
    return None


def ap_transfer(host: Sequence[int], inner_positions: Sequence[int]) -> FiniteSet:
    """Index an arithmetic progression into another one.

    ``host`` must have constant consecutive difference and ``inner_positions``
    must be a progression of valid indices into it; the image is then itself
    a progression whose difference is the product of the two differences.
    """
    host = tuple(host)
    inner = tuple(inner_positions)
    for what, seq in (("host set is", host), ("inner positions are", inner)):
        if any(b - a != seq[1] - seq[0] for a, b in zip(seq, seq[1:])):
            raise InvalidArgumentError(f"{what} not an arithmetic progression")
    for m in inner:
        if not 0 <= m < len(host):
            raise InvalidArgumentError(f"index {m} outside the host progression")
    return tuple(host[m] for m in inner)
