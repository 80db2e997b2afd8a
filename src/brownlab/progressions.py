"""Monochromatic arithmetic progressions in colorings.

Conventions: every singleton is a 1-term progression and any two points
form a 2-term progression, matching the degenerate cases of the
partition search (least length-1 threshold is 1).
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

from .core import Coloring, FiniteSet
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class ApWitness:
    start: int
    difference: int
    length: int

    def elements(self) -> FiniteSet:
        return tuple(self.start + i * self.difference for i in range(self.length))


def ap_partition_check(coloring: Coloring, l: int):
    """Find a monochromatic l-term progression in the colored prefix.

    Scans (start, difference) pairs in ascending order and returns
    ``(color, witness)`` for the first hit, or None; absence is a valid
    outcome below the corresponding van der Waerden threshold.  Only pairs
    whose second term shares the start's color are tried.
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
    for start, color in enumerate(values):
        stop = start + (n - 1 - start) // span + 1      # past the last second term that fits
        second = start
        with suppress(ValueError):                      # no further second term of the color
            while True:
                second = values.index(color, second + 1, stop)
                diff = second - start
                if values[second + diff:start + l * diff:diff].count(color) == l - 2:
                    return color, ApWitness(start, diff, l)
    return None
