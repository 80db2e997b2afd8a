"""Largeness checks for color classes and machine-checkable witness certificates.

A finite set H is *large* for a growth function f when ``|H| > f(gap_size(H))``.
A color class is free of large subsets exactly when every window I of it
stays within budget, ``|I| <= f(gap_size(I))``; we call this the *star
condition*.  A coloring whose classes all satisfy the star condition is a
*witness*: it proves that colorings of that length can avoid large
homogeneous sets, i.e. that the corresponding Brown number exceeds its
length.

Two deciders are provided.  The fast path is one scan of a coloring: one
left-to-right pass over its values (``core._class_runs``) yields every class's
record runs, checked against f of their gap size; for nondecreasing f this is
equivalent to checking every window.  The scan reports the first class that
breaks the star condition with its least such window, a
:class:`WindowViolation`, or else yields the :class:`WitnessCertificate`, whose
empty classes share one empty transcript; a certificate verifies only when the
scan reproduces it exactly.  The brute-force oracle enumerates every subset of
every class and is the semantics of record, usable with arbitrary growth functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional, Sequence

from .colorfile import LENGTH_CAP, coloring_rle, parse_rle_string
from .core import Coloring, GrowthFn, _class_runs, parse_growth_spec
from .errors import (GrowthSpecError, InvalidArgumentError, PreconditionError,
                     ResourceLimitError)

BRUTEFORCE_LENGTH_CAP = 20


@dataclass(frozen=True)
class WindowViolation:
    """A window that breaks the star condition: ``length > f(gap_size)``."""

    color: Optional[int]
    start: int
    end: int
    gap_size: int
    length: int


def _check(pairs, f: GrowthFn) -> tuple:
    """The star check of each class that occurs among ``(position, color)`` pairs,
    in one pass: ``({color: (start, end, gap size, length)}, {color: triples})``.

    The first dict holds each breaking class's least ``(start, end)`` maximal run
    longer than f of its own gap size.  The certificate triples are ``(d, longest
    d-bounded run, f(d))`` for d = 1 and each distinct gap value d of the class.
    Sound and complete for nondecreasing f: a window with gap size d sits inside
    the maximal d-bounded run around it, whose gap size is d.  Record runs
    suffice: the longest and the first violating run of each d are records, and
    so is a class's first element (f(1) = 0 breaks every class).
    """
    limits: dict = {}       # d -> f(d), shared by the classes
    least: dict = {}
    sizes: dict = {}        # color -> {d: longest d-run}
    for color, g, lo, hi, start, end in _class_runs(pairs):
        size = sizes.setdefault(color, {})[g] = hi - lo + 1
        if g not in limits:
            limits[g] = f(g)
        if size > limits[g] and (color not in least or (start, end) < least[color][:2]):
            least[color] = (start, end, g, size)
    triples = {}
    for color, runs in sizes.items():
        ds = sorted(runs)
        triples[color] = tuple(zip(ds, accumulate(map(runs.__getitem__, ds), max),
                                   map(limits.__getitem__, ds)))
    return least, triples


def _check_class(h: Sequence[int], f: GrowthFn, color: Optional[int] = None):
    """``(WindowViolation or None, certificate triples)`` of the set ``h``, as ``color``."""
    least, triples = _check(zip(h, repeat(0)), f)
    return (WindowViolation(color, *least[0]) if least else None), triples.get(0, ())


def _nondecreasing(f: GrowthFn) -> GrowthFn:
    """The fast checks' precondition: the run reduction needs f nondecreasing."""
    if not f.nondecreasing:
        raise PreconditionError("the star check needs a nondecreasing growth "
                                "function (try closure:<spec>)")
    return f


def star_violation(h: Sequence[int], f: GrowthFn) -> Optional[WindowViolation]:
    """The least ``(start, end)`` window I of the set ``h`` with
    ``|I| > f(gap_size(I))``, or None when ``h`` satisfies the star
    condition.  The violation's ``color`` is None.  Requires f
    nondecreasing; use :func:`has_large_homogeneous_bruteforce` for
    arbitrary growth functions.
    """
    return _check_class(h, _nondecreasing(f))[0]


def _subset_gaps(h: Sequence[int]):
    """Yield ``(mask, gap size)`` for every nonempty subset of h, masks in
    increasing order.  The gap size of a mask extends that of the mask
    without its smallest element by the leading difference: the definition
    of gap size unrolled, independent of the fast checker's run scan.
    """
    gs = [1] * (1 << len(h))
    bit_length = int.bit_length
    for m in range(1, 1 << len(h)):
        rest = m & (m - 1)
        if rest:
            i = bit_length(m & -m) - 1
            j = bit_length(rest & -rest) - 1
            g = h[j] - h[i]
            prev = gs[rest]
            g = prev if prev > g else g
        else:
            g = 1
        gs[m] = g
        yield m, g


def has_large_homogeneous_bruteforce(coloring: Coloring, f: GrowthFn):
    """Oracle decider: enumerate every subset S of every class and test
    ``|S| > f(gap_size(S))``.  Works for arbitrary f; the coloring length
    must stay under ``BRUTEFORCE_LENGTH_CAP``.  Returns ``(color, subset)``
    for the first large subset in (color, bitmask) order, or None.
    """
    if coloring.length > BRUTEFORCE_LENGTH_CAP:
        raise ResourceLimitError(f"brute-force oracle capped at length {BRUTEFORCE_LENGTH_CAP}")
    limits: dict[int, int] = {}
    for color, h in enumerate(coloring.classes()):
        for m, g in _subset_gaps(h):
            limit = limits.get(g)
            if limit is None:
                limit = f(g)
                limits[g] = limit
            if m.bit_count() > limit:
                subset = tuple(h[k] for k in range(len(h)) if m >> k & 1)
                return color, subset
    return None


# ---------------------------------------------------------------------------
# Witness certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessCertificate:
    """A coloring plus per-class run transcripts proving the star condition.

    ``per_class[i]`` lists ``(d, longest d-bounded run, f(d))`` for each
    distinct gap value d of class i (plus d = 1); every triple satisfies
    ``run <= f(d)``.  Such a certificate proves that the Brown number for
    (growth, palette) exceeds the coloring's length.
    """

    coloring: Coloring
    growth_spec: str
    per_class: tuple

    @property
    def proves_exceeds(self) -> int:
        return self.coloring.length

    def to_json(self) -> str:
        """Canonical JSON, byte-stable for identical inputs."""
        doc = {
            "palette": self.coloring.palette,
            "length": self.coloring.length,
            "growth": self.growth_spec,
            "coloring_rle": coloring_rle(self.coloring),
            "classes": self.per_class,      # json writes tuples as lists
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "WitnessCertificate":
        """Parse :meth:`to_json` output; a malformed document of any shape
        raises :class:`InvalidArgumentError`."""
        try:
            doc = json.loads(text)
            palette = doc["palette"]
            if type(palette) is not int:
                raise InvalidArgumentError(f"palette must be an int, not {type(palette).__name__}")
            if palette > LENGTH_CAP:
                raise InvalidArgumentError(f"palette must be a natural <= {LENGTH_CAP}")
            values, body = parse_rle_string(doc["coloring_rle"], doc["length"], palette)
            coloring = Coloring(palette=palette, values=values, _rle_body=body)
            if not isinstance(doc["growth"], str):
                raise InvalidArgumentError("certificate growth field is not a spec string")
            per_class = tuple(tuple(tuple(t) for t in cls) for cls in doc["classes"])
        except InvalidArgumentError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise InvalidArgumentError(
                f"malformed certificate ({type(exc).__name__}: {exc})") from None
        return cls(coloring=coloring, growth_spec=doc["growth"], per_class=per_class)


def _scan(coloring: Coloring, f: GrowthFn):
    """The one star check of a coloring, one pass over its values: ``(violation,
    None)`` for the least (start, end) window of the first class that breaks the
    star condition, else ``(None, certificate)``; empty classes share ``()``."""
    _nondecreasing(f)
    least, triples = _check(enumerate(coloring.values), f)
    if least:
        color = min(least)
        return WindowViolation(color, *least[color]), None
    per_class = tuple(map(triples.get, range(coloring.palette), repeat(())))
    return None, WitnessCertificate(coloring=coloring, growth_spec=f.spec_string(),
                                    per_class=per_class)


def is_witness(coloring: Coloring, f: GrowthFn) -> Optional[WitnessCertificate]:
    """The certificate that every class of ``coloring`` satisfies the star
    condition, or None.  Requires f nondecreasing."""
    return _scan(coloring, f)[1]


def has_large_homogeneous(coloring: Coloring, f: GrowthFn) -> Optional[WindowViolation]:
    """The least (color, start, end) class window H with
    ``|H| > f(gap_size(H))``, or None.  Requires f nondecreasing."""
    return _scan(coloring, f)[0]


def verify_certificate(cert: WitnessCertificate) -> bool:
    """True when the growth spec parses, is nondecreasing and a fresh scan of
    the coloring reproduces the certificate exactly: the canonical spec
    spelling, one transcript per palette color and every triple."""
    try:
        return _scan(cert.coloring, parse_growth_spec(cert.growth_spec))[1] == cert
    except (GrowthSpecError, PreconditionError):
        return False
