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
equivalent to checking every window.  A coloring of repeated segments is folded
instead: one walk of a copy of each segment summarizes its classes, and the
summaries compose in closed form over copies and segments.  The scan reports the
first class that breaks the star condition with its least window, a
:class:`WindowViolation`, or else yields the :class:`WitnessCertificate`, whose
empty classes share one transcript; a certificate verifies only when the scan
reproduces it exactly.  The brute-force oracle enumerates every subset of every
class and is the semantics of record, usable with arbitrary growth functions.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional, Sequence

from .colorfile import LENGTH_CAP, coloring_rle, parse_rle_string
from .core import _TOP, Coloring, GrowthFn, _class_runs, parse_growth_spec
from .errors import (GrowthSpecError, InvalidArgumentError, PreconditionError,
                     ResourceLimitError)

BRUTEFORCE_LENGTH_CAP = 20
_FOLD_COST = 64     # positions: a class's summary costs about as much as their walk


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
    return least, _triples(sizes, f, limits)


def _triples(sizes: dict, f: GrowthFn, limits: dict) -> dict:
    """``{color: certificate triples}`` of ``{color: {d: run}}``, each d's run the longest
    at d or below."""
    triples = {}
    for color, runs in sizes.items():
        ds = sorted(runs)
        limits.update((d, f(d)) for d in ds if d not in limits)
        triples[color] = tuple(zip(ds, accumulate(map(runs.__getitem__, ds), max),
                                   map(limits.__getitem__, ds)))
    return triples


def _summaries(values, start: int, stop: int) -> dict:
    """``{color: summary}`` of the classes of positions ``start..stop-1``, from one walk of
    the run kernel that also yields the runs at each class's end.  A class's summary is
    ``[first, last, size, best, prefix, suffix]``: ``best`` maps each gap value g of the
    class (and 1) to its longest run whose gaps are all <= g; ``prefix`` lists ``(g, size)``
    of each maximal run that holds the first element, by increasing g, the last one the
    whole class; ``suffix`` lists ``(g, lo)`` of each that holds the last element, by
    decreasing g, lo indexing the run's first element.  The run at any d is the entry of
    the largest g <= d.  Summaries compose in closed form."""
    runs: dict = {}
    for color, *run in _class_runs(enumerate(values[start:stop], start), True):
        runs.setdefault(color, []).append(run)
    out = {}
    for color, rs in runs.items():
        size = max(r[2] for r in rs) + 1
        out[color] = [min(r[3] for r in rs), max(r[4] for r in rs), size,
                      dict(sorted((g, hi - lo + 1) for g, lo, hi, _, _ in rs)),
                      sorted({(g, hi + 1) for g, lo, hi, _, _ in rs if lo == 0}),
                      sorted({(g, lo) for g, lo, hi, _, _ in rs if hi == size - 1}, reverse=True)]
    return out


def _junction(best: dict, size: int, suffix: list, prefix: list, j: int, m: int) -> None:
    """Record in ``best``, at each d < m where one changes, the run that ends a part of
    ``size`` elements and ``suffix`` (by increasing g) and, when j <= d, goes on across a
    junction gap j through a ``prefix``.  From d = m on, the parts join whole."""
    def at(entries, d):                 # the second field of the entry of the largest g <= d
        return entries[bisect_right(entries, (d, _TOP)) - 1][1]
    for d in {j, *(g for g, _ in suffix), *(g for g, _ in prefix)}:    # where a run changes
        if d < m:
            run = size - at(suffix, d) + (at(prefix, d) if j <= d else 0)
            best[d] = max(best.get(d, 0), run)


def _repeat(s: list, period: int, k: int) -> list:
    """The summary of k copies of ``s``, a period apart: at d from m, the larger of the
    junction gap and the gap size, the copies are one run, and below m at most two join."""
    first, last, size, best, prefix, suffix = s
    j = first + period - last
    m = max(j, prefix[-1][0])
    _junction(best, size, suffix[::-1], prefix, j, m)
    return [first, last + (k - 1) * period, k * size, best,
            [e for e in prefix if e[0] < m] + [(m, k * size)],
            [(m, 0)] + [(g, lo + (k - 1) * size) for g, lo in suffix if g < m]]


def _join(a: list, b: list) -> None:
    """Extend summary ``a`` by ``b``, a class after a's last position, but not a's prefix:
    nothing joins a fold on its left."""
    size, best, stack = a[2], a[3], a[5]
    j = b[0] - a[1]
    m = max(j, b[4][-1][0])
    ended = []                          # a's runs at its end that b does not extend whole
    while stack and stack[-1][0] < m:
        ended.append(stack.pop())
    _junction(best, size, ended, b[4], j, m)
    if not stack or stack[-1][0] != m:
        stack.append((m, ended[-1][1]))
    stack.extend((g, lo + size) for g, lo in b[5] if g < m)
    best.update((g, run) for g, run in b[3].items() if run > best.get(g, 0))
    a[1], a[2] = b[1], size + b[2]


def _fold(coloring: Coloring) -> Optional[dict]:
    """``{color: {d: run}}`` for :func:`_triples`, folded over the coloring's segments, or
    None when one walk of the values costs less: the fold walks one copy of each segment,
    and each class a segment may hold costs it about ``_FOLD_COST`` positions more."""
    segments = coloring._segments or ((coloring.length, 1),)
    if sum(p + _FOLD_COST * min(p, coloring.palette) for p, _ in segments) >= coloring.length:
        return None
    acc, start = {}, 0
    for p, k in segments:
        for color, s in _summaries(coloring.values, start, start + p).items():
            s = _repeat(s, p, k) if k > 1 else s
            if color in acc:
                _join(acc[color], s)
            else:
                acc[color] = s
        start += p * k
    for _, _, size, best, _, stack in acc.values():
        best.update((g, max(best.get(g, 0), size - lo)) for g, lo in stack)
    return {color: s[3] for color, s in acc.items()}


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
            values, body, segs = parse_rle_string(doc["coloring_rle"], doc["length"], palette)
            coloring = Coloring(palette=palette, values=values, _rle_body=body, _segments=segs)
            if not isinstance(doc["growth"], str):
                raise InvalidArgumentError("certificate growth field is not a spec string")
            empty = []                      # one list to compare each class with, not one each
            per_class = tuple(() if c == empty else tuple(map(tuple, c)) for c in doc["classes"])
        except InvalidArgumentError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise InvalidArgumentError(
                f"malformed certificate ({type(exc).__name__}: {exc})") from None
        return cls(coloring=coloring, growth_spec=doc["growth"], per_class=per_class)


def _scan(coloring: Coloring, f: GrowthFn):
    """The one star check of a coloring: ``(violation, None)`` for the least (start,
    end) window of the first class that breaks the star condition, else ``(None,
    certificate)``; empty classes share ``()``.  A coloring of repeated segments is
    folded; one pass over the values checks any other, and names a fold's violation."""
    _nondecreasing(f)
    sizes, least = _fold(coloring), None
    triples = None if sizes is None else _triples(sizes, f, {})
    if triples is None or any(run > limit for ts in triples.values() for _, run, limit in ts):
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
