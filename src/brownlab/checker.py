"""Largeness checks for color classes and machine-checkable witness certificates.

A finite set H is *large* for a growth function f when ``|H| > f(gap_size(H))``.
A color class is free of large subsets exactly when every window I of it
stays within budget, ``|I| <= f(gap_size(I))``; we call this the *star
condition*.  A coloring whose classes all satisfy the star condition is a
*witness*: it proves that colorings of that length can avoid large
homogeneous sets, i.e. that the corresponding Brown number exceeds its
length.

Two deciders are provided.  The fast path makes one left-to-right pass
over each class and checks every maximal run against f of its own gap
size, the largest difference inside it; for nondecreasing f this is
equivalent to checking every window.  The brute-force oracle enumerates
every subset of every class and is the semantics of record, usable with
arbitrary growth functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .colorfile import parse_rle_string, rle_string
from .core import Coloring, GrowthFn, _runs, parse_growth_spec
from .errors import InvalidArgumentError, PreconditionError, ResourceLimitError

BRUTEFORCE_LENGTH_CAP = 20


@dataclass(frozen=True)
class WindowViolation:
    """A window that breaks the star condition: ``length > f(gap_size)``."""

    color: Optional[int]
    start: int
    end: int
    gap_size: int
    length: int


@dataclass(frozen=True)
class StarReport:
    holds: bool
    violation: Optional[WindowViolation] = None


def _check_class(h: Sequence[int], f: GrowthFn):
    """Fast star check: every maximal run stays within f of its gap size.

    Returns ``(violation or None, certificate triples)``.  The triples are
    ``(d, longest d-bounded run, f(d))`` for each distinct gap value d of h
    (plus d = 1); the violation is the least ``(start, end)`` maximal run
    longer than f of its own gap size, as ``(start, end, gap size, length)``.
    Sound and complete for nondecreasing f: a window with gap size d sits
    inside the maximal d-bounded run around it, whose gap size is d.
    """
    sizes: dict[int, int] = {}
    limits = {1: f(1)} if h else {}
    least = None
    for g, lo, hi in _runs(h):
        size = hi - lo + 1
        if size > sizes.get(g, 0):
            sizes[g] = size
        if g not in limits:
            limits[g] = f(g)
        if size > limits[g] and (least is None or (h[lo], h[hi]) < least[:2]):
            least = (h[lo], h[hi], g, size)
    if h and limits[1] < 1 and (len(h) == 1 or h[1] - h[0] > 1):
        least = (h[0], h[0], 1, 1)     # a lone first element is already too large
    triples = []
    best = 1
    for d in sorted(limits):
        best = max(best, sizes.get(d, 1))
        triples.append((d, best, limits[d]))
    return least, triples


def satisfies_star(h: Sequence[int], f: GrowthFn, color: Optional[int] = None) -> StarReport:
    """Decide whether every window I of ``h`` has ``|I| <= f(gap_size(I))``.

    Requires f flagged nondecreasing (the run reduction relies on it); use
    :func:`has_large_homogeneous_bruteforce` for arbitrary growth functions.
    """
    if not f.nondecreasing:
        raise PreconditionError("the fast star check needs a nondecreasing growth function")
    h = tuple(h)
    violation, _ = _check_class(h, f)
    if violation is None:
        return StarReport(holds=True)
    start, end, gs, length = violation
    return StarReport(holds=False,
                      violation=WindowViolation(color, start, end, gs, length))


def has_large_homogeneous(coloring: Coloring, f: GrowthFn):
    """Find a color class window H with ``|H| > f(gap_size(H))``, if any.

    Returns ``(color, window)`` for the least (color, start, end) violation
    found by the run scan, or None when every class satisfies the star
    condition.  Requires f nondecreasing.
    """
    if not f.nondecreasing:
        raise PreconditionError("the fast star check needs a nondecreasing growth function")
    for color, h in enumerate(coloring.classes()):
        violation, _ = _check_class(h, f)
        if violation is not None:
            start, end, _, _ = violation
            lo = h.index(start)
            hi = h.index(end)
            return color, h[lo:hi + 1]
    return None


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


def _class_gap_profile(h: Sequence[int]) -> dict:
    """Max subset size per exact gap size, over ALL subsets of h; one
    enumeration serves many thresholds."""
    profile: dict[int, int] = {}
    for m, g in _subset_gaps(h):
        size = m.bit_count()
        if size > profile.get(g, 0):
            profile[g] = size
    return profile


def bruteforce_profile(coloring: Coloring) -> list:
    """Per color: the max-subset-size-by-gap-size profile of the class."""
    if coloring.length > BRUTEFORCE_LENGTH_CAP:
        raise ResourceLimitError(
            f"brute-force enumeration capped at length {BRUTEFORCE_LENGTH_CAP}")
    return [_class_gap_profile(h) for h in coloring.classes()]


def profile_has_large(profile: dict, f: GrowthFn) -> bool:
    return any(size > f(g) for g, size in profile.items())


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
            "coloring_rle": rle_string(self.coloring.values),
            "classes": [[list(t) for t in cls] for cls in self.per_class],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "WitnessCertificate":
        doc = json.loads(text)
        values = parse_rle_string(doc["coloring_rle"])
        coloring = Coloring(palette=doc["palette"], values=tuple(values))
        if coloring.length != doc["length"]:
            raise InvalidArgumentError("certificate length field disagrees with coloring body")
        per_class = tuple(tuple(tuple(t) for t in cls) for cls in doc["classes"])
        return cls(coloring=coloring, growth_spec=doc["growth"], per_class=per_class)


def is_witness(coloring: Coloring, f: GrowthFn) -> Optional[WitnessCertificate]:
    """Certify that every class of ``coloring`` satisfies the star condition.

    Returns the certificate, or None as soon as some class has a window
    exceeding its growth budget.  Requires f nondecreasing.
    """
    if not f.nondecreasing:
        raise PreconditionError("witness certification needs a nondecreasing growth "
                                "function (try closure:<spec>)")
    per_class = []
    for h in coloring.classes():
        violation, triples = _check_class(h, f)
        if violation is not None:
            return None
        per_class.append(tuple(triples))
    return WitnessCertificate(coloring=coloring,
                              growth_spec=f.spec_string(),
                              per_class=tuple(per_class))


def certificate_problems(cert: WitnessCertificate) -> list:
    """Re-derive a certificate from its raw coloring; list any mismatches."""
    problems = []
    try:
        f = parse_growth_spec(cert.growth_spec)
    except Exception as exc:  # malformed growth spec is itself a problem
        return [f"unparseable growth spec: {exc}"]
    if not f.nondecreasing:
        problems.append("growth function is not flagged nondecreasing")
        return problems
    if len(cert.per_class) != cert.coloring.palette:
        problems.append("per-class transcript count differs from palette")
        return problems
    for color, h in enumerate(cert.coloring.classes()):
        violation, triples = _check_class(h, f)
        if violation is not None:
            problems.append(f"class {color} has a window exceeding its budget: {violation}")
        if tuple(triples) != tuple(cert.per_class[color]):
            problems.append(f"class {color} transcript does not match recomputation")
        for d, run, limit in cert.per_class[color]:
            if run > limit:
                problems.append(f"class {color} records run {run} > f({d}) = {limit}")
    return problems


def verify_certificate(cert: WitnessCertificate) -> bool:
    return not certificate_problems(cert)
