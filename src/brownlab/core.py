"""Fundamental data types and gap analysis for finite colorings.

Positions are 0-based throughout: a coloring assigns one of ``palette``
colors to each position of the initial segment ``0..length-1``.  Finite
sets of naturals are represented as strictly increasing tuples of ints;
they stand for color classes and for homogeneous sets under analysis.

The central quantity is the *gap size* ``gap_size(H)``: the largest
difference between consecutive elements of ``H``, with the convention
that sets of at most one element (including the empty set) have gap
size 1.  A *window* of ``H`` is a run of consecutive elements in H's sorted
enumeration; windows are the sets the checks in :mod:`brownlab.checker` quantify
over.  Their one run kernel, ``_class_runs``, walks ``(position, color)`` pairs
once, holding a few objects per color that occurs and none per position; for the
checker's fold of a repeated segment it also yields the runs at each class's end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .errors import GrowthSpecError, InvalidArgumentError

FiniteSet = tuple  # strictly increasing tuple of naturals
_TOP = float("inf")  # larger than every gap


@dataclass(frozen=True)
class Coloring:
    """An assignment of a color ``< palette`` to each position ``0..length-1``."""

    palette: int
    values: tuple
    # the values' canonical rle body, kept by the decoder, `periodic` and certificate from_json
    _rle_body: Optional[str] = field(default=None, compare=False, repr=False, kw_only=True)
    # (positions, copies) of each stretch of values repeated back to back, kept likewise
    _segments: Optional[tuple] = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        values = self.values
        if not isinstance(values, tuple):
            object.__setattr__(self, "values", tuple(values))
            values = self.values
        if type(self.palette) is not int:
            raise InvalidArgumentError(f"palette must be an int, not {type(self.palette).__name__}")
        if values:
            if self.palette < 1:
                raise InvalidArgumentError("palette must be >= 1 for a nonempty coloring")
            distinct = set(values)
            if min(distinct) < 0 or max(distinct) >= self.palette:
                raise InvalidArgumentError("coloring values must lie in 0..palette-1")
        elif self.palette < 0:
            raise InvalidArgumentError("palette must be a natural")

    @property
    def length(self) -> int:
        return len(self.values)

    def classes(self) -> list:
        """All color classes at once, in one pass over the values."""
        out: list = [[] for _ in range(self.palette)]
        for x, v in enumerate(self.values):
            out[v].append(x)
        for v, c in enumerate(out):
            out[v] = tuple(c)       # each list is freed as its tuple is made
        return out


# ---------------------------------------------------------------------------
# Growth functions
# ---------------------------------------------------------------------------

_KINDS = ("id", "linear", "exp2", "table", "closure")


@dataclass(frozen=True)
class GrowthFn:
    """A total function from naturals to naturals used as a largeness threshold.

    Supported shapes: the identity, ``linear`` with slope ``m >= 1``,
    base-2 exponential, a finite lookup table with an explicit tail rule
    (``const`` repeats the last value, ``linear`` extrapolates with the
    last difference, which must be >= 0), and the monotone closure of
    another growth function (pointwise partial sums).

    ``nondecreasing`` holds for id/linear/exp2/closure and is checked over
    the table for lookups; the fast checker paths rely on it.
    """

    kind: str
    slope: int = 0
    table: tuple = ()
    tail: str = "const"
    inner: Optional["GrowthFn"] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown growth kind {self.kind!r}")
        if self.kind == "linear" and self.slope < 1:
            raise InvalidArgumentError("linear growth needs slope >= 1")
        if self.kind == "table":
            if not self.table:
                raise InvalidArgumentError("lookup table may not be empty")
            if any(v < 0 for v in self.table):
                raise InvalidArgumentError("table values must be naturals")
            if self.tail not in ("const", "linear"):
                raise InvalidArgumentError(f"unknown tail rule {self.tail!r}")
            if self.tail == "linear":
                if len(self.table) < 2:
                    raise InvalidArgumentError("linear tail needs at least two table values")
                if self.table[-1] < self.table[-2]:
                    raise InvalidArgumentError("linear tail must extrapolate with step >= 0")
        if self.kind == "closure" and self.inner is None:
            raise InvalidArgumentError("closure needs an inner growth function")

    @property
    def nondecreasing(self) -> bool:
        if self.kind == "table":
            return all(a <= b for a, b in zip(self.table, self.table[1:]))
        return True

    @property
    def monotone(self) -> "GrowthFn":
        """The growth function the star search and the recursion bound run on:
        ``self`` when nondecreasing, else its monotone closure
        ``g(n) = sum(f(i) for i <= n)``, which dominates it pointwise."""
        return self if self.nondecreasing else GrowthFn.closure(self)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls) -> "GrowthFn":
        return cls("id")

    @classmethod
    def linear(cls, slope: int) -> "GrowthFn":
        return cls("linear", slope=slope)

    @classmethod
    def exp2(cls) -> "GrowthFn":
        return cls("exp2")

    @classmethod
    def from_table(cls, values: Iterable[int], tail: str = "const") -> "GrowthFn":
        return cls("table", table=tuple(values), tail=tail)

    @classmethod
    def closure(cls, inner: "GrowthFn") -> "GrowthFn":
        return cls("closure", inner=inner)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, n: int) -> int:
        if n < 0:
            raise InvalidArgumentError("growth functions are defined on naturals")
        kind = self.kind
        if kind == "id":
            return n
        if kind == "linear":
            return self.slope * n
        if kind == "exp2":
            return 1 << n
        if kind == "table":
            table = self.table
            if n < len(table):
                return table[n]
            if self.tail == "const":
                return table[-1]
            return table[-1] + (n - (len(table) - 1)) * (table[-1] - table[-2])
        # closure: pointwise partial sums of the inner function
        return sum(self.inner._values(n))

    def _values(self, n: int) -> Iterator[int]:
        """``f(0), ..., f(n)`` in order.  A closure keeps a running sum of its
        inner sequence, so k nested closures cost O(k * n) inner calls."""
        if self.kind == "closure":
            return accumulate(self.inner._values(n))
        return map(self, range(n + 1))

    # -- spec strings --------------------------------------------------------

    def spec_string(self) -> str:
        """Canonical textual form; ``parse_growth_spec`` inverts it exactly."""
        if self.kind == "id":
            return "id"
        if self.kind == "linear":
            return f"linear:{self.slope}"
        if self.kind == "exp2":
            return "exp2"
        if self.kind == "table":
            body = ",".join(str(v) for v in self.table)
            suffix = ";tail=linear" if self.tail == "linear" else ""
            return f"table:{body}{suffix}"
        return f"closure:{self.inner.spec_string()}"


def _natural(digits: str) -> Optional[int]:
    """The natural that ``digits`` spells in decimal digits, or None when it is
    empty, holds any other character or has more digits than Python converts."""
    try:
        return int(digits) if digits.isdecimal() else None
    except ValueError:
        return None


def _quoted(token: str) -> str:
    """``repr(token)`` for an error message, cut to its first 40 characters and
    followed by the token's length when longer, so the message stays short."""
    text = repr(token)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(token)} characters)"


def parse_growth_spec(text: str, _base: int = 0) -> GrowthFn:
    """Parse a growth spec string.

    Grammar: ``id`` | ``linear:<m>`` | ``exp2`` | ``table:<v0>,<v1>,...[;tail=const|linear]``
    | ``closure:<spec>``.  Malformed input raises :class:`GrowthSpecError`
    with the 0-based position of the offending character.
    """
    if text == "id":
        return GrowthFn.identity()
    if text == "exp2":
        return GrowthFn.exp2()
    if text.startswith("linear:"):
        body = text[len("linear:"):]
        pos = _base + len("linear:")
        slope = _natural(body)
        if slope is None:
            raise GrowthSpecError(f"expected a slope integer, got {_quoted(body)}", pos)
        try:
            return GrowthFn.linear(slope)
        except InvalidArgumentError as exc:
            raise GrowthSpecError(str(exc), pos) from None
    if text.startswith("table:"):
        return _parse_table(text, _base)
    if text.startswith("closure:"):
        inner = parse_growth_spec(text[len("closure:"):], _base + len("closure:"))
        return GrowthFn.closure(inner)
    raise GrowthSpecError(f"unrecognized growth spec {_quoted(text)}", _base)


def _parse_table(text: str, base: int) -> GrowthFn:
    body_off = len("table:")
    body = text[body_off:]
    head, sep, tail_part = body.partition(";")
    values = []
    offset = base + body_off
    if not head:
        raise GrowthSpecError("table needs at least one value", offset)
    for token in head.split(","):
        value = _natural(token)
        if value is None:
            raise GrowthSpecError(f"expected a table value, got {_quoted(token)}", offset)
        values.append(value)
        offset += len(token) + 1
    tail = "const"
    if sep:
        tail_off = base + body_off + len(head) + 1
        if not tail_part.startswith("tail="):
            raise GrowthSpecError("expected tail=const or tail=linear", tail_off)
        tail = tail_part[len("tail="):]
        if tail not in ("const", "linear"):
            raise GrowthSpecError(f"unknown tail rule {_quoted(tail)}", tail_off + len("tail="))
    try:
        return GrowthFn.from_table(values, tail=tail)
    except InvalidArgumentError as exc:
        raise GrowthSpecError(str(exc), base + body_off) from None


# ---------------------------------------------------------------------------
# Gap analysis
# ---------------------------------------------------------------------------


def gap_size(h: Sequence[int]) -> int:
    """Largest difference between consecutive elements; 1 when ``|H| <= 1``."""
    if len(h) <= 1:
        return 1
    return max(b - a for a, b in zip(h, h[1:]))


def _class_runs(pairs: Iterable[tuple], tails: bool = False) -> Iterator[tuple]:
    """Yield ``(color, g, lo, hi, start, end)`` for each *record* g-run of each
    color's class h, in one pass over ``(position, color)`` pairs in increasing
    position: a maximal run ``h[lo..hi]``, from ``start`` to ``end``, whose gaps
    are all <= g and include one equal to g, longer than every earlier g-run.
    With ``tails``, every run that holds a class's last element is yielded too.

    Every window with gap size g lies inside exactly one g-run.  The g-runs are
    disjoint and close in position order, so the longest one and the first one
    longer than any bound are records, yielded in position order.  The 1-runs
    are the stretches of consecutive positions, each counted whole; a singleton
    is a record only as a class's first element.  A g-run with g >= 2 joins
    whole stretches: each color that occurs keeps a stack of its open runs,
    strictly decreasing in gap size.  A stretch after a gap unlike the top one
    steps the stack inline: a larger gap closes each run below it.  After the
    last pair, each color takes one more step, to a stretch at ``_TOP``, which
    closes all its runs and records no 1-run.
    """
    # color -> [first and last position of its last stretch, class size so far,
    #           top gap of its stack, longest 1-run, stack of (g, lo, start), best]
    state: dict = {}
    color, first, last = None, -2, -2
    for x, c in chain(pairs, _close_out(state)):
        if c == color and x == last + 1:
            last = x
            continue
        if color is not None:
            s = state.get(color)
            if s is None:
                s = state[color] = [first, last, 0, _TOP, 0, [(_TOP, 0, first)], {}]
            elif first - s[1] != s[3]:
                head, end, hi, top, _, stack, best = s
                g = first - end
                lo, start = hi - (end - head + 1), head     # the last stretch is the open 1-run
                if tails and g == _TOP:                     # the close-out yields every run
                    best = {}
                    yield color, 1, lo, hi - 1, start, end
                while top < g:
                    _, lo, start = stack.pop()
                    if hi - lo > best.get(top, 0):
                        best[top] = hi - lo
                        yield color, top, lo, hi - 1, start, end
                    top = stack[-1][0]
                if g != top:
                    stack.append((g, lo, start))
                s[3] = g                                    # the new top
            k, n = last - first + 1, s[2]       # NaN at _TOP, so no 1-run record
            s[0], s[1], s[2] = first, last, n + k
            if k > s[4]:
                s[4] = k
                yield color, 1, n, n + k - 1, first, last
        color, first, last = c, x, x


def _close_out(state: dict) -> Iterator[tuple]:
    """After the input, a stretch at ``_TOP`` for each color of ``state``, then an end mark.
    The colors are listed when the input ends: a color first seen in the last stretch has
    a single stretch, so no open run to close."""
    yield from zip(repeat(_TOP), list(state))
    yield None, None


def _runs(h: Sequence[int]) -> Iterator[tuple]:
    """``(g, lo, hi)`` of each record g-run of the set ``h``, singletons aside."""
    return ((g, lo, hi) for _, g, lo, hi, _, _ in _class_runs(zip(h, repeat(0))) if hi > lo)


def max_run_size(h: Sequence[int], d: int) -> int:
    """Size of the largest window of ``h`` whose gaps are all <= ``d``.

    Equals the maximum size over *all* subsets of ``h`` with gap size <= d:
    a gap-bounded subset is contained in the window spanning it, and that
    window is no worse (checked against subset enumeration in the tests).
    Returns 0 for the empty set.
    """
    if d < 1:
        raise InvalidArgumentError("gap bound must be >= 1")
    if not h:
        return 0
    return max((hi - lo + 1 for g, lo, hi in _runs(h) if g <= d), default=1)
