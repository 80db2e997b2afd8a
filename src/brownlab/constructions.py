"""Explicit constructions and bound evaluators.

This module materializes and verifies the library's reference objects:

* the alternating-block coloring ``diag_prefix(d, n)`` whose color classes admit
  no gap-d-bounded homogeneous set larger than d;
* the recursive witness ladder: stage s is a coloring on ``n_s`` positions
  with ``2**s`` colors, every class of which satisfies the star condition
  for the base-2 exponential growth function, so stage s certifies that
  the corresponding Brown number exceeds ``n_s``;
* closed-form upper bounds (a linear-growth bound and the generic
  recursion ``n_1 = f(1) + 2``, ``n_{r+1} = (r+1) * f(n_r) + 1``);
* iterated exponentials (towers) under a bit cap, which also guards the
  recursion bound against values that cannot fit in memory;
* generators for piecewise-syndetic prefixes, the syndetic/thick
  decomposition, and the block-selection extraction that pulls a
  gap-bounded homogeneous subset out of an index set.

All integer results are exact (Python ints are arbitrary precision).
"""

from __future__ import annotations

import bisect
import decimal
import functools
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import gt, le, ne, sub
from typing import Optional, Sequence

from .checker import star_violation
from .colorfile import LENGTH_CAP, periodic
from .core import Coloring, GrowthFn, _runs, max_run_size
from .errors import InsufficientPrefixError, InvalidArgumentError, MagnitudeError

LADDER_MATERIALIZE_CAP = 2   # stages beyond this carry their length only
LADDER_LENGTH_CAP = 3        # n_s is not representable past stage 3
BIT_CAP = 1 << 25            # largest exponent evaluated as 2**n
_LEAF_BITS = 4_000           # Decimal(int) is quadratic, cheap below this
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded])


def decimal_str(n: int) -> str:
    """Exact decimal rendering of a natural, fast at millions of bits.

    Binary splitting into the C ``decimal`` module, whose multiplication is
    subquadratic: n's bit halves recombine as ``hi * 2**k + lo`` in a context
    that traps any rounding.  The stage-3 ladder length (~2 million bits)
    renders in about 0.1 s, a bound at the 32-million-bit cap in about 7 s.
    """
    if n < 0:
        raise InvalidArgumentError("decimal_str renders naturals only")
    if n.bit_length() <= _LEAF_BITS:   # Decimal, unlike str(int), has no digit limit
        return str(decimal.Decimal(n))

    @functools.cache
    def pow2(k: int) -> decimal.Decimal:
        if k == 0:
            return decimal.Decimal(1)
        half = pow2(k >> 1)
        return _EXACT.multiply(_EXACT.multiply(half, half), 2 if k & 1 else 1)

    def convert(x: int, bits: int) -> decimal.Decimal:
        if bits <= _LEAF_BITS:
            return decimal.Decimal(x)
        k = bits >> 1
        hi = x >> k
        return _EXACT.fma(convert(hi, bits - k), pow2(k), convert(x - (hi << k), k))

    return str(convert(n, n.bit_length()))


# ---------------------------------------------------------------------------
# Alternating-block coloring
# ---------------------------------------------------------------------------


def diag_prefix(d: int, n: int) -> Coloring:
    """The length-n prefix of the width-d alternating-block 2-coloring: blocks
    of d consecutive positions alternate between colors 0 and 1; n <= ``LENGTH_CAP``."""
    if d < 1 or not 0 <= n <= LENGTH_CAP:
        raise InvalidArgumentError(f"block width must be >= 1 and the length in 0..{LENGTH_CAP}")
    return periodic(2, (0,) * min(d, n) + (1,) * min(d, max(n - d, 0)), n)   # d is unbounded


def diag_bound_check(d: int, n: int) -> int:
    """Max size of a homogeneous set with gaps <= d in the length-n prefix.

    Measured, not assumed: both color classes are extracted and scanned for
    their longest d-bounded window.  Blocks of one color are d apart plus
    one, so the measured value is exactly d whenever a full block fits,
    which is why a prefix of at least 2d positions is required.
    """
    coloring = diag_prefix(d, n)
    if n < 2 * d:
        raise InsufficientPrefixError(f"need a prefix of at least {2 * d} positions for width {d}")
    return max(max_run_size(h, d) for h in coloring.classes())


# ---------------------------------------------------------------------------
# The witness ladder
# ---------------------------------------------------------------------------


def ladder_lengths(up_to: int) -> list:
    """Exact stage lengths n_0..n_up_to: n_0 = 2, n_{s+1} = 2 * n_s * 2**n_s."""
    if up_to > LADDER_LENGTH_CAP:
        raise MagnitudeError(
            f"stage {up_to} length is not representable "
            f"(stage {LADDER_LENGTH_CAP} already has ~2 million bits)")
    lengths = [2]
    for _ in range(up_to):
        n = lengths[-1]
        lengths.append(2 * n * (1 << n))
    return lengths


@dataclass(frozen=True)
class LadderStage:
    """Stage s of the witness ladder: palette ``2**s``, length ``n_s``.

    ``coloring`` is materialized only when the stage fits the cap; larger
    stages carry their exact length only.
    """

    index: int
    length: int
    palette: int
    coloring: Optional[Coloring]

    @property
    def materialized(self) -> bool:
        return self.coloring is not None


def ladder(s: int) -> LadderStage:
    """Build stage s.  Stages past the materialization cap come back with
    their length only (flagged via ``materialized``); stages whose length is
    not even representable raise :class:`MagnitudeError`."""
    if s < 0:
        raise InvalidArgumentError("stage index must be a natural")
    lengths = ladder_lengths(s)
    coloring = None
    if s <= LADDER_MATERIALIZE_CAP:
        coloring = periodic(1, (0, 0), 2)
        # stage t beside its copy shifted by 2**t, repeated: a block starts at 0, ends >= 2**t
        for t in range(s):
            v = coloring.values
            coloring = periodic(2 << t, v + tuple(x + (1 << t) for x in v), lengths[t + 1])
    return LadderStage(index=s, length=lengths[s], palette=1 << s, coloring=coloring)


@dataclass(frozen=True)
class LadderClaim:
    color: int
    size_ok: bool
    star_ok: bool
    span_ok: bool


@dataclass(frozen=True)
class LadderVerifyReport:
    claims: tuple
    failures: tuple

    @property
    def all_ok(self) -> bool:
        return not self.failures


def ladder_verify(stage: LadderStage) -> LadderVerifyReport:
    """Check, for every color class of stage s:

    1. the class holds exactly ``n_s / 2**s`` positions;
    2. the class satisfies the star condition for base-2 exponential growth;
    3. the span identity ``n_s == max - min + n_0 + ... + n_{s-1} + 1``.
    """
    s = stage.index
    if stage.coloring is None:
        raise MagnitudeError(f"stage {s} exceeds the materialization cap, cannot scan its classes")
    exp2 = GrowthFn.exp2()
    pad = sum(ladder_lengths(s)[:s]) + 1
    claims = []
    failures = []
    for color, h in enumerate(stage.coloring.classes()):
        size_ok = len(h) == stage.length // stage.palette
        star_ok = star_violation(h, exp2) is None
        span_ok = bool(h) and stage.length == h[-1] - h[0] + pad
        claims.append(LadderClaim(color, size_ok, star_ok, span_ok))
        for name, ok in (("class size", size_ok), ("star condition", star_ok),
                         ("span identity", span_ok)):
            if not ok:
                failures.append(f"color {color}: {name} fails")
    return LadderVerifyReport(claims=tuple(claims), failures=tuple(failures))


# ---------------------------------------------------------------------------
# Bound evaluators
# ---------------------------------------------------------------------------


def _guard(f: GrowthFn, n: int) -> None:
    """Refuse evaluations past the caps: 2**n bits, or (n + 1)**k terms for k nested closures."""
    terms = n + 1
    while f.kind == "closure":
        if terms > BIT_CAP:
            raise MagnitudeError(f"closure at {n} sums more than {BIT_CAP} terms")
        f, terms = f.inner, terms * (n + 1)
    if f.kind == "exp2" and n > BIT_CAP:
        raise MagnitudeError(f"2**n with n of {n.bit_length()} bits exceeds "
                             f"the {BIT_CAP}-bit cap")


def upper_bound_seq(f: GrowthFn, r: int) -> int:
    """The recursion bound: ``n_1 = f(1) + 2``, ``n_{r+1} = (r+1) * f(n_r) + 1``.

    Exact for all r whose terms fit the bit cap; a term past it raises
    :class:`MagnitudeError`.  Growth functions without the nondecreasing
    flag are replaced by their monotone closure first (the result then
    bounds the quantity for the original function from above, since the
    closure dominates it pointwise).
    """
    if r < 1:
        raise InvalidArgumentError("r must be >= 1")
    f = f.monotone
    n = f(1) + 2
    for k in range(2, r + 1):
        _guard(f, n)
        n = k * f(n) + 1
    return n


def ardal_bound(m: int, r: int) -> int:
    """Closed-form bound for linear growth with slope m: ``r * (2**(m*r) - m*r) + 1``.

    An exponent ``m*r`` past ``BIT_CAP`` raises :class:`MagnitudeError`."""
    if m < 1 or r < 1:
        raise InvalidArgumentError("m and r must be >= 1")
    if m * r > BIT_CAP:
        raise MagnitudeError(f"2**{m * r} exceeds the {BIT_CAP}-bit cap")
    return r * ((1 << (m * r)) - m * r) + 1


def brown_bounds(f: GrowthFn, r: int) -> tuple:
    """``(ardal, recursion)``: :func:`ardal_bound` when f is id or linear and
    :func:`upper_bound_seq`, each None where it does not apply (neither does
    below one color) or overflows."""
    if r < 1:
        return None, None
    def capped(bound, *args):
        try:
            return bound(*args)
        except MagnitudeError:
            return None

    m = {"id": 1, "linear": f.slope}.get(f.kind)
    return (None if m is None else capped(ardal_bound, m, r)), capped(upper_bound_seq, f, r)


def tower(k: int, n: int) -> int:
    """Iterated exponential: height 0 is n, each level is 2 to the previous.

    Results whose bit count would exceed ``BIT_CAP`` raise
    :class:`MagnitudeError` whose message names the offending (k, n).
    """
    if k < 0 or n < 0:
        raise InvalidArgumentError("tower arguments must be naturals")
    v = n
    for _ in range(k):
        if v >= BIT_CAP:
            raise MagnitudeError(f"tower of height {k} over {n} exceeds the {BIT_CAP}-bit cap")
        v = 1 << v
    return v


@dataclass(frozen=True)
class LowerBoundEntry:
    stage: int
    ladder_length: int
    tower_value: int

    @property
    def holds(self) -> bool:
        return self.ladder_length >= self.tower_value


@dataclass(frozen=True)
class LadderLowerBoundReport:
    """Ladder lengths dominate the height-s towers, so the exponential-growth
    Brown number at ``r`` colors exceeds the tower of height ``floor(log2 r)``:
    chasing ``B(r) >= B(2**s) > n_s >= tower(s)`` with ``s = floor(log2 r)``."""

    entries: tuple

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)

    def implied_lower_bound(self, r: int) -> tuple:
        """For r colors: (stage s used, the tower value the Brown number exceeds)."""
        if r < 1:
            raise InvalidArgumentError("r must be >= 1")
        s = min(r.bit_length() - 1, len(self.entries) - 1)
        return s, self.entries[s].tower_value


def ladder_lower_bound_check(s_max: int) -> LadderLowerBoundReport:
    """Verify ``n_s >= tower(s)`` exactly for all stages up to ``s_max <= 3``."""
    lengths = ladder_lengths(s_max)
    entries = tuple(LowerBoundEntry(s, lengths[s], tower(s, 1)) for s in range(s_max + 1))
    return LadderLowerBoundReport(entries=entries)


# ---------------------------------------------------------------------------
# Piecewise-syndetic constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockPrefix:
    """A strictly increasing prefix organized into blocks I_1, I_2, ...

    Block n holds exactly n elements whose internal gaps all equal the
    generating sequence's value at n, and consecutive blocks are separated
    by exactly n (the index of the earlier block).  ``bounds[n-1]`` is the
    (start, end) index slice of block n within ``elements``.
    """

    elements: tuple
    bounds: tuple

    def block_of_index(self, k: int) -> int:
        """1-based block number containing element index k."""
        if not 0 <= k < len(self.elements):
            raise InvalidArgumentError(f"index {k} outside the generated prefix")
        starts = [b[0] for b in self.bounds]
        return bisect.bisect_right(starts, k)


def ps_generate(gaps: Coloring, blocks: int) -> BlockPrefix:
    """Emit a piecewise-syndetic prefix whose block-n internal gaps equal
    ``gaps(n)``.

    Starts at 0 with the one-element block I_1; after block n the next
    element jumps by n and block n+1 continues with n gaps of ``gaps(n+1)``,
    so the elements are one running sum of those steps and block n spans
    indices ``[n(n-1)/2, n(n+1)/2)``.
    Needs ``gaps`` defined and >= 1 at every used position 2..blocks, and at
    most ``LENGTH_CAP`` elements in all.
    The emitted prefix satisfies ``x_k <= palette * k * (k+1) / 2``.
    """
    if blocks < 1 or blocks * (blocks + 1) // 2 > LENGTH_CAP:
        raise InvalidArgumentError(f"blocks must be >= 1 and hold at most {LENGTH_CAP} elements")
    if gaps.length <= blocks:
        raise InvalidArgumentError(
            f"gap coloring defines positions < {gaps.length}, but block {blocks} is requested")
    for n in range(2, blocks + 1):
        if gaps.values[n] < 1:
            raise InvalidArgumentError(f"gap value at {n} must be >= 1")
    steps = chain.from_iterable(chain((n,), repeat(gaps.values[n + 1], n))
                                for n in range(1, blocks))
    return BlockPrefix(elements=tuple(accumulate(steps, initial=0)),
                       bounds=tuple((n * (n - 1) // 2, n * (n + 1) // 2)
                                    for n in range(1, blocks + 1)))


def ps_problems(prefix: BlockPrefix, gaps: Coloring) -> list:
    """Check the emitted block structure against its contract in C-level passes; list failures."""
    problems = []
    xs = prefix.elements
    if any(map(le, islice(xs, 1, None), xs)):
        problems.append("elements are not strictly increasing")
    for n, (start, end) in enumerate(prefix.bounds, start=1):
        block = xs[start:end]
        if len(block) != n:
            problems.append(f"block {n} holds {len(block)} elements, expected {n}")
        if n >= 2:
            expect = gaps.values[n]
            if any(map(ne, map(sub, islice(block, 1, None), block), repeat(expect))):
                problems.append(f"block {n} internal gaps differ from {expect}")
            separation = block[0] - xs[prefix.bounds[n - 2][1] - 1]
            if separation != n - 1:
                problems.append(f"blocks {n - 1},{n} separated by {separation}, expected {n - 1}")
    r = gaps.palette            # r * k * (k + 1) // 2 is the running sum of r * k
    k = next(compress(count(), map(gt, xs, accumulate(range(0, r * len(xs), r)))), None)
    if k is not None:
        problems.append(f"growth bound fails at index {k}: {xs[k]}")
    return problems


def decompose_ps(x: Sequence[int], d: int, horizon: int):
    """Split a prefix into sorted tuples (syndetic-part, thick-part) with X = Y & Z.

    ``Z`` smears X right by 0..d-1 within the horizon (a thick prefix when X is
    piecewise d-syndetic); ``Y`` is X plus everything outside Z, built in one pass
    over the horizon, which is at most ``LENGTH_CAP``.  Each smear starts at offset
    0, so Z contains X and ``X == Y & Z`` holds on the whole horizon.
    """
    if d < 1 or not 0 <= horizon <= LENGTH_CAP:
        raise InvalidArgumentError(f"d must be >= 1 and the horizon a natural <= {LENGTH_CAP}")
    xset = set(x)
    if xset and (min(xset) < 0 or max(xset) >= horizon):
        raise InvalidArgumentError("x must lie within [0, horizon)")
    zset = {v + s for v in xset for s in range(min(d, horizon - v))}
    return tuple(v for v in range(horizon) if v in xset or v not in zset), tuple(sorted(zset))


def extract_homogeneous_ps(d: int, e: int, index_set: Sequence[int],
                           prefix: BlockPrefix, n: int) -> tuple:
    """The n-element subset with gaps <= e*d pulled out of ``{x_j : j in Y}``,
    as a sorted tuple of x-values.

    ``prefix`` must come from :func:`ps_generate` with all gap values <= d,
    and the index set Y must contain a window of ``k + 2n`` indices with
    gaps <= e, where ``k = 1 + 2 + ... + (2ne - 1)``.  The last 2n indices
    of that window map into at most two consecutive blocks; whichever block
    received n of them supplies the subset, whose gaps are then at most
    e*d because index steps of at most e stay within one block of
    internal gap at most d.
    """
    if d < 1 or e < 1 or n < 1:
        raise InvalidArgumentError("d, e and n must be >= 1")
    y = tuple(index_set)
    k = (2 * n * e - 1) * (2 * n * e) // 2
    needed = k + 2 * n
    # the first maximal e-bounded run of ``needed`` indices starts at the
    # least start of any such run, since needed >= 2
    start = min((lo for g, lo, hi in _runs(y) if g <= e and hi - lo + 1 >= needed),
                default=None)
    if start is None:
        raise InsufficientPrefixError(
            f"index set has no window of {needed} indices with gaps <= {e}")
    window = y[start:start + needed]
    if y[-1] >= len(prefix.elements):
        raise InsufficientPrefixError(
            f"index {y[-1]} outside the generated prefix of {len(prefix.elements)} elements")
    tail = window[k:]
    block_first = prefix.block_of_index(tail[0])
    first_end = prefix.bounds[block_first - 1][1]
    if all(j < first_end for j in tail[:n]):
        return tuple(prefix.elements[j] for j in tail[:n])
    if block_first >= len(prefix.bounds):
        raise InsufficientPrefixError("window tail spills past the last generated block")
    next_start, next_end = prefix.bounds[block_first]
    if not all(next_start <= j < next_end for j in tail[n:]):
        raise InsufficientPrefixError(
            "window tail does not fit two consecutive blocks; "
            "the prefix gaps likely exceed the declared bound")
    return tuple(prefix.elements[j] for j in tail[n:])

