"""Exact computation and bracketing of coloring thresholds by pruned DFS.

Both searches share one engine: colorings are extended position by
position, and a branch is cut as soon as the newest assignment makes an
extension invalid.  Validity is monotone (windows and progressions only
grow under extension), so every node of the pruned tree is itself a valid
coloring of its depth, valid colorings are closed under truncation, and
the threshold equals the maximum tree depth plus one.

A walk reports why it stopped, and every reader takes that from it: None
when the capped tree was walked to its end, ``"cap"`` when a coloring
reached the length cap, ``"nodes"`` or ``"deadline"`` when a budget ran out.

Symmetry is broken by first-use color canonicalization: a branch may
introduce color c only when colors ``0..c-1`` are already in use.  Every
coloring is a palette permutation of a canonical one and validity is
permutation invariant, so outcomes are unchanged (only node counts drop).
Every search is canonical; only the private ``_run_tree`` can walk the
full tree, as the tests' reference.

For the Brown-number search each color class keeps the suffix maxima of
its gap sequence as a persistent linked stack: each level is a gap G, the
index of G's latest occurrence, a bound and the level below, with gaps
strictly decreasing from the bottom up.  The windows that end at a new
element take, as their gap size, the suffix maximum over their start, and
since f is nondecreasing only the longest window at each level can fail:
``count <= f(G) + B``, where B is the index of the level below.  Each
level's bound is the minimum of ``f(G) + B`` over it and every level
beneath it, so a push with gap g walks past the levels whose gap is at
most g, computes one bound and accepts exactly when the class is shorter
than it.  A rejected push changes nothing and a pop is two list pops.
The first element of a class sits on a sentinel bottom level and passes
when ``1 <= f(1)``.  Budgets are read from a per-rule limit table that
holds f(d) for each gap d seen so far, so f is evaluated only at gaps
that occur.

The progression rule keeps, per color, an int whose bit p is set when
that color at p would complete a monochromatic l-term progression, so a
push is rejected by one bit test and a rejected push changes nothing.
The work is done on accept: the differences q whose earlier terms all
carry the pushed color are the AND of one shifted bitmask per stride
1..min(l - 2, 4), and each such q forbids pos + q.  Past four strides
the survivors are confirmed by a slice compare, so a color keeps at most
ten masks whatever l is.  A push saves the bits it set, shifted down by
its position, and its pop XORs them back, so memory grows linearly with
the depth.

The star search counts a repeated subtree instead of walking it again.  A
node's future depends only on the highest color its children may try and,
per class, its age and the live levels of its gap stack read relative to
its last index (the class sizes fix the depth), so colorings that differ
by a color permutation or in dead levels share one exact key.  A table maps a walked
subtree's key to its push attempts, which a push onto that key adds to
``nodes`` before it backtracks.  Nothing in a repeat is deeper than the
record, so the value, the witness and ``nodes`` (the push attempts of the
canonical tree, which ``max_nodes`` caps) are those of the plain walk.

The deepest coloring found so far (the record) is a list that shares its
first ``agree`` positions with the live path.  A pop lowers ``agree`` to
the path length, and a new record copies only the positions past
``agree``, after which the two agree in full.  Each pushed position is
copied at most once, so keeping the record costs O(nodes) and a deep,
narrow search runs in time linear in its nodes, not quadratic in its
depth.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import chain, product
from multiprocessing import Pool
from typing import Optional

from .checker import (WitnessCertificate, _nondecreasing, has_large_homogeneous_bruteforce,
                      is_witness)
from .constructions import brown_bounds
from .core import Coloring, GrowthFn
from .errors import InvalidArgumentError
from .progressions import ap_partition_check


@dataclass(frozen=True)
class SearchBudget:
    """Resources for a search: node and time caps (None means unlimited)
    and the worker processes of the subtree split."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None
    jobs: int = 1

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise InvalidArgumentError("node budget must be a natural")
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise InvalidArgumentError("time budget must be >= 0 seconds")
        if self.jobs < 1:
            raise InvalidArgumentError("jobs must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a threshold search.

    ``exact`` outcomes carry the proven value (a witness of length
    ``value - 1`` exists and the full tree shows none of length ``value``).
    ``bracketed`` outcomes guarantee ``lower <= true value`` and, when an
    upper bound is known, ``true value <= upper``.  The longest witness
    found always ships with the outcome; for growth-threshold searches it
    is additionally certified.  ``nodes_explored`` counts the push attempts
    of the canonical tree, those of a repeated star subtree included.
    ``stop`` is why the search stopped (None for ``exact``, else ``"cap"``,
    ``"nodes"`` or ``"deadline"``); the CLI's bracket note names it.
    """

    kind: str                                  # "exact" | "bracketed"
    value: Optional[int]
    lower: int
    upper: Optional[int]
    witness: Coloring
    certificate: Optional[WitnessCertificate]
    nodes_explored: int
    wall_time: float
    used_closure: bool = False
    stop: Optional[str] = None


@dataclass(frozen=True)
class ConfirmOutcome:
    """Result of a no-witness confirmation; ``result`` is None when the
    budget ran out before the tree was exhausted."""

    result: Optional[bool]
    nodes: int


# ---------------------------------------------------------------------------
# Extension rules
# ---------------------------------------------------------------------------


# the bottom level of every class's gap stack: (gap, index, bound, below)
_BOTTOM = (float("inf"), 0, float("inf"), None)


class _StarRule:
    """Incremental per-class star checking for a nondecreasing growth fn."""

    __slots__ = ("_f", "_limits", "elems", "levels")

    def __init__(self, f: GrowthFn, palette: int):
        self._f = f
        self._limits: dict[int, int] = {1: f(1)}
        self.elems = [[] for _ in range(palette)]
        self.levels = [[] for _ in range(palette)]

    def try_push(self, pos: int, color: int) -> bool:
        elems = self.elems[color]
        if elems:
            g = pos - elems[-1]
            levels = self.levels[color]
            below = levels[-1]
            while below[0] <= g:
                below = below[3]
            limit = self._limits.get(g)
            if limit is None:
                limit = self._limits[g] = self._f(g)
            bound = limit + below[1]
            if bound > below[2]:
                bound = below[2]
            n = len(elems)
            if n >= bound:
                return False
            levels.append((g, n, bound, below))
        else:
            if 1 > self._limits[1]:
                return False
            self.levels[color].append(_BOTTOM)
        elems.append(pos)
        return True

    def pop(self, color: int) -> None:
        self.elems[color].pop()
        self.levels[color].pop()


# the most strides whose bitmasks the progression rule keeps per color
_AP_STRIDES = 4


class _ApRule:
    """Reject assignments that complete a monochromatic l-term progression.

    ``forbidden[c]`` has bit p set when color c at p would complete one.
    The stride-k masks of a color are kept per residue and reversed:
    position p is bit ``tops[k] - p // k`` of mask ``p % k``, so one right
    shift lines the terms pos - kq up as bit q.  ``pop`` is called once
    the value has left ``values``, so ``len(values)`` is the position.
    """

    __slots__ = ("values", "span", "forbidden", "strides", "rest", "width", "tops", "saved")

    def __init__(self, l: int, values, palette: int):
        self.values = values
        self.span = l - 2
        # l == 1: every position is forbidden from the start
        self.forbidden = [-1 if l == 1 else 0] * palette
        ks = range(1, min(l - 2, _AP_STRIDES) + 1)
        self.strides = [[(k, [0] * k) for k in ks] for _ in range(palette)]
        # the terms that the stride masks do not cover, as one slice
        self.rest = [[c] * (l - 2 - _AP_STRIDES) for c in range(palette)]
        self.width = 64
        self.tops = [None] + [(self.width - 1) // k for k in ks]
        self.saved: list[int] = []

    def try_push(self, pos: int, color: int) -> bool:
        forbidden = self.forbidden[color]
        ahead = forbidden >> pos
        if ahead & 1:
            return False
        if pos >= self.width:
            self._grow()
        tops = self.tops
        # bit q >= 1 of cand: the terms pos - kq of every masked stride k have
        # this color; with no stride (l == 2) every later position qualifies
        cand = -2
        for k, row in self.strides[color]:
            shift = tops[k] - pos // k
            res = pos % k
            mask = row[res] | 1 << shift
            row[res] = mask
            cand &= mask >> shift
        if self.span > _AP_STRIDES and cand:
            values, span, rest = self.values, self.span, self.rest[color]
            # bits[q] is bit q, up to the last q whose first term is >= 0
            bits = bin(cand & ~ahead)[:1:-1][:pos // span + 1]
            cand = sum(1 << q for q in range(1, len(bits)) if bits[q] == "1"
                       and values[pos - span * q:pos - _AP_STRIDES * q:q] == rest)
        new = cand & ~ahead
        self.forbidden[color] = forbidden ^ new << pos
        self.saved.append(new)
        return True

    def pop(self, color: int) -> None:
        pos = len(self.values)
        self.forbidden[color] ^= self.saved.pop() << pos
        tops = self.tops
        for k, row in self.strides[color]:
            row[pos % k] ^= 1 << (tops[k] - pos // k)

    def _grow(self) -> None:
        """Double the width; every reversed mask moves up to its new top."""
        self.width *= 2
        tops = [None] + [(self.width - 1) // k for k in range(1, len(self.tops))]
        for rows in self.strides:
            for k, row in rows:
                row[:] = [mask << (tops[k] - self.tops[k]) for mask in row]
        self.tops = tops


# ---------------------------------------------------------------------------
# DFS engine
# ---------------------------------------------------------------------------


# The table is used only at nodes _TABLE_GAP or more levels above the record,
# while key builds cost at most one _TABLE_SHARE-th of the walked attempts
# plus the attempts that hits saved (a key element counts as _KEY_COST
# attempts); it stores subtrees of _TABLE_MIN attempts or more, and is
# emptied when it holds _TABLE_SIZE entries.
_TABLE_GAP = 8
_TABLE_SHARE = 128
_KEY_COST = 1 / 4
_TABLE_MIN = 128
_TABLE_SIZE = 1 << 15


def _star_key(rule, depth, limit):
    """A star node's exact state up to a color permutation: the highest
    color its children may try, then per used class its age and (gap,
    base - index) for each level of its live gap stack, ``base`` being the
    top level's index.  A class ends at its bottom level, the one gap that
    is infinite, so the flat tuple is exact.  The depth, the sum of the
    class sizes, and each bound, ``min(f(G) + B, bound)`` of the level
    below, follow from the rest."""
    entries = []
    for elems, levels in zip(rule.elems, rule.levels):
        if elems:
            level = levels[-1]
            base = level[1]
            entry = [depth - elems[-1]]
            while level is not None:
                entry += level[0], base - level[1]
                level = level[3]
            entries.append(entry)
    entries.sort()
    return tuple(chain((limit,), *entries))


@dataclass(frozen=True)
class _DfsStats:
    best: tuple
    nodes: int
    stop: Optional[str]      # None (walked to the end) | "cap" | "nodes" | "deadline"


def _run_tree(rule_desc, palette, cap, max_nodes, deadline, prefix=(), canonical=True,
              collect=None) -> _DfsStats:
    """Iterative DFS over valid extensions of ``prefix``; lowest color first.

    ``rule_desc`` is ``("star", f, r)`` or ``("ap", l)``.  ``best`` tracks
    the first (hence lexicographically least) deepest valid coloring.  With
    ``collect`` set, depth-``cap`` nodes are gathered as subtree roots
    instead of stopping the search (so its stop is never ``"cap"``).
    """
    values: list[int] = []
    if rule_desc[0] == "star":
        rule = _StarRule(rule_desc[1], rule_desc[2])
    else:
        rule = _ApRule(rule_desc[1], values, palette)
    for pos, c in enumerate(prefix):
        if not rule.try_push(pos, c):
            raise InvalidArgumentError("search prefix is not a valid coloring")
        values.append(c)
    nodes = 0
    stop = None
    # the record shares its first ``agree`` positions with the live path
    best = list(values)
    best_len = agree = len(values)
    if cap is not None and best_len >= cap:
        if collect is not None:
            collect.append(tuple(best))
        return _DfsStats(tuple(best), nodes, None if collect is not None else "cap")

    frames = [0]
    last_color = palette - 1
    # the highest color each depth may try, already clamped to the palette
    used = max(prefix) + 1 if prefix else 0
    color_limits = [min(used, last_color) if canonical else last_color]
    try_push, rule_pop = rule.try_push, rule.pop
    push_value, pop_value = values.append, values.pop
    # the node cap and the clock are both looked at when nodes reaches check_at
    check_at = 0
    # key -> push attempts of a walked subtree; a key built at depth <= table_depth
    # waits in ``open_keys`` as (depth, key, nodes at the push) until it is walked
    table = {} if rule_desc[0] == "star" and collect is None else None
    gap = _TABLE_GAP if table is not None else 1 << 62   # else no depth is <= table_depth
    table_depth = best_len - gap
    open_keys: list[tuple] = []
    open_depth = -1
    saved = spent = build_at = 0
    while frames:
        if nodes >= check_at:
            stop = ("nodes" if max_nodes is not None and nodes >= max_nodes else
                    "deadline" if deadline is not None and time.monotonic() > deadline else None)
            if stop is not None:
                break
            check_at = nodes + 2048 if max_nodes is None else min(nodes + 2048, max_nodes)
        c = frames[-1]
        limit_c = color_limits[-1]
        if c > limit_c:
            frames.pop()
            if frames:
                rule_pop(pop_value())
                color_limits.pop()
                depth = len(values)
                if agree > depth:
                    agree = depth
                if depth < open_depth:
                    _, key, start = open_keys.pop()
                    open_depth = open_keys[-1][0] if open_keys else -1
                    if nodes - start >= _TABLE_MIN:
                        if len(table) >= _TABLE_SIZE:
                            table.clear()
                        table[key] = nodes - start
            continue
        frames[-1] = c + 1
        nodes += 1
        if try_push(len(values), c):
            push_value(c)
            depth = len(values)
            if depth > best_len:
                best[agree:] = values[agree:]
                best_len = agree = depth
                table_depth = depth - gap
            elif depth <= table_depth and nodes >= build_at:
                key = _star_key(rule, depth,
                                c + 1 if c == limit_c and c < last_color else limit_c)
                spent += len(key) * _KEY_COST
                count = table.get(key)
                if count is not None:
                    # a repeat of a walked subtree: count its attempts, then backtrack
                    if max_nodes is not None and nodes + count > max_nodes:
                        count = max_nodes - nodes
                    nodes += count
                    saved += count
                build_at = saved + (spent - saved) * _TABLE_SHARE
                if count is not None:
                    color_limits.append(last_color)
                    frames.append(palette)
                    continue
                open_keys.append((depth, key, nodes))
                open_depth = depth
            if cap is not None and depth >= cap:
                if collect is None:
                    stop = "cap"
                    break
                collect.append(tuple(values))
                # a leaf: its spent frame makes the next step backtrack
                color_limits.append(last_color)
                frames.append(palette)
                continue
            color_limits.append(c + 1 if c == limit_c and c < last_color else limit_c)
            frames.append(0)
    return _DfsStats(tuple(best), nodes, stop)


def _fold(runs) -> _DfsStats:
    """Merge walks listed in DFS order: their nodes summed, the first longest
    record, and the first stop of the cap, the deadline and the node budget."""
    stops = {run.stop for run in runs}
    return _DfsStats(max(runs, key=lambda run: len(run.best)).best,
                     sum(run.nodes for run in runs),
                     next((stop for stop in ("cap", "deadline", "nodes") if stop in stops), None))


def _run_parallel(rule_desc, palette, cap, budget, deadline) -> _DfsStats:
    """Static frontier split: a probe extends each prefix of a level by one
    position until a level reaches the cap (the search's answer), depth 12
    or enough prefixes, then a worker explores the subtree of each.  The
    probe and the workers share the one deadline and the one node budget,
    the workers splitting what the probe left.  Prefixes come in DFS (lex)
    order, so the first longest record is the lexicographically least.  The
    split depends on ``jobs`` alone; the pool starts no more processes than
    there are prefixes or CPUs."""
    runs, level, nodes = [], [()], 0
    while cap is None or len(level[0]) < cap:
        if len(level[0]) == 12 or len(level) >= 4 * budget.jobs or len(level) > 5000:
            break
        frontier: list[tuple] = []
        for prefix in level:
            left = None if budget.max_nodes is None else budget.max_nodes - nodes
            runs.append(_run_tree(rule_desc, palette, len(prefix) + 1, left, deadline,
                                  prefix, collect=frontier))
            nodes += runs[-1].nodes
            if runs[-1].stop is not None:
                return _fold(runs)
        if not frontier:  # the whole tree is shallower than this level
            return _fold(runs)
        level = frontier
    else:
        return _DfsStats(level[0], nodes, "cap")
    share = None if budget.max_nodes is None else (budget.max_nodes - nodes) // len(level)
    tasks = [(rule_desc, palette, cap, share, deadline, prefix) for prefix in level]
    with Pool(processes=min(budget.jobs, len(level), os.cpu_count() or 1)) as pool:
        return _fold(runs + pool.starmap(_run_tree, tasks))


def _dispatch(rule_desc, palette, cap, budget) -> _DfsStats:
    budget = budget or SearchBudget()
    deadline = None
    if budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds
    if budget.jobs > 1:
        return _run_parallel(rule_desc, palette, cap, budget, deadline)
    return _run_tree(rule_desc, palette, cap, budget.max_nodes, deadline)


def _threshold(rule_desc, palette, cap, upper, budget, audit,
               used_closure=False) -> SearchOutcome:
    """Search, audit the deepest coloring and report the threshold; ``audit``
    returns the witness's certificate (or None) and raises on a bad witness."""
    started = time.monotonic()
    stats = _dispatch(rule_desc, palette, cap, budget)
    wall = time.monotonic() - started
    witness = Coloring(palette=palette, values=stats.best)
    certificate = audit(witness)
    lower = len(stats.best) + 1
    exact = stats.stop is None
    return SearchOutcome(kind="exact" if exact else "bracketed",
                         value=lower if exact else None, lower=lower,
                         upper=lower if exact else upper, witness=witness,
                         certificate=certificate, nodes_explored=stats.nodes,
                         wall_time=wall, used_closure=used_closure, stop=stats.stop)


def _confirm(rule_desc, palette, n, budget) -> ConfirmOutcome:
    """Complete canonicalized DFS capped at depth n: True when no valid
    coloring of length n exists, None when the budget ran out first."""
    stats = _dispatch(rule_desc, palette, n, budget)
    return ConfirmOutcome(result={None: True, "cap": False}.get(stats.stop), nodes=stats.nodes)


# ---------------------------------------------------------------------------
# Public searches
# ---------------------------------------------------------------------------


def formula_upper_bound(f: GrowthFn, r: int) -> Optional[int]:
    """Best closed-form bound available for (f, r): the least of
    :func:`~brownlab.constructions.brown_bounds`, None when neither applies."""
    return min((b for b in brown_bounds(f, r) if b is not None), default=None)


def brown_number(f: GrowthFn, r: int, n_cap: Optional[int] = None,
                 budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Least n such that every r-coloring of ``0..n-1`` has a homogeneous
    set H with ``|H| > f(gap_size(H))``.

    Exact when the pruned DFS exhausts the witness tree within budget and
    below ``n_cap``; otherwise a bracket whose lower end is one past the
    longest witness found and whose upper end comes from the closed-form
    bounds (None when they overflow).  Growth functions without the
    nondecreasing flag are replaced by their monotone closure, which bounds
    the original quantity from above; the outcome is flagged ``used_closure``.
    """
    if r < 1 or n_cap is not None and n_cap < 0:
        raise InvalidArgumentError("r must be >= 1 and the length cap a natural")
    used_closure = not f.nondecreasing
    f = f.monotone
    formula = formula_upper_bound(f, r)
    cap = n_cap if n_cap is not None else formula

    def audit(witness):
        certificate = is_witness(witness, f)
        if certificate is None:
            raise RuntimeError("search returned a coloring that fails certification; "
                               "this is a bug in the incremental checker")
        return certificate

    return _threshold(("star", f, r), r, cap, formula, budget, audit, used_closure)


def vdw_number(r: int, l: int, n_cap: Optional[int] = None,
               budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Least n such that every r-coloring of ``0..n-1`` contains a
    monochromatic l-term arithmetic progression.

    Same engine and outcome semantics as :func:`brown_number`; no
    closed-form upper bound is evaluated, so brackets carry ``upper=None``.
    """
    if r < 1 or l < 1 or n_cap is not None and n_cap < 0:
        raise InvalidArgumentError("r and l must be >= 1 and the length cap a natural")

    def audit(witness):
        if ap_partition_check(witness, l) is not None:
            raise RuntimeError("search returned a coloring containing a monochromatic "
                               "progression; this is a bug in the completion check")
        return None

    return _threshold(("ap", l), r, n_cap, None, budget, audit)


def confirm_no_witness(n: int, f: GrowthFn, r: int,
                       budget: Optional[SearchBudget] = None) -> ConfirmOutcome:
    """Audit the upper half of an exact claim: does NO valid coloring of
    length n exist?  Runs the complete canonicalized DFS capped at depth n;
    an indeterminate (None) result flags budget exhaustion."""
    if n < 0 or r < 1:
        raise InvalidArgumentError("n must be a natural and r >= 1")
    return _confirm(("star", _nondecreasing(f), r), r, n, budget)


def confirm_no_ap_witness(n: int, r: int, l: int,
                          budget: Optional[SearchBudget] = None) -> ConfirmOutcome:
    """Progression-side audit: does NO r-coloring of length n avoid a
    monochromatic l-term progression?  Same semantics as
    :func:`confirm_no_witness`."""
    if n < 0 or r < 1 or l < 1:
        raise InvalidArgumentError("n must be a natural, r and l >= 1")
    return _confirm(("ap", l), r, n, budget)


# ---------------------------------------------------------------------------
# Full-enumeration oracles
# ---------------------------------------------------------------------------


def _first_forced_length(r: int, n_limit: int, avoids) -> int:
    """Walk n upward over every r-coloring of n (the first color pinned to 0
    by palette symmetry) until none of them ``avoids`` the structure."""
    for n in range(1, n_limit + 1):
        for rest in product(range(r), repeat=n - 1):
            if avoids(Coloring(palette=r, values=(0,) + rest)):
                break
        else:
            return n
    raise InvalidArgumentError(f"no value found up to the enumeration limit {n_limit}")


def brown_number_bruteforce(f: GrowthFn, r: int, n_limit: int = 24) -> int:
    """Independent oracle: walk n upward, enumerating every r-coloring of n
    and testing each via subset enumeration, until all colorings have a
    large homogeneous set.  Everything but the pinned first color is
    exhaustive.  Usable for tiny r and n only.
    """
    if r < 1:
        raise InvalidArgumentError("r must be >= 1")
    return _first_forced_length(
        r, n_limit, lambda c: has_large_homogeneous_bruteforce(c, f) is None)


def vdw_number_bruteforce(r: int, l: int, n_limit: int = 16) -> int:
    """Independent oracle for the progression threshold, same shape as
    :func:`brown_number_bruteforce`."""
    if r < 1 or l < 1:
        raise InvalidArgumentError("r and l must be >= 1")
    return _first_forced_length(r, n_limit, lambda c: ap_partition_check(c, l) is None)
