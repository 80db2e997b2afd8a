"""Exact computation and bracketing of coloring thresholds by pruned DFS.

Both searches share one engine: colorings are extended position by
position, and a branch is cut as soon as the newest assignment makes an
extension invalid.  Validity is monotone (windows and progressions only
grow under extension), so every node of the pruned tree is itself a valid
coloring of its depth, valid colorings are closed under truncation, and
the threshold equals the maximum tree depth plus one.  The walk keeps the
node it tries in three locals, its depth, next color and highest color, and
each ancestor as those two colors on one flat stack of ints.

A walk reports why it stopped, and every reader takes that from it: None
when the capped tree was walked to its end, ``"cap"`` when a coloring
reached the length cap, ``"nodes"`` or ``"deadline"`` when a budget ran out.
One driver runs every search, each confirmation included (a search capped
at n): it checks the arguments, walks the tree, and audits the deepest
coloring by the rule that grew it as it builds the outcome.  That builder
is the only one: a cache hit is audited and rebuilt by it too.

Symmetry is broken by first-use color canonicalization: a branch may
introduce color c only when colors ``0..c-1`` are already in use.  Every
coloring is a palette permutation of a canonical one and validity is
permutation invariant, so outcomes are unchanged (only node counts drop).
Every search is canonical; only the private ``_run_tree`` can walk the
full tree, as the tests' reference.

For the Brown-number search each color class keeps one persistent linked
stack with a level per element: the gap G that ends at the element, its
index, a bound, the level below and its position.  Followed down from the
top, the links pass only the suffix maxima of the gap sequence, with gaps
strictly decreasing from the bottom up.  The windows that end at a new
element take, as their gap size, the suffix maximum over their start, and
since f is nondecreasing only the longest window at each level can fail:
``count <= f(G) + B``, where B is the index of the level below.  Each
level's bound is the minimum of ``f(G) + B`` over it and every level
beneath it, so a push with gap g walks past the levels whose gap is at
most g, computes one bound and accepts exactly when the class is shorter
than it.  A rejected push changes nothing and a pop is one list pop.
The first element of a class sits on a bottom level, whose gap and bound
are infinite, and passes when ``1 <= f(1)``.  Budgets are read from a
per-rule limit table that holds f(d) for each gap d seen so far, so f is
evaluated only at gaps that occur.

The progression rule keeps, per color, an int whose bit p is set when that
color at p would complete an l-term progression: a push is rejected by one
bit test and changes nothing.  On accept, the differences q whose earlier
terms all carry the color are the AND of its class (stride 1) and one mask
per stride 2..min(l - 2, 4), past four strides confirmed by a slice compare,
and each forbids pos + q.  A push saves the bits it set, shifted down by its
position, and its pop XORs them back, so memory grows linearly with depth.

The star search counts a repeated subtree instead of walking it again.  A
node's future depends only on the highest color its children may try and,
per class, its age and the live levels of its stack read relative to
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

``jobs > 1`` splits the walk into that many parts, each a pool task that
walks the tree from the root: the k-th node (from 0, in DFS order) at
depth ``_SPLIT_DEPTH`` roots a subtree of part ``k mod jobs``, a leaf to
the others.  Only part 0 counts the push attempts above that depth, but
each part spends them from its budget share.  A part builds star keys
only in its own subtrees, whose counts are exact, and keeps one table for
all of them.  The least of the parts' longest records is one walk's.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import chain, product
from math import inf
from multiprocessing import Pool
from typing import Optional

from .checker import (BRUTEFORCE_LENGTH_CAP, WitnessCertificate, _nondecreasing,
                      has_large_homogeneous_bruteforce, is_witness)
from .constructions import brown_bounds
from .core import Coloring, GrowthFn
from .errors import InvalidArgumentError
from .progressions import ap_partition_check


@dataclass(frozen=True)
class SearchBudget:
    """Resources for a search: node and time caps (None means unlimited)
    and the parts of the split, one pool task each."""

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


class _StarRule:
    """Incremental per-class star checking for a nondecreasing growth fn.

    ``levels[c]`` has a level per element of class c, the latest last:
    ``(gap, index, bound, below, position)``."""

    __slots__ = ("_f", "_limits", "levels")

    def __init__(self, f: GrowthFn, palette: int):
        self._f = f
        self._limits: dict[int, int] = {1: f(1)}
        self.levels = [[] for _ in range(palette)]

    def try_push(self, pos: int, color: int) -> bool:
        levels = self.levels[color]
        if levels:
            below = levels[-1]
            g = pos - below[4]
            while below[0] <= g:
                below = below[3]
            limit = self._limits.get(g)
            if limit is None:
                limit = self._limits[g] = self._f(g)
            bound = limit + below[1]
            if bound > below[2]:
                bound = below[2]
            n = len(levels)
            if n >= bound:
                return False
            levels.append((g, n, bound, below, pos))
        elif 1 > self._limits[1]:
            return False
        else:
            levels.append((inf, 0, inf, None, pos))
        return True

    def pop(self, color: int) -> None:
        self.levels[color].pop()


_AP_STRIDES = 4   # the most strides whose masks the progression rule keeps


class _ApRule:
    """Reject assignments that complete a monochromatic l-term progression.

    ``forbidden[c]`` has bit p set when color c at p would complete one.
    The masks are reversed, p of stride k at bit ``tops[k] - p // k``, so one
    right shift lines the terms pos - kq up as bit q: ``classes[c]`` is stride
    1, color c's class, and strides 2..min(l - 2, 4) keep a mask per residue."""

    __slots__ = ("values", "forbidden", "classes", "strides", "rest", "tops", "saved")

    def __init__(self, l: int, values, palette: int):
        self.values, self.saved = values, []
        # l == 1: every position is forbidden; l == 2: every earlier position counts
        self.forbidden = [-1 if l == 1 else 0] * palette
        self.classes = [-1 if l == 2 else 0] * palette
        ks = range(2, min(l - 2, _AP_STRIDES) + 1)
        self.strides = [[(k, [0] * k) for k in ks] for _ in range(palette)]
        self.rest = [[c] * (l - 2 - _AP_STRIDES) for c in range(palette)]   # terms past stride 4
        self.tops = [None] + [63 // k for k in range(1, _AP_STRIDES + 1)]

    def try_push(self, pos: int, color: int) -> bool:
        forbidden = self.forbidden[color]
        ahead = forbidden >> pos
        if ahead & 1:
            return False
        if pos > self.tops[1]:
            self._grow()
        tops = self.tops
        shift = tops[1] - pos
        self.classes[color] = mask = self.classes[color] ^ 1 << shift
        # bit q >= 1 of cand: the terms pos - kq of every masked stride k have this color
        cand = mask >> shift & -2
        for k, row in self.strides[color]:
            shift = tops[k] - pos // k
            res = pos % k
            row[res] = mask = row[res] | 1 << shift
            cand &= mask >> shift
        if cand and self.rest[color]:
            cand = self._confirm(pos, color, cand & ~ahead)
        new = cand & ~ahead
        self.forbidden[color] = forbidden ^ new << pos
        self.saved.append(new)
        return True

    def _confirm(self, pos: int, color: int, cand: int) -> int:
        """The bits q of ``cand`` whose terms pos - kq for k > 4 have ``color``."""
        values, rest = self.values, self.rest[color]
        span = len(rest) + _AP_STRIDES
        bits = bin(cand & (2 << pos // span) - 1)[:1:-1]   # bits[q] is bit q, q <= pos // span
        return sum(1 << q for q in range(1, len(bits)) if bits[q] == "1"
                   and values[pos - span * q:pos - _AP_STRIDES * q:q] == rest)

    def pop(self, color: int) -> None:
        pos = len(self.values)   # the value has left ``values``
        self.forbidden[color] ^= self.saved.pop() << pos
        tops = self.tops
        self.classes[color] ^= 1 << tops[1] - pos
        for k, row in self.strides[color]:
            row[pos % k] ^= 1 << (tops[k] - pos // k)

    def _grow(self) -> None:
        """Double the width: masks move up to their new tops, full ones stay full."""
        tops = [None] + [(2 * self.tops[1] + 1) // k for k in range(1, _AP_STRIDES + 1)]
        up = tops[1] - self.tops[1]
        self.classes = [mask << up if mask >= 0 else ~(~mask << up) for mask in self.classes]
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
# the depth of the subtree roots that a split deals out to its parts
_SPLIT_DEPTH = 10


def _star_key(rule, depth, limit):
    """A star node's exact state up to a color permutation: the highest
    color its children may try, then per used class its age, read from the
    top level's position, and (gap, base - index) for each live level,
    ``base`` being the top level's index.  A class ends at its bottom level,
    the one gap that is infinite, so the flat tuple is exact.  The depth,
    the sum of the class sizes, and each bound, ``min(f(G) + B, bound)`` of
    the level below, follow from the rest."""
    entries = []
    for levels in rule.levels:
        if levels:
            level = levels[-1]
            base = level[1]
            entry = [depth - level[4]]
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


def _run_tree(rule_desc, palette, cap, max_nodes, deadline, canonical=True,
              part=(0, 1)) -> _DfsStats:
    """Iterative DFS of part ``part=(i, n)`` of the split, lowest color first,
    by ``("star", f)`` on f's monotone form or ``("ap", l)``.  ``best`` tracks
    the first (hence lexicographically least) deepest valid coloring.  The node
    being tried is ``depth``, next color ``c`` and highest color ``lim``; each
    ancestor keeps its highest color on ``stack`` and resumes at its child's color
    plus one.  ``c = palette`` leaves a node at once."""
    index, parts = part
    never = 1 << 62
    last = cap if cap is not None else never
    values: list[int] = []
    # a canonical walk tries color c only at depth c or deeper, after c attempts
    reach = (min(palette, last, never if max_nodes is None else max_nodes + 1) if canonical
             else palette)
    rule = (_StarRule(rule_desc[1].monotone, reach) if rule_desc[0] == "star"
            else _ApRule(rule_desc[1], values, reach))
    if last <= 0:
        return _DfsStats((), 0, "cap")
    stop, last_color = None, palette - 1
    lim = 0 if canonical else last_color
    stack: list[int] = []
    # the record shares its first ``agree`` positions with the live path
    best: list[int] = []
    nodes = depth = c = best_len = agree = 0
    try_push, rule_pop = rule.try_push, rule.pop
    push_value, pop_value, push_lim, pop_lim = values.append, values.pop, stack.append, stack.pop
    # the node cap and the clock are both looked at when nodes reaches check_at
    check_at = 0
    # a push to leaf_depth reaches the cap or, above the split, a root; ``turn``
    # roots come before this part's next, and ``own`` counts its subtrees' attempts
    top_leaf = leaf_depth = min(last, _SPLIT_DEPTH) if parts > 1 else last
    turn, own = index, 0
    # key -> push attempts of a walked subtree; a key built at depth <= table_depth
    # waits in ``open_keys`` as (depth, key, nodes at the push) until it is walked,
    # as a walked root does with the key None.  No key is built above the split
    table, table_gap = ({}, _TABLE_GAP) if rule_desc[0] == "star" else (None, never)
    gap = table_gap if parts == 1 else never
    table_depth = -gap
    open_keys, open_depth = [], -1
    saved = spent = build_at = 0
    while True:
        if nodes >= check_at:
            stop = ("nodes" if max_nodes is not None and nodes >= max_nodes else
                    "deadline" if deadline is not None and time.monotonic() > deadline else None)
            if stop is not None:
                break
            check_at = nodes + 2048 if max_nodes is None else min(nodes + 2048, max_nodes)
        if c > lim:
            if not depth:
                break
            rule_pop(c := pop_value())
            lim, c = pop_lim(), c + 1
            depth -= 1
            if agree > depth:
                agree = depth
            if depth < open_depth:
                _, key, start = open_keys.pop()
                open_depth = open_keys[-1][0] if open_keys else -1
                if key is None:   # back above the split
                    own += nodes - start
                    leaf_depth, gap, table_depth = top_leaf, never, -never
                elif nodes - start >= _TABLE_MIN:
                    if len(table) >= _TABLE_SIZE:
                        table.clear()
                    table[key] = nodes - start
            continue
        nodes += 1
        if not try_push(depth, c):
            c += 1
            continue
        push_value(c)
        depth += 1
        push_lim(lim)
        lim = c + 1 if c == lim and c < last_color else lim
        c = 0
        if depth > best_len:
            best[agree:] = values[agree:]
            best_len = agree = depth
            table_depth = depth - gap
        elif depth <= table_depth and nodes >= build_at:
            key = _star_key(rule, depth, lim)
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
                c = palette
                continue
            open_keys.append((depth, key, nodes))
            open_depth = depth
        if depth >= leaf_depth:
            if depth >= last:
                stop = "cap"
                break
            if turn:   # another part's root: a leaf
                turn -= 1
                c = palette
                continue
            turn = parts - 1
            open_keys.append((depth, None, nodes))
            open_depth = depth
            leaf_depth, gap, table_depth = last, table_gap, best_len - table_gap
    if index:   # part 0 alone counts the attempts above the split
        nodes = own + (nodes - open_keys[0][2] if open_keys else 0)
    return _DfsStats(tuple(best), nodes, stop)


def _fold(runs) -> _DfsStats:
    """Merge a split's parts: nodes summed, the longest record (the least of
    equal ones) and the first stop of the cap, the deadline and the budget."""
    return _DfsStats(min((run.best for run in runs), key=lambda best: (-len(best), best)),
                     sum(run.nodes for run in runs),
                     min((run.stop for run in runs if run.stop), default=None,
                         key=("cap", "deadline", "nodes").index))


def _threshold(rule_desc, palette, cap, upper, budget) -> SearchOutcome:
    """Check the arguments, walk the tree, or a pool task per part of the split
    with an equal share of the node budget each (the pool starts no more processes
    than parts or CPUs), and report what :func:`_outcome` builds from the record."""
    kind, param = rule_desc
    if palette < 1 or kind == "ap" and param < 1 or cap is not None and cap < 0:
        raise InvalidArgumentError("r and l must be >= 1 and the length cap a natural")
    started = time.monotonic()
    budget = budget or SearchBudget()
    jobs = budget.jobs
    share = None if budget.max_nodes is None else budget.max_nodes // jobs
    deadline = None if budget.max_seconds is None else started + budget.max_seconds
    if jobs == 1:
        stats = _run_tree(rule_desc, palette, cap, share, deadline)
    else:
        tasks = [(rule_desc, palette, cap, share, deadline, True, (i, jobs)) for i in range(jobs)]
        with Pool(processes=min(jobs, os.cpu_count() or 1)) as pool:
            stats = _fold(pool.starmap(_run_tree, tasks))
    outcome = _outcome(rule_desc, palette, stats.best, stats.nodes,
                       time.monotonic() - started, stats.stop, upper)
    if outcome is None:
        raise RuntimeError(f"search returned a coloring that breaks its {kind} rule; "
                           "this is a bug in the incremental checks")
    return outcome


def _outcome(rule_desc, palette, best, nodes, wall, stop=None, upper=None):
    """The outcome of a search, or of a cache hit, whose deepest coloring is ``best``,
    built alike for both: exact when the walk ended (``stop`` None), else a bracket up to
    ``upper``; None when ``best`` fails the audit of its rule (star: a certificate on the
    growth's monotone form; progression: no ``l``-term progression)."""
    if palette < 1:   # no search runs on no colors, so neither may a hit
        return None
    witness = Coloring(palette=palette, values=best)
    kind, param = rule_desc
    certificate = is_witness(witness, param.monotone) if kind == "star" else None
    if (certificate is None) if kind == "star" else ap_partition_check(witness, param):
        return None
    lower = len(best) + 1
    exact = stop is None
    return SearchOutcome(kind="exact" if exact else "bracketed",
                         value=lower if exact else None, lower=lower,
                         upper=lower if exact else upper, witness=witness,
                         certificate=certificate, nodes_explored=nodes, wall_time=wall,
                         used_closure=kind == "star" and not param.nondecreasing, stop=stop)


def _confirmed(outcome: SearchOutcome) -> ConfirmOutcome:
    """A search capped at n as a confirmation: True when it walked to its end,
    False when a coloring reached n, None when the budget ran out first."""
    return ConfirmOutcome(result={None: True, "cap": False}.get(outcome.stop),
                          nodes=outcome.nodes_explored)


# ---------------------------------------------------------------------------
# Public searches
# ---------------------------------------------------------------------------


def brown_number(f: GrowthFn, r: int, n_cap: Optional[int] = None,
                 budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Least n such that every r-coloring of ``0..n-1`` has a homogeneous
    set H with ``|H| > f(gap_size(H))``.

    Exact when the pruned DFS exhausts the witness tree within budget and
    below ``n_cap``; otherwise a bracket whose lower end is one past the
    longest witness found and whose upper end is the least of the
    closed-form bounds (None when they overflow), which also caps the
    length when ``n_cap`` is None.  Growth functions without the
    nondecreasing flag are replaced by their monotone closure, which bounds
    the original quantity from above; the outcome is flagged ``used_closure``.
    """
    formula = min((b for b in brown_bounds(f, r) if b is not None), default=None)
    return _threshold(("star", f), r, formula if n_cap is None else n_cap, formula, budget)


def vdw_number(r: int, l: int, n_cap: Optional[int] = None,
               budget: Optional[SearchBudget] = None) -> SearchOutcome:
    """Least n such that every r-coloring of ``0..n-1`` contains a
    monochromatic l-term arithmetic progression.

    Same engine and outcome semantics as :func:`brown_number`; no
    closed-form upper bound is evaluated, so brackets carry ``upper=None``.
    """
    return _threshold(("ap", l), r, n_cap, None, budget)


def confirm_no_witness(n: int, f: GrowthFn, r: int,
                       budget: Optional[SearchBudget] = None) -> ConfirmOutcome:
    """Audit the upper half of an exact claim: does NO valid coloring of
    length n exist?  Runs the complete canonicalized DFS capped at depth n;
    an indeterminate (None) result flags budget exhaustion."""
    return _confirmed(_threshold(("star", _nondecreasing(f)), r, n, None, budget))


def confirm_no_ap_witness(n: int, r: int, l: int,
                          budget: Optional[SearchBudget] = None) -> ConfirmOutcome:
    """Progression-side audit: does NO r-coloring of length n avoid a
    monochromatic l-term progression?  Same semantics as
    :func:`confirm_no_witness`."""
    return _confirmed(_threshold(("ap", l), r, n, None, budget))


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


def brown_number_bruteforce(f: GrowthFn, r: int, n_limit: int = BRUTEFORCE_LENGTH_CAP) -> int:
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
