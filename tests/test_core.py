import re
from itertools import accumulate, repeat
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brownlab.constructions import (extract_homogeneous_ps, ladder, ladder_lower_bound_check,
                                    ps_generate, tower)
from brownlab.core import (Coloring, GrowthFn, _class_runs, _natural, _quoted, gap_size,
                           max_run_size, parse_growth_spec)
from brownlab.errors import GrowthSpecError, InvalidArgumentError
from brownlab.search import brown_number_bruteforce, vdw_number_bruteforce


def finite_set(elements):
    """A finite set as the library represents one: a sorted, duplicate-free tuple."""
    return tuple(sorted(set(elements)))


def windows(h):
    """Reference enumeration: every contiguous run h[j..k] of h, each once."""
    return [tuple(h[j:k + 1]) for j in range(len(h)) for k in range(j, len(h))]


small_sets = st.lists(st.integers(min_value=0, max_value=40),
                      max_size=10).map(finite_set)


# ---------------------------------------------------------------------------
# gap_size / windows
# ---------------------------------------------------------------------------


def test_gap_size_degenerate_sets_score_one():
    assert gap_size(()) == 1
    assert gap_size((7,)) == 1


def test_gap_size_is_max_consecutive_difference():
    assert gap_size((0, 1, 4)) == 3
    assert gap_size((0, 3, 6, 9)) == 3
    assert gap_size((0, 1)) == 1


def test_windows_enumerates_every_run_once():
    got = list(windows((0, 1, 5)))
    assert got == [(0,), (0, 1), (0, 1, 5), (1,), (1, 5), (5,)]
    assert list(windows(())) == []
    assert list(windows((2, 9))) == [(2,), (2, 9), (9,)]


@given(small_sets)
def test_windows_count_is_triangular(h):
    ws = list(windows(h))
    n = len(h)
    assert len(ws) == n * (n + 1) // 2
    assert len(set(ws)) == len(ws)


@given(small_sets)
def test_max_window_gap_size_recovers_gap_size(h):
    # over windows of size >= 2, the max gap size equals the set's gap size
    sizes = [gap_size(w) for w in windows(h) if len(w) >= 2]
    if sizes:
        assert max(sizes) == gap_size(h)


# ---------------------------------------------------------------------------
# color classes
# ---------------------------------------------------------------------------


def test_color_class_splits_reference_coloring():
    c1 = Coloring(2, tuple(int(ch) for ch in "0011001100110011"))
    assert c1.classes() == [(0, 1, 4, 5, 8, 9, 12, 13), (2, 3, 6, 7, 10, 11, 14, 15)]
    assert Coloring(1, (0, 0, 0)).classes() == [(0, 1, 2)]


def test_coloring_invariants():
    with pytest.raises(InvalidArgumentError):
        Coloring(2, (0, 2))
    with pytest.raises(InvalidArgumentError):
        Coloring(0, (0,))
    assert Coloring(0, ()).length == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 4), st.lists(st.integers(-3, 6), max_size=12))
def test_coloring_accepts_exactly_the_values_in_its_palette(palette, values):
    if palette < 0 and not values:
        message = "palette must be a natural"
    elif values and palette < 1:
        message = "palette must be >= 1 for a nonempty coloring"
    elif values and (min(values) < 0 or max(values) >= palette):
        message = "coloring values must lie in 0..palette-1"
    else:
        assert Coloring(palette, values).values == tuple(values)
        return
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        Coloring(palette, values)


@pytest.mark.parametrize("palette", [2.5, 2.0, True, "2", None])
@pytest.mark.parametrize("values", [(), (0, 1)], ids=["empty", "two-positions"])
def test_coloring_palette_must_be_an_int(palette, values):
    with pytest.raises(InvalidArgumentError, match="palette must be an int"):
        Coloring(palette, values)


def test_classes_matches_color_class():
    c = Coloring(3, (0, 2, 1, 2, 0, 0))
    assert c.classes() == [tuple(x for x, v in enumerate(c.values) if v == i)
                           for i in range(3)]


# ---------------------------------------------------------------------------
# max_run_size
# ---------------------------------------------------------------------------


def test_max_run_size_examples():
    assert max_run_size((0, 1, 2, 10, 11), 1) == 3
    assert max_run_size((0, 3, 6, 9), 2) == 1
    assert max_run_size((0, 1, 4, 5, 8, 9, 12, 13), 3) == 8
    assert max_run_size((), 5) == 0
    assert [max_run_size((0, 2, 4, 5), d) for d in (1, 2)] == [2, 4]


def test_max_run_size_rejects_zero_bound():
    with pytest.raises(InvalidArgumentError):
        max_run_size((0, 1), 0)


def _max_subset_size_bruteforce(h, d):
    """Independent oracle: largest subset with gap size <= d, all 2^|h| masks."""
    best = 0
    for mask in range(1, 1 << len(h)):
        subset = [h[i] for i in range(len(h)) if mask >> i & 1]
        if gap_size(subset) <= d and len(subset) > best:
            best = len(subset)
    return best


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=30), max_size=9).map(finite_set),
       st.integers(min_value=1, max_value=6))
def test_max_run_size_equals_subset_bruteforce(h, d):
    expected = _max_subset_size_bruteforce(h, d) if h else 0
    assert max_run_size(h, d) == expected


@given(small_sets)
def test_max_run_size_monotone_and_saturating(h):
    if not h:
        return
    gs = gap_size(h)
    previous = 0
    for d in range(1, gs + 2):
        cur = max_run_size(h, d)
        assert cur == max(len(w) for w in windows(h) if gap_size(w) <= d)
        assert cur >= previous
        previous = cur
    assert max_run_size(h, gs) == len(h)


# ---------------------------------------------------------------------------
# the run kernel against windows
# ---------------------------------------------------------------------------


def record_runs_bruteforce(pairs):
    """``{(color, g): [(lo, hi, start, end), ...]}`` by enumerating every window of
    every class: the windows with gap size g that no gap <= g extends (the g-runs),
    kept when longer than every earlier g-run of the class, in position order."""
    classes = {}
    for x, c in pairs:
        classes.setdefault(c, []).append(x)
    records = {}
    for c, h in classes.items():
        index = {x: i for i, x in enumerate(h)}
        best = {}
        for w in windows(h):                # by start, then end
            lo, hi = index[w[0]], index[w[-1]]
            g = max(map(sub, w[1:], w), default=1)      # gap_size(w), in C
            if lo > 0 and h[lo] - h[lo - 1] <= g or hi + 1 < len(h) and h[hi + 1] - h[hi] <= g:
                continue
            if len(w) > best.get(g, 0):
                best[g] = len(w)
                records.setdefault((c, g), []).append((lo, hi, w[0], w[-1]))
    return records


def _kernel_records(pairs):
    records = {}
    for c, g, lo, hi, start, end in _class_runs(pairs):
        records.setdefault((c, g), []).append((lo, hi, start, end))
    return records


# gaps that fall to 1 and rise again, so that a class's stack holds several open runs
_MOUNTAINS = st.lists(st.tuples(st.integers(1, 6), st.booleans()), max_size=14).map(
    lambda peaks: [g for top, rise in peaks
                   for g in (range(1, top + 1) if rise else range(top, 0, -1))])


@st.composite
def _mountain_colorings(draw):
    """Up to 300 positions of 1-6 colors: color 0 on a mountain walk, the rest
    filled from a short cycle of colors, which may hold 0 too."""
    colors = draw(st.integers(1, 6))
    walk = set(accumulate(draw(_MOUNTAINS), initial=draw(st.integers(0, 4))))
    n = min(300, max(walk) + 1 + draw(st.integers(0, 6)))
    fill = draw(st.lists(st.integers(0, colors - 1), min_size=1, max_size=6))
    return [0 if x in walk else fill[x % len(fill)] for x in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mountain_colorings(),
                 st.integers(1, 6).flatmap(lambda k: st.lists(st.integers(0, k - 1),
                                                              max_size=300))))
@example([0, 0, 1, 0, 1, 1, 0])
@example([0] * 300)
@example([])
def test_class_runs_yields_the_record_windows_of_each_class(values):
    assert _kernel_records(enumerate(values)) == record_runs_bruteforce(enumerate(values))


@settings(max_examples=300, deadline=None)
@given(_MOUNTAINS, st.integers(0, 4))
@example([5, 4, 3, 2, 1, 2, 3, 4, 5, 6], 0)
@example([3, 2, 1, 1, 2, 3, 2, 1, 6], 1)
def test_class_runs_yields_the_record_windows_of_a_set(gaps, start):
    h = tuple(accumulate(gaps, initial=start))
    pairs = list(zip(h, repeat(0)))
    assert _kernel_records(pairs) == record_runs_bruteforce(pairs)


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------


def test_growth_evaluation():
    assert [GrowthFn.identity()(n) for n in (0, 1, 5)] == [0, 1, 5]
    assert [GrowthFn.linear(3)(n) for n in (0, 1, 4)] == [0, 3, 12]
    assert [GrowthFn.exp2()(n) for n in (0, 1, 5)] == [1, 2, 32]
    t = GrowthFn.from_table((5, 7, 7))
    assert [t(n) for n in (0, 2, 9)] == [5, 7, 7]
    lin_tail = GrowthFn.from_table((1, 3), tail="linear")
    assert [lin_tail(n) for n in (0, 1, 2, 5)] == [1, 3, 5, 11]


def test_growth_nondecreasing_flags():
    assert GrowthFn.identity().nondecreasing
    assert GrowthFn.linear(2).nondecreasing
    assert GrowthFn.exp2().nondecreasing
    assert GrowthFn.from_table((1, 2, 2)).nondecreasing
    assert not GrowthFn.from_table((3, 1, 2)).nondecreasing
    assert GrowthFn.closure(GrowthFn.from_table((3, 1, 2))).nondecreasing


def test_growth_construction_errors():
    with pytest.raises(InvalidArgumentError):
        GrowthFn.linear(0)
    with pytest.raises(InvalidArgumentError):
        GrowthFn.from_table(())
    with pytest.raises(InvalidArgumentError):
        GrowthFn.from_table((5,), tail="linear")
    with pytest.raises(InvalidArgumentError):
        GrowthFn.from_table((5, 3), tail="linear")
    with pytest.raises(InvalidArgumentError):
        GrowthFn.exp2()(-1)


ONE_BLOCK = ps_generate(Coloring(2, (1, 1)), 1)   # the one element 0


@pytest.mark.parametrize("call", [
    lambda: ladder(-1),
    lambda: tower(-1, 0),
    lambda: ladder_lower_bound_check(1).implied_lower_bound(0),
    lambda: ONE_BLOCK.block_of_index(1),
    lambda: ps_generate(Coloring(2, (1, 1)), 0),
    lambda: extract_homogeneous_ps(0, 1, (0,), ONE_BLOCK, 1),
    lambda: extract_homogeneous_ps(1, 0, (0,), ONE_BLOCK, 1),
    lambda: extract_homogeneous_ps(1, 1, (0,), ONE_BLOCK, 0),
    lambda: GrowthFn("bogus"),
    lambda: GrowthFn.from_table([-1]),
    lambda: GrowthFn.from_table([1], tail="x"),
    lambda: GrowthFn("closure"),
    lambda: brown_number_bruteforce(GrowthFn.identity(), 0),
    lambda: vdw_number_bruteforce(2, 0),
], ids=["ladder-stage", "tower", "implied-lower-bound-r", "block-of-index", "ps-generate-blocks",
        "extract-d", "extract-e", "extract-n", "growth-kind", "table-value", "tail-rule",
        "closure-inner", "brown-bruteforce-r", "vdw-bruteforce-l"])
def test_each_argument_check_raises_invalid_argument(call):
    with pytest.raises(InvalidArgumentError):
        call()


def test_monotone_closure_examples():
    assert GrowthFn.closure(GrowthFn.exp2())(2) == 7
    assert GrowthFn.closure(GrowthFn.linear(1))(3) == 6


@given(st.sampled_from([GrowthFn.exp2(), GrowthFn.linear(2),
                        GrowthFn.from_table((3, 1, 2)),
                        GrowthFn.from_table((0, 5), tail="linear"),
                        GrowthFn.closure(GrowthFn.closure(GrowthFn.from_table((3, 1, 2))))]),
       st.integers(min_value=0, max_value=12))
def test_monotone_closure_dominates_pointwise(f, n):
    g = GrowthFn.closure(f)
    assert g.nondecreasing
    assert f.monotone == (f if f.nondecreasing else g)
    assert (f.monotone is f) == f.nondecreasing
    assert g(n) >= f(n)
    assert g(n) == sum(f(i) for i in range(n + 1))


CANONICAL_SPECS = [
    "id", "exp2", "linear:1", "linear:7",
    "table:1,2,3", "table:0,4;tail=linear", "table:9",
    "closure:exp2", "closure:table:3,1,2", "closure:closure:linear:2",
]


@pytest.mark.parametrize("spec", CANONICAL_SPECS)
def test_growth_spec_round_trip(spec):
    f = parse_growth_spec(spec)
    assert f.spec_string() == spec
    assert parse_growth_spec(f.spec_string()) == f


@pytest.mark.parametrize("bad,position", [
    ("", 0),
    ("linear:", 7),
    ("linear:0", 7),
    ("linear:x", 7),
    ("table:", 6),
    ("table:1,a", 8),
    ("table:1;tail=quadratic", 13),
    ("closure:nope", 8),
    ("exp3", 0),
    ("linear:\u00b2", 7),
    pytest.param("linear:" + "9" * 5000, 7, id="linear-5000-digits"),
    ("table:1,\u00b2", 8),
    ("table:1,2;foo", 10),
    ("table:3,1;tail=linear", 6),
])
def test_growth_spec_parse_errors_carry_position(bad, position):
    with pytest.raises(GrowthSpecError) as err:
        parse_growth_spec(bad)
    assert err.value.position == position


@pytest.mark.parametrize("text,value", [
    ("0", 0), ("007", 7), ("\u0663", 3), ("", None), (" 3", None), ("3 ", None),
    ("1_0", None), ("+2", None), ("-1", None), ("\u00b2", None), ("9" * 5000, None),
], ids=["zero", "leading-zeros", "arabic-indic", "empty", "leading-space",
        "trailing-space", "underscore", "plus", "minus", "superscript", "5000-digits"])
def test_natural_reads_decimal_digits_only(text, value):
    assert _natural(text) == value


def test_quoted_cuts_a_long_token_to_a_prefix_and_its_length():
    assert _quoted("foo") == "'foo'"
    assert _quoted("x" * 38) == repr("x" * 38)
    assert _quoted("x" * 39) == repr("x" * 39)[:40] + "... (39 characters)"
    assert len(_quoted("\u0000" * 10_000)) < 80


def test_growth_spec_explicit_const_tail_accepted():
    f = parse_growth_spec("table:1,2;tail=const")
    assert f == GrowthFn.from_table((1, 2))
    assert f.spec_string() == "table:1,2"


# ---------------------------------------------------------------------------
# package exports
# ---------------------------------------------------------------------------


def test_every_export_resolves_once():
    import ast

    import brownlab
    assert len(brownlab.__all__) == len(set(brownlab.__all__))
    missing = [name for name in brownlab.__all__ if not hasattr(brownlab, name)]
    assert missing == []
    # conversely, every public name the package imports from a submodule is exported
    with open(brownlab.__file__) as source:
        tree = ast.parse(source.read())
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    unlisted = sorted(name for name in bound
                      if not name.startswith("_") and name not in brownlab.__all__)
    assert unlisted == []
