import itertools
import json
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brownlab import search
from brownlab.checker import (WitnessCertificate, has_large_homogeneous_bruteforce,
                              star_violation, verify_certificate)
from brownlab.core import Coloring, GrowthFn, parse_growth_spec
from brownlab.constructions import ardal_bound, upper_bound_seq
from brownlab.errors import InvalidArgumentError, PreconditionError
from brownlab.progressions import ap_partition_check
from brownlab.search import (SearchBudget, brown_number,
                             brown_number_bruteforce, confirm_no_ap_witness,
                             confirm_no_witness, formula_upper_bound,
                             vdw_number, vdw_number_bruteforce, _ApRule, _run_tree,
                             _StarRule)

LIN1 = GrowthFn.linear(1)
LIN2 = GrowthFn.linear(2)
EXP2 = GrowthFn.exp2()


# ---------------------------------------------------------------------------
# brown_number, exact values
# ---------------------------------------------------------------------------


def test_single_color_thresholds():
    assert brown_number(LIN1, 1).value == 2
    assert brown_number(LIN2, 1).value == 3


def test_two_color_values_match_full_enumeration():
    for f in (LIN1, LIN2):
        outcome = brown_number(f, 2)
        assert outcome.kind == "exact"
        assert outcome.value == brown_number_bruteforce(f, 2)
    assert brown_number(LIN1, 2).value <= ardal_bound(1, 2)


def test_exact_outcomes_ship_sound_witnesses():
    for f, r in [(LIN1, 1), (LIN1, 2), (LIN2, 1), (LIN2, 2), (EXP2, 1), (EXP2, 2)]:
        outcome = brown_number(f, r)
        assert outcome.kind == "exact"
        assert outcome.witness.length == outcome.value - 1
        assert outcome.certificate is not None
        assert verify_certificate(outcome.certificate)
        confirmation = confirm_no_witness(outcome.value, f, r)
        assert confirmation.result is True


def test_rejects_zero_colors():
    with pytest.raises(InvalidArgumentError):
        brown_number(LIN1, 0)


def test_values_stay_below_closed_form_bounds():
    for f, m, r in [(LIN1, 1, 1), (LIN1, 1, 2), (LIN2, 2, 1), (LIN2, 2, 2)]:
        value = brown_number(f, r).value
        assert value <= ardal_bound(m, r)
        assert value <= upper_bound_seq(f, r)


def test_monotonicity_over_computed_values():
    grid = {}
    for name, f in (("lin1", LIN1), ("lin2", LIN2), ("exp2", EXP2)):
        for r in (1, 2):
            grid[name, r] = brown_number(f, r).value
    # nondecreasing in the number of colors
    for name in ("lin1", "lin2", "exp2"):
        assert grid[name, 1] <= grid[name, 2]
    # pointwise-dominated growth gives a threshold no smaller
    for r in (1, 2):
        assert grid["lin1", r] <= grid["lin2", r]
        assert grid["lin2", r] <= grid["exp2", r]


# B(linear:1, 4) = 35: the length-34 witness of
# ``brown --f linear:1 --r 4 --jobs 2 --budget-nodes 0``, which reported
# exact 35 after 109,056,116 nodes
LINEAR1_R4_CERTIFICATE = {
    "classes": [[[1, 1, 1], [2, 2, 2], [3, 3, 3], [5, 5, 5], [7, 7, 7], [9, 9, 9]],
                [[1, 1, 1], [2, 2, 2], [3, 3, 3], [5, 5, 5], [6, 6, 6], [9, 9, 9]],
                [[1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 4, 4], [8, 8, 8]],
                [[1, 1, 1], [2, 2, 2], [3, 3, 3], [5, 5, 5], [8, 8, 8]]],
    "coloring_rle": "0x1 1x1 0x1 2x1 1x1 3x1 1x1 2x1 3x1 0x1 2x1 0x1 2x1 3x1 0x1 1x1 "
                    "3x1 1x1 3x1 0x1 2x1 0x1 1x1 2x1 1x1 2x1 3x1 1x1 3x1 2x1 0x1 3x1 "
                    "0x1 1x1",
    "growth": "linear:1", "length": 34, "palette": 4}


def test_linear_one_four_colors_lower_half_is_certified():
    cert = WitnessCertificate.from_json(json.dumps(LINEAR1_R4_CERTIFICATE))
    assert verify_certificate(cert)
    assert (cert.coloring.palette, cert.growth_spec, cert.coloring.length) == (4, "linear:1", 34)


def test_non_monotone_growth_uses_closure():
    bumpy = GrowthFn.from_table((3, 1, 2))
    outcome = brown_number(bumpy, 1)
    assert outcome.used_closure
    direct = brown_number(GrowthFn.closure(bumpy), 1)
    assert outcome.value == direct.value
    assert not direct.used_closure


# ---------------------------------------------------------------------------
# budgets and brackets
# ---------------------------------------------------------------------------


def test_budget_exhaustion_brackets_the_value():
    exact = brown_number(LIN2, 2).value
    outcome = brown_number(LIN2, 2, budget=SearchBudget(max_nodes=20))
    assert outcome.kind == "bracketed"
    assert outcome.value is None
    assert outcome.lower <= exact <= outcome.upper
    assert outcome.certificate is not None
    assert verify_certificate(outcome.certificate)


def test_length_cap_brackets_with_witness_at_cap():
    outcome = brown_number(EXP2, 2, n_cap=16)
    assert outcome.kind == "bracketed"
    assert outcome.lower == 17
    assert outcome.upper == upper_bound_seq(EXP2, 2) == 33
    assert outcome.witness.length == 16


def test_exponential_two_color_threshold_is_exact():
    outcome = brown_number(EXP2, 2)
    assert outcome.kind == "exact"
    assert outcome.value == 17


def test_formula_upper_bound_picks_the_best():
    assert formula_upper_bound(LIN1, 2) == min(ardal_bound(1, 2), upper_bound_seq(LIN1, 2))
    assert formula_upper_bound(EXP2, 2) == 33


def test_overflowed_recursion_means_no_known_upper():
    assert formula_upper_bound(EXP2, 4) is None
    outcome = brown_number(EXP2, 4, budget=SearchBudget(max_nodes=100))
    assert outcome.kind == "bracketed"
    assert outcome.upper is None
    assert verify_certificate(outcome.certificate)


def test_bad_budgets_and_jobs_are_rejected():
    for bad in ({"max_nodes": -5}, {"max_seconds": -1.0}, {"max_seconds": float("nan")}):
        with pytest.raises(InvalidArgumentError):
            SearchBudget(**bad)
    assert SearchBudget(max_nodes=0, max_seconds=0.0).max_seconds == 0.0
    for jobs in (0, -3):
        with pytest.raises(InvalidArgumentError):
            brown_number(LIN1, 1, budget=SearchBudget(jobs=jobs))
        with pytest.raises(InvalidArgumentError):
            vdw_number(2, 3, budget=SearchBudget(jobs=jobs))
        with pytest.raises(InvalidArgumentError):
            confirm_no_witness(2, LIN1, 1, budget=SearchBudget(jobs=jobs))
        with pytest.raises(InvalidArgumentError):
            confirm_no_ap_witness(9, 2, 3, budget=SearchBudget(jobs=jobs))


def test_deadline_passing_in_the_parallel_probe_brackets():
    outcome = brown_number(LIN2, 2, budget=SearchBudget(max_seconds=0.0, jobs=2))
    assert (outcome.kind, outcome.stop) == ("bracketed", "deadline")
    assert outcome.lower <= 13 <= outcome.upper
    assert confirm_no_witness(13, LIN2, 2,
                              budget=SearchBudget(max_seconds=0.0, jobs=2)).result is None


def test_deadline_is_read_at_node_zero_then_every_2048_nodes(monkeypatch):
    f = parse_growth_spec("linear:3")
    stats = _run_tree(("star", f, 2), 2, None, None, time.monotonic() - 1.0)
    assert (stats.nodes, stats.stop) == (0, "deadline")
    reads = 0
    clock = time.monotonic

    def counting_clock():
        nonlocal reads
        reads += 1
        return clock()

    monkeypatch.setattr(time, "monotonic", counting_clock)
    for max_nodes in (10_000, None):
        reads = 0
        timed = _run_tree(("star", f, 2), 2, None, max_nodes, clock() + 3600.0)
        untimed = _run_tree(("star", f, 2), 2, None, max_nodes, None)
        assert (timed.best, timed.nodes, timed.stop) == (untimed.best, untimed.nodes,
                                                         untimed.stop)
        assert 1 <= reads <= timed.nodes // 2048 + 2


# ---------------------------------------------------------------------------
# confirm_no_witness
# ---------------------------------------------------------------------------


def test_confirm_examples():
    assert confirm_no_witness(2, LIN1, 1).result is True
    assert confirm_no_witness(16, EXP2, 2).result is False
    assert confirm_no_witness(1, LIN1, 1).result is False


def test_confirm_requires_nondecreasing():
    with pytest.raises(PreconditionError, match=r"closure:<spec>"):
        confirm_no_witness(2, GrowthFn.from_table((3, 1, 2)), 1)


def test_confirm_budget_exhaustion_is_indeterminate():
    outcome = confirm_no_witness(17, EXP2, 2, budget=SearchBudget(max_nodes=5))
    assert outcome.result is None


def test_wall_clock_budget_brackets():
    outcome = brown_number(LIN2, 2, budget=SearchBudget(max_seconds=0.0))
    assert outcome.kind == "bracketed"
    assert outcome.lower <= 13 <= outcome.upper


# ---------------------------------------------------------------------------
# van der Waerden numbers
# ---------------------------------------------------------------------------


def test_vdw_degenerate_families():
    for l in (1, 2, 3, 5, 8):
        assert vdw_number(1, l).value == l
    for r in (1, 2, 3, 4):
        assert vdw_number(r, 1).value == 1


def test_vdw_two_colors_three_terms():
    outcome = vdw_number(2, 3)
    assert outcome.kind == "exact"
    assert outcome.value == vdw_number_bruteforce(2, 3) == 9
    assert ap_partition_check(outcome.witness, 3) is None
    assert outcome.witness.length == 8
    assert confirm_no_ap_witness(outcome.value, 2, 3).result is True
    assert confirm_no_ap_witness(outcome.value - 1, 2, 3).result is False


def test_vdw_two_two():
    # two colors, pairs: any 2 equal positions give a 2-term progression
    assert vdw_number(2, 2).value == vdw_number_bruteforce(2, 2)


def test_vdw_literature_values_are_exact():
    # Chvatal 1970
    assert vdw_number(2, 4).value == 35
    assert vdw_number(3, 3).value == 27


@pytest.mark.parametrize("r,l,value", [
    (4, 3, 76),    # Beeler & O'Neil 1979
    (2, 5, 178),   # Stevens & Shantaram 1978
])
def test_vdw_brackets_contain_literature_values(r, l, value):
    for nodes in (0, 100, 20_000):
        outcome = vdw_number(r, l, budget=SearchBudget(max_nodes=nodes))
        assert outcome.kind == "bracketed"
        assert outcome.lower <= value
        assert outcome.upper is None or outcome.upper >= value


def test_vdw_bracket_has_no_upper():
    outcome = vdw_number(2, 3, budget=SearchBudget(max_nodes=5))
    assert outcome.kind == "bracketed"
    assert outcome.upper is None
    assert outcome.lower <= 9


# ---------------------------------------------------------------------------
# engine cross-checks
# ---------------------------------------------------------------------------


def test_canonicalization_preserves_outcomes():
    # the searches break color symmetry; the reference tree walks every coloring
    for f, r in [(LIN1, 2), (LIN2, 2)]:
        on = brown_number(f, r)
        off = _run_tree(("star", f, r), r, None, None, None, canonical=False)
        assert on.value == len(off.best) + 1
        assert on.witness.values == off.best
        assert on.nodes_explored != off.nodes
    on = vdw_number(2, 3)
    off = _run_tree(("ap", 3), 2, None, None, None, canonical=False)
    assert on.value == len(off.best) + 1
    assert on.nodes_explored != off.nodes


def test_parallel_split_matches_sequential():
    # the probe and the workers walk the canonical tree once between them, so
    # an exhaustive search counts the same nodes
    lin3 = GrowthFn.linear(3)
    for search_with in (lambda budget: brown_number(LIN2, 2, budget=budget),
                        lambda budget: brown_number(lin3, 2, budget=budget),
                        lambda budget: vdw_number(2, 3, budget=budget),
                        lambda budget: vdw_number(3, 3, budget=budget)):
        seq, par = search_with(SearchBudget()), search_with(SearchBudget(jobs=2))
        assert (seq.value, seq.witness.values, seq.nodes_explored) == (
            par.value, par.witness.values, par.nodes_explored)
    # a witness of length 24 exists: the sequential walk stops at the first one,
    # the split only after its probe has walked the whole depth-12 frontier
    for n, result, par_nodes in ((24, False, 541), (25, True, 606_441)):
        seq = confirm_no_witness(n, lin3, 2)
        par = confirm_no_witness(n, lin3, 2, budget=SearchBudget(jobs=2))
        assert (seq.result, par.result, par.nodes) == (result, result, par_nodes)
        assert result is False or seq.nodes == par.nodes


def test_probe_answers_a_cap_its_frontier_reaches(monkeypatch):
    # a frontier level at the length cap is the search's answer: no pool starts
    monkeypatch.setattr(search, "Pool", None)
    assert confirm_no_witness(3, LIN1, 2, budget=SearchBudget(jobs=2)) == search.ConfirmOutcome(
        False, 5)
    outcome = vdw_number(2, 3, n_cap=3, budget=SearchBudget(jobs=2))
    assert (outcome.kind, outcome.lower, outcome.stop, outcome.nodes_explored) == (
        "bracketed", 4, "cap", 7)


def test_pool_starts_no_more_processes_than_prefixes_or_cpus(monkeypatch):
    # the fake pool runs its tasks in this process, so a large jobs forks nothing
    started, splits = [], []

    class InlinePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            splits.append([task[-1] for task in tasks])
            return list(itertools.starmap(fn, tasks))

    monkeypatch.setattr(search, "Pool", InlinePool)
    seq = brown_number(LIN2, 2)
    # at jobs=64 the probe stops at depth 12 with 47 prefixes
    for jobs, cpus, processes in ((3, 1000, 3), (64, 1000, 47), (64, 4, 4), (64, None, 1)):
        monkeypatch.setattr(search.os, "cpu_count", lambda cpus=cpus: cpus)
        outcome = brown_number(LIN2, 2, budget=SearchBudget(jobs=jobs))
        assert started.pop() == processes
        assert (outcome.witness.values, outcome.nodes_explored) == (
            seq.witness.values, seq.nodes_explored)
    # the split depends on jobs alone, not on the processes started
    assert len(splits[1]) == 47 and splits[1] == splits[2] == splits[3]


TREE_CASES = (
    [pytest.param(("star", f, r), r, id=f"f{i}-{r}")
     for i, (f, r) in enumerate([(LIN1, 2), (LIN2, 2), (EXP2, 2), (LIN1, 3)])]
    + [pytest.param(("ap", l), r, id=f"ap{l}-{r}") for r in (2, 3) for l in (3, 4)])


@pytest.mark.parametrize("rule_desc,r", TREE_CASES)
def test_tree_nodes_are_exactly_the_valid_colorings(rule_desc, r):
    # without canonicalization, the depth-k frontier must equal the set of
    # length-k colorings that the independent oracle accepts: subset
    # enumeration for the star rule, the progression scan for the ap rule
    if rule_desc[0] == "star":
        def valid(coloring):
            return has_large_homogeneous_bruteforce(coloring, rule_desc[1]) is None
    else:
        def valid(coloring):
            return ap_partition_check(coloring, rule_desc[1]) is None
    for k in (1, 2, 3, 5):
        collected = []
        _run_tree(rule_desc, r, k, None, None, canonical=False, collect=collected)
        expected = {values for values in itertools.product(range(r), repeat=k)
                    if valid(Coloring(r, values))}
        assert set(collected) == expected


def test_deepest_witness_is_lexicographically_least():
    outcome = brown_number(LIN1, 2)
    collected = []
    _run_tree(("star", LIN1, 2), 2, outcome.value - 1, None, None,
              canonical=False, collect=collected)
    assert outcome.witness.values == min(collected)


# ---------------------------------------------------------------------------
# the shared-prefix record and the extension rules
# ---------------------------------------------------------------------------


STAR_SPECS = ("linear:1", "linear:2", "exp2", "table:1,1,2,2,3;tail=linear",
              "closure:table:3,1,2", "table:0,0,2;tail=linear")
RULES = ([("star", parse_growth_spec(spec)) for spec in STAR_SPECS]
         + [("ap", l) for l in (1, 2, 3, 4, 7)])


def _new_rule(rule_desc, palette, values):
    if rule_desc[0] == "star":
        return _StarRule(rule_desc[1], palette)
    return _ApRule(rule_desc[1], values, palette)


def _snapshot_tree(rule_desc, palette, cap, max_nodes, prefix, canonical, collect):
    """The DFS of ``_run_tree`` with the record kept the plain way: a full
    tuple snapshot of the path on every new depth record."""
    values = []
    rule = _new_rule(rule_desc, palette, values)
    for pos, c in enumerate(prefix):
        assert rule.try_push(pos, c)
        values.append(c)
    best = tuple(values)
    if cap is not None and len(best) >= cap:
        if collect is not None:
            collect.append(best)
        return best, 0, None if collect is not None else "cap"
    nodes, stop = 0, None
    frames, used = [0], [max(prefix) + 1 if prefix else 0]
    while frames:
        if max_nodes is not None and nodes >= max_nodes:
            stop = "nodes"
            break
        c = frames[-1]
        if c > min(used[-1] if canonical else palette - 1, palette - 1):
            frames.pop()
            if frames:
                rule.pop(values.pop())
                used.pop()
            continue
        frames[-1] = c + 1
        nodes += 1
        if rule.try_push(len(values), c):
            values.append(c)
            if len(values) > len(best):
                best = tuple(values)
            if cap is not None and len(values) >= cap:
                if collect is None:
                    stop = "cap"
                    break
                collect.append(tuple(values))
                rule.pop(values.pop())
                continue
            used.append(max(used[-1], c + 1))
            frames.append(0)
    return best, nodes, stop


@st.composite
def _tree_cases(draw):
    kind, param = draw(st.sampled_from(RULES))
    palette = draw(st.integers(1, 3))
    rule_desc = (kind, param, palette) if kind == "star" else (kind, param)
    # the longest valid prefix of a random color sequence
    prefix = []
    rule = _new_rule(rule_desc, palette, prefix)
    for c in draw(st.lists(st.integers(0, palette - 1), max_size=6)):
        if not rule.try_push(len(prefix), c):
            break
        prefix.append(c)
    cap = draw(st.none() | st.integers(1, 8))
    return (rule_desc, palette, cap, draw(st.integers(0, 400)), tuple(prefix),
            draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(_tree_cases())
def test_shared_prefix_record_matches_snapshots(case):
    rule_desc, palette, cap, max_nodes, prefix, canonical, collect = case
    got_collected = [] if collect else None
    want_collected = [] if collect else None
    got = _run_tree(rule_desc, palette, cap, max_nodes, None, prefix, canonical,
                    got_collected)
    want = _snapshot_tree(rule_desc, palette, cap, max_nodes, prefix, canonical,
                          want_collected)
    assert (got.best, got.nodes, got.stop) == want
    assert got_collected == want_collected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STAR_SPECS), st.integers(1, 3),
       st.lists(st.integers(-1, 2), max_size=240))
# color 0 first meets gap 2 only after two pops
@example("linear:1", 2, [0, 1, -1, -1, 0, 1, 0])
# color 0 holds gaps 1, 2, 1; its gap-2 push at 6 walks past two levels and
# is rejected, its gap-3 push at 7 walks past the same two and is accepted,
# and after two pops the gap-2 push is rejected again
@example("linear:2", 2, [0, 0, 1, 0, 0, 1, 0, 1, 0, -1, -1, 0, 1, 0])
# color 0's six elements 3 apart fill f(3) = 6; the gap-1 push at 16 passes
# its own level (2 <= f(1)) and is rejected by the bound carried from below
@example("linear:2", 3, [0, 1, 2] * 5 + [0, 0])
def test_star_rule_accepts_exactly_the_star_classes(spec, palette, steps):
    # -1 pops the last position; a color pushes it at the next position
    f = parse_growth_spec(spec)
    rule = _StarRule(f, palette)
    values = []
    for step in steps:
        if step < 0:
            if values:
                rule.pop(values.pop())
            continue
        c = step % palette
        grown = [pos for pos, v in enumerate(values) if v == c] + [len(values)]
        accepted = rule.try_push(len(values), c)
        assert accepted == (star_violation(grown, f) is None)
        if accepted:
            values.append(c)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3), st.lists(st.integers(-1, 2), max_size=240))
# l == 1: every push is rejected
@example(1, 2, [0, 1, -1, 0])
# l == 2: a color is taken once, and free again after its pop
@example(2, 3, [0, 1, 0, 2, 1, -1, 2, -1, 1, 0])
# 0, 0 forbids 0 at position 2; the pop of position 1 clears that bit again
@example(3, 2, [0, 0, 0, -1, 1, 0, 0])
# the masks double their width at the push of position 64; pops take the
# path back below 64 and pushes bring it up again on the wider masks
@example(7, 2, [0, 1] * 50 + [-1] * 40 + [1, 0] * 20)
def test_ap_rule_accepts_exactly_the_progression_free_colorings(l, palette, steps):
    # -1 pops the last position; a color pushes it at the next position
    values = []
    rule = _ApRule(l, values, palette)
    for step in steps:
        if step < 0:
            if values:
                rule.pop(values.pop())
            continue
        c = step % palette
        accepted = rule.try_push(len(values), c)
        assert accepted == (ap_partition_check(Coloring(palette, values + [c]), l) is None)
        if accepted:
            values.append(c)


class _SliceApRule:
    """The plain progression rule: for each common difference q, compare the
    slice of the l - 1 earlier terms with l - 1 copies of the color."""

    def __init__(self, l, values, palette):
        self.l, self.values = l, values
        self.full = [[c] * (l - 1) for c in range(palette)]

    def try_push(self, pos, color):
        values, full, span = self.values, self.full[color], self.l - 1
        return self.l > 1 and not any(values[pos - span * q:pos:q] == full
                                      for q in range(1, pos // span + 1))

    def pop(self, color):
        pass


@pytest.mark.parametrize("l,r,max_nodes", [(3, 3, None), (7, 2, 20_000), (100, 2, 3_000)])
def test_ap_rule_walks_the_same_tree_as_the_slice_rule(monkeypatch, l, r, max_nodes):
    got = _run_tree(("ap", l), r, None, max_nodes, None)
    monkeypatch.setattr(search, "_ApRule", _SliceApRule)
    want = _run_tree(("ap", l), r, None, max_nodes, None)
    assert (got.best, got.nodes, got.stop) == (want.best, want.nodes, want.stop)


def test_ap_rule_memory_grows_linearly_with_depth():
    # a 2-coloring avoiding 1000-term progressions runs almost one level per
    # node; saving a whole forbidden int per level would grow quadratically,
    # a table of l - 2 entries per position by about 8 KB a level
    peaks = []
    for max_nodes in (5_000, 10_000):
        tracemalloc.start()
        try:
            stats = _run_tree(("ap", 1000), 2, None, max_nodes, None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(stats.best) >= max_nodes - 50
    assert peaks[1] <= 2.5 * peaks[0]
    assert peaks[1] <= 10_000 * 200


# ---------------------------------------------------------------------------
# the star search's table of walked subtrees
# ---------------------------------------------------------------------------


def _force_table(mp, size=1 << 20):
    """Build, look up and store a key at every node the table may use."""
    mp.setattr(search, "_TABLE_GAP", 0)
    mp.setattr(search, "_TABLE_MIN", 0)
    mp.setattr(search, "_KEY_COST", 0)
    mp.setattr(search, "_TABLE_SIZE", size)


def _counting_pushes(mp):
    calls = [0]
    push = _StarRule.try_push

    def counted(self, pos, color):
        calls[0] += 1
        return push(self, pos, color)

    mp.setattr(_StarRule, "try_push", counted)
    return calls


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STAR_SPECS), st.integers(1, 4), st.lists(st.integers(0, 3), max_size=5),
       st.integers(1, 20), st.booleans(), st.floats(0, 1))
def test_table_walks_the_same_tree_as_the_snapshots(spec, palette, colors, cap, canonical, share):
    rule_desc = ("star", parse_growth_spec(spec), palette)
    # the longest valid prefix of a random color sequence, canonical or not
    prefix = []
    rule = _StarRule(rule_desc[1], palette)
    for c in colors:
        if c >= palette or not rule.try_push(len(prefix), c):
            break
        prefix.append(c)
    prefix = tuple(prefix)
    size = _snapshot_tree(rule_desc, palette, cap, 3000, prefix, canonical, None)[1]
    # node caps anywhere in the tree (past its end when it is small), so some
    # land inside a counted subtree
    max_nodes = round(share * (size + 1))
    want = _snapshot_tree(rule_desc, palette, cap, max_nodes, prefix, canonical, None)
    with pytest.MonkeyPatch.context() as mp:
        _force_table(mp)
        got = _run_tree(rule_desc, palette, cap, max_nodes, None, prefix, canonical)
    assert (got.best, got.nodes, got.stop) == want


@pytest.mark.parametrize("spec", STAR_SPECS)
def test_table_counts_every_spec_exactly(monkeypatch, spec):
    f = parse_growth_spec(spec)
    for palette in (1, 2, 3):
        for canonical in (True, False):
            want = _snapshot_tree(("star", f, palette), palette, 20, None, (), canonical, None)
            with pytest.MonkeyPatch.context() as mp:
                _force_table(mp)
                got = _run_tree(("star", f, palette), palette, 20, None, None, (), canonical)
            assert (got.best, got.nodes, got.stop) == want


def test_node_caps_inside_counted_subtrees_stop_where_the_walk_stops(monkeypatch):
    # every node cap of a tree whose table saves a third of its attempts
    rule_desc = ("star", LIN2, 2)
    _force_table(monkeypatch)
    calls = _counting_pushes(monkeypatch)
    full = _run_tree(rule_desc, 2, 14, None, None)
    assert (full.nodes, calls[0]) == (487, 319)
    for max_nodes in range(full.nodes + 2):
        got = _run_tree(rule_desc, 2, 14, max_nodes, None)
        want = _snapshot_tree(rule_desc, 2, 14, max_nodes, (), True, None)
        assert (got.best, got.nodes, got.stop) == want


def test_table_fires_on_the_exact_star_workload(monkeypatch):
    f = parse_growth_spec("linear:3")
    calls = _counting_pushes(monkeypatch)
    runs = []
    # the table as the module sets it, then never used
    for gap in (search._TABLE_GAP, 10 ** 9):
        monkeypatch.setattr(search, "_TABLE_GAP", gap)
        calls[0] = 0
        outcome = brown_number(f, 2)
        searched, calls[0] = calls[0], 0
        confirmation = confirm_no_witness(25, f, 2)
        runs.append(((outcome.value, outcome.witness, outcome.nodes_explored, confirmation),
                     (searched, calls[0])))
    (table, table_pushes), (plain, plain_pushes) = runs
    assert table == plain == (25, table[1], 606_441, search.ConfirmOutcome(True, 606_441))
    assert plain_pushes == (606_441, 606_441)
    assert max(table_pushes) < 606_441 // 2


def _state(spec, palette, values):
    rule = _StarRule(parse_growth_spec(spec), palette)
    for pos, c in enumerate(values):
        assert rule.try_push(pos, c)
    return rule


def _chains(rule):
    """Each class's live gap stack as (gap, base - index) pairs, sorted."""
    chains = []
    for levels in rule.levels:
        if levels:
            level, chain = levels[-1], []
            while level is not None:
                chain.append((level[0], levels[-1][1] - level[1]))
                level = level[3]
            chains.append(tuple(chain))
    return sorted(chains)


def _subtree(spec, palette, values, cap=16):
    rule_desc = ("star", parse_growth_spec(spec), palette)
    return _snapshot_tree(rule_desc, palette, cap, None, values, True, None)[:2]


def test_state_key_merges_color_permutations_and_dead_levels():
    a = (0, 0, 1, 1, 0, 1, 1, 0)
    swapped = tuple(1 - c for c in a)
    key = search._star_key(_state("linear:2", 2, a), 8, 1)
    assert search._star_key(_state("linear:2", 2, swapped), 8, 1) == key
    # class 0 sits at 0, 1, 4, 7 in ``a`` and at 0, 2, 4, 7 in ``dead``; its
    # top gap-3 level reaches down to the bottom, so its first gap (1 or 2)
    # lies off the chain, and class 1 differs the same way
    dead = (0, 1, 0, 1, 0, 1, 1, 0)
    rule_a, rule_dead = _state("linear:2", 2, a), _state("linear:2", 2, dead)
    assert search._star_key(rule_dead, 8, 1) == key
    assert (rule_a.levels[0][1][0], rule_dead.levels[0][1][0]) == (1, 2)
    assert _subtree("linear:2", 2, a)[1] == _subtree("linear:2", 2, dead)[1]


@pytest.mark.parametrize("spec,palette,a,b,limits,cap", [
    # the same live gap stacks, but the classes last grew at other positions
    ("linear:2", 2, (0, 1, 0, 1, 1, 0, 1, 0), (0, 0, 1, 1, 0, 1, 0, 1), (1, 1), 16),
    # after the non-canonical prefix (1,), color 0 keeps the highest color its
    # children may try at 2 and color 2 raises it to 3
    ("linear:1", 4, (1, 0), (1, 2), (2, 3), 12),
])
def test_state_key_splits_states_that_differ_only_in_an_age_or_a_limit(spec, palette, a, b,
                                                                        limits, cap):
    rule_a, rule_b = _state(spec, palette, a), _state(spec, palette, b)
    assert _chains(rule_a) == _chains(rule_b)
    key_a = search._star_key(rule_a, len(a), limits[0])
    assert key_a != search._star_key(rule_b, len(b), limits[1])
    # and the subtrees below them differ
    assert _subtree(spec, palette, a, cap)[1] != _subtree(spec, palette, b, cap)[1]


@pytest.mark.parametrize("spec,palette,n", [("linear:2", 2, 10), ("linear:3", 2, 11),
                                            ("exp2", 2, 10), ("linear:1", 3, 7)])
def test_state_key_determines_every_live_bound(spec, palette, n):
    # a level's bound is min(f(G) + B, bound) of the level below, so the key
    # leaves it out: no two valid colorings with one key differ in a live bound
    f = parse_growth_spec(spec)
    bounds = {}
    for values in itertools.product(range(palette), repeat=n):
        rule = _StarRule(f, palette)
        if not all(rule.try_push(pos, c) for pos, c in enumerate(values)):
            continue
        live = []
        for levels in rule.levels:
            if levels:
                level, base, chain = levels[-1], levels[-1][1], []
                while level is not None:
                    chain.append((level[0], base - level[1], level[2] - base))
                    level = level[3]
                live.append(tuple(chain))
        key = search._star_key(rule, n, palette - 1)
        assert bounds.setdefault(key, sorted(live)) == sorted(live)
    assert len(bounds) > 1


def test_table_stays_within_its_entry_bound(monkeypatch):
    f = parse_growth_spec("linear:3")
    want = _run_tree(("star", f, 2), 2, 31, None, None)

    class Bound(int):
        """The entry bound, noting every table length it is compared with."""
        seen: list = []

        def __le__(self, length):
            Bound.seen.append(length)
            return int(self) <= length

        def __gt__(self, length):
            Bound.seen.append(length)
            return int(self) > length

    monkeypatch.setattr(search, "_TABLE_SIZE", Bound(16))
    got = _run_tree(("star", f, 2), 2, 31, None, None)
    assert (got.best, got.nodes, got.stop) == (want.best, want.nodes, want.stop)
    assert Bound.seen and max(Bound.seen) <= 16


def test_table_memory_stays_small():
    tracemalloc.start()
    try:
        outcome = brown_number(parse_growth_spec("linear:3"), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.value == 25
    assert peak < 2_000_000
