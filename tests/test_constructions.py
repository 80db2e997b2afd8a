import decimal
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brownlab.checker import is_witness
from brownlab.core import Coloring, GrowthFn, gap_size, max_run_size
from brownlab.constructions import (_LEAF_BITS, BIT_CAP, ardal_bound,
                                    brown_bounds, decimal_str, decompose_ps, diag,
                                    diag_bound_check, diag_prefix,
                                    extract_homogeneous_ps, ladder,
                                    ladder_lengths, ladder_lower_bound_check,
                                    ladder_verify, ps_generate, ps_problems,
                                    tower, upper_bound_seq)
from brownlab.errors import (InsufficientPrefixError, InvalidArgumentError,
                             MagnitudeError)

EXP2 = GrowthFn.exp2()


# ---------------------------------------------------------------------------
# alternating-block coloring
# ---------------------------------------------------------------------------


def test_diag_values():
    assert [diag(1, x) for x in range(6)] == [0, 1, 0, 1, 0, 1]
    assert "".join(str(diag(3, x)) for x in range(12)) == "000111000111"
    assert diag(2, 5) == 0
    with pytest.raises(InvalidArgumentError):
        diag(0, 3)


def test_diag_prefix_is_a_two_coloring():
    c = diag_prefix(3, 12)
    assert c.palette == 2
    assert c.classes()[0] == (0, 1, 2, 6, 7, 8)


def test_diag_bound_is_attained_exactly():
    assert diag_bound_check(3, 12) == 3
    assert diag_bound_check(1, 4) == 1
    assert diag_bound_check(64, 100_000) == 64


def test_diag_bound_needs_two_blocks():
    with pytest.raises(InsufficientPrefixError):
        diag_bound_check(5, 9)


def test_diag_bound_matches_direct_run_scan():
    for d in (1, 2, 5, 9):
        n = 6 * d + 3
        coloring = diag_prefix(d, n)
        direct = max(max_run_size(coloring.classes()[i], d) for i in (0, 1))
        assert diag_bound_check(d, n) == direct == d


# ---------------------------------------------------------------------------
# the witness ladder
# ---------------------------------------------------------------------------


def test_ladder_base_stages():
    s0 = ladder(0)
    assert (s0.length, s0.palette) == (2, 1)
    assert s0.coloring.values == (0, 0)

    s1 = ladder(1)
    assert (s1.length, s1.palette) == (16, 2)
    assert "".join(map(str, s1.coloring.values)) == "0011001100110011"

    s2 = ladder(2)
    assert (s2.length, s2.palette) == (2_097_152, 4)


def test_ladder_length_identities():
    lengths = ladder_lengths(3)
    for s in range(3):
        n = lengths[s]
        assert lengths[s + 1] == 2 * n * (1 << n)
    # the equivalent closed form over the partial sums, for materialized stages
    for s in range(0, 3):
        total = sum(lengths[: s + 1])
        assert lengths[s + 1] == (1 << (s + 1)) * (1 << (total + 1))


def test_ladder_evaluator_matches_materialized_values():
    rng = random.Random(11)
    for s in (0, 1, 2):
        stage = ladder(s)
        positions = range(stage.length) if stage.length <= 32 else (
            rng.randrange(stage.length) for _ in range(200))
        for x in positions:
            assert stage.color_at(x) == stage.coloring.values[x]


def test_ladder_stage_three_is_evaluator_only():
    stage = ladder(3)
    assert not stage.materialized
    assert stage.palette == 8
    assert stage.length == 2 * 2_097_152 * (1 << 2_097_152)
    assert stage.length.bit_length() > 2_000_000
    # the block structure survives at huge positions
    assert stage.color_at(0) == 0
    assert stage.color_at(stage.length - 1) >= 4


def test_ladder_past_stage_three_overflows():
    with pytest.raises(MagnitudeError):
        ladder(4)
    with pytest.raises(MagnitudeError):
        ladder_lengths(4)


def test_ladder_verify_small_stages():
    for s in (0, 1):
        report = ladder_verify(ladder(s))
        assert report.all_ok, report.failures
        assert len(report.claims) == 1 << s
    r0 = ladder_verify(ladder(0))
    h = ladder(0).coloring.classes()[0]
    assert len(h) == 2 == r0.length // r0.palette
    assert r0.length == h[-1] - h[0] + 0 + 1


def test_ladder_stages_are_witnesses():
    for s in (0, 1):
        stage = ladder(s)
        assert is_witness(stage.coloring, EXP2) is not None


def test_ladder_verify_rejects_unmaterialized():
    with pytest.raises(MagnitudeError):
        ladder_verify(ladder(3))


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------


def test_recursion_bound_for_exponential_growth():
    assert upper_bound_seq(EXP2, 1) == 4
    assert upper_bound_seq(EXP2, 2) == 33
    assert upper_bound_seq(EXP2, 3) == 3 * 2 ** 33 + 1


def test_recursion_bound_closes_non_monotone_input():
    bumpy = GrowthFn.from_table((3, 1, 2))
    closed = GrowthFn.closure(bumpy)
    assert upper_bound_seq(bumpy, 2) == upper_bound_seq(closed, 2)


def test_recursion_bound_overflow_raises_before_allocating():
    # the fourth term would be 4 * 2**(3 * 2**33 + 1) + 1, far past the bit cap
    with pytest.raises(MagnitudeError) as info:
        upper_bound_seq(EXP2, 4)
    assert info.value.base == 3 * 2 ** 33 + 1
    with pytest.raises(MagnitudeError):
        upper_bound_seq(GrowthFn.closure(EXP2), 4)
    # a closure term sums n + 1 inner values; the sixth term would sum ~5.7e10
    closed_lin1 = GrowthFn.closure(GrowthFn.linear(1))
    assert upper_bound_seq(closed_lin1, 5) == 56777355256
    with pytest.raises(MagnitudeError):
        upper_bound_seq(closed_lin1, 6)
    # two nested closures: the fourth term's n is about 5,300, summed in linear time
    assert upper_bound_seq(GrowthFn.closure(closed_lin1), 4) == 100096417041
    # three nested closures at n sum about n**3 / 6 terms; the fourth term's n is 139129
    thrice_closed = GrowthFn.closure(GrowthFn.closure(closed_lin1))
    assert upper_bound_seq(thrice_closed, 3) == 139129
    with pytest.raises(MagnitudeError):
        upper_bound_seq(thrice_closed, 4)
    assert upper_bound_seq(GrowthFn.linear(1000), 4) > 0


def test_recursion_bound_rejects_zero_colors():
    with pytest.raises(InvalidArgumentError):
        upper_bound_seq(EXP2, 0)


def test_linear_growth_bound_values():
    assert ardal_bound(1, 1) == 2
    assert ardal_bound(1, 2) == 5
    assert ardal_bound(1, 3) == 16
    assert ardal_bound(2, 2) == 25
    with pytest.raises(InvalidArgumentError):
        ardal_bound(0, 1)


def test_linear_growth_bound_stops_at_the_bit_cap():
    assert ardal_bound(BIT_CAP, 1).bit_length() == BIT_CAP
    for m, r in ((BIT_CAP + 1, 1), (BIT_CAP // 2 + 1, 2)):
        with pytest.raises(MagnitudeError) as err:
            ardal_bound(m, r)
        assert (err.value.depth, err.value.base) == (1, m * r)
    assert brown_bounds(GrowthFn.linear(BIT_CAP + 1), 1) == (None, BIT_CAP + 3)


# bit lengths at the edges of the leaf and of the first splits, and beyond
_BITS = st.one_of(st.integers(0, 70),
                  *(st.integers(k * _LEAF_BITS - 4, k * _LEAF_BITS + 4) for k in (1, 2, 3, 4)),
                  st.integers(0, 40_000))


@st.composite
def _naturals(draw):
    bits = draw(_BITS)
    k = bits * 3 // 10          # 10**k has about as many bits as 2**bits
    return draw(st.sampled_from((
        random.Random(draw(st.integers(0, 2 ** 32))).getrandbits(bits),
        1 << bits, (1 << bits) - 1, 10 ** k, 10 ** k - 1)))


@settings(max_examples=300, deadline=None)
@given(_naturals())
@example(0)
def test_decimal_str_matches_str(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with decimal.localcontext() as ctx:
            ctx.clear_flags()
            assert decimal_str(n) == str(n)
            assert not any(ctx.flags.values())   # the ambient context is never used
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_str_rejects_negatives():
    with pytest.raises(InvalidArgumentError):
        decimal_str(-1)


def test_tower_values():
    assert tower(0, 5) == 5
    assert tower(3, 1) == 16
    assert tower(2, 2) == 16
    assert tower(1, 10) == 1024


def test_tower_cap_carries_arguments():
    with pytest.raises(MagnitudeError) as err:
        tower(5, 2)
    assert err.value.depth == 5
    assert err.value.base == 2


def test_ladder_lengths_dominate_towers():
    report = ladder_lower_bound_check(3)
    assert report.all_hold
    assert [e.ladder_length for e in report.entries[:3]] == [2, 16, 2_097_152]
    assert [e.tower_value for e in report.entries] == [1, 2, 4, 16]
    assert report.entries[3].ladder_length.bit_length() > 2_000_000
    with pytest.raises(MagnitudeError):
        ladder_lower_bound_check(4)


def test_implied_lower_bound_for_color_counts():
    report = ladder_lower_bound_check(3)
    assert report.implied_lower_bound(1) == (0, 1)
    assert report.implied_lower_bound(2) == (1, 2)
    assert report.implied_lower_bound(5) == (2, 4)
    assert report.implied_lower_bound(8) == (3, 16)


# ---------------------------------------------------------------------------
# piecewise-syndetic generator
# ---------------------------------------------------------------------------


def _block(prefix, n):
    """Block n of a generated prefix, read from its index bounds."""
    start, end = prefix.bounds[n - 1]
    return prefix.elements[start:end]


def test_ps_generate_worked_example():
    gaps = Coloring(3, (1, 1, 2, 1))
    prefix = ps_generate(gaps, 3)
    assert prefix.elements == (0, 1, 3, 5, 6, 7)
    assert _block(prefix, 2) == (1, 3)
    assert _block(prefix, 3) == (5, 6, 7)
    assert _block(prefix, 3)[0] - _block(prefix, 2)[-1] == 2
    assert ps_problems(prefix, gaps) == []


def test_ps_generate_uniform_gaps_give_intervals():
    ones = Coloring(2, tuple([1] * 12))
    prefix = ps_generate(ones, 11)
    for n in range(1, 12):
        block = _block(prefix, n)
        assert all(b - a == 1 for a, b in zip(block, block[1:]))
    assert ps_problems(prefix, ones) == []


def test_ps_generate_random_colorings_satisfy_contract():
    rng = random.Random(100)
    for _ in range(25):
        palette = rng.randint(2, 6)
        length = rng.randint(5, 40)
        values = tuple(rng.randint(1, palette - 1) for _ in range(length))
        gaps = Coloring(palette, values)
        prefix = ps_generate(gaps, length - 1)
        assert ps_problems(prefix, gaps) == []


def test_ps_generate_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        ps_generate(Coloring(2, (1, 1, 0, 1)), 3)   # zero gap at a used position
    with pytest.raises(InvalidArgumentError):
        ps_generate(Coloring(2, (1, 1, 1)), 5)      # not enough positions


def test_block_of_index():
    gaps = Coloring(2, tuple([1] * 8))
    prefix = ps_generate(gaps, 7)
    for n in range(1, 8):
        start, end = prefix.bounds[n - 1]
        for k in range(start, end):
            assert prefix.block_of_index(k) == n


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_worked_examples():
    evens = tuple(range(0, 20, 2))
    y, z = decompose_ps(evens, 2, 20)
    assert z == tuple(range(20))
    assert y == evens

    y, z = decompose_ps((0, 1, 2), 1, 10)
    assert z == (0, 1, 2)
    assert y == tuple(sorted({0, 1, 2} | set(range(3, 10))))
    assert tuple(sorted(set(y) & set(z))) == (0, 1, 2)


def test_decompose_identity_on_random_prefixes():
    rng = random.Random(5)
    for _ in range(50):
        horizon = rng.randint(10, 200)
        d = rng.randint(1, 6)
        # a syndetic-ish random prefix: never leave a hole wider than d
        xs = sorted(rng.sample(range(horizon), k=max(1, horizon // 3)))
        y, z = decompose_ps(tuple(xs), d, horizon)
        cut = horizon - d
        lhs = {v for v in xs if v < cut}
        rhs = {v for v in set(y) & set(z) if v < cut}
        assert lhs == rhs


def test_decompose_rejects_out_of_horizon():
    with pytest.raises(InvalidArgumentError):
        decompose_ps((5, 30), 2, 20)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _uniform_prefix(gap, blocks):
    gaps = Coloring(gap + 1, tuple([max(gap, 1)] * (blocks + 1)))
    return ps_generate(gaps, blocks)


def test_extract_trivial_index_set():
    prefix = _uniform_prefix(2, 40)
    all_indices = tuple(range(len(prefix.elements)))
    report = extract_homogeneous_ps(2, 1, all_indices, prefix, 3)
    assert report.ok
    assert len(report.subset) == 3
    assert gap_size(report.subset) <= 2


def test_extract_consecutive_run_inherits_block_window():
    prefix = _uniform_prefix(3, 30)
    window = tuple(range(0, 120))
    report = extract_homogeneous_ps(3, 1, window, prefix, 2)
    assert report.ok
    assert gap_size(report.subset) <= 3


def test_extract_randomized_piecewise_syndetic_index_sets():
    rng = random.Random(42)
    for n in range(1, 6):
        for d in range(1, 4):
            for e in range(1, 4):
                k = (2 * n * e - 1) * (2 * n * e) // 2
                needed = k + 2 * n
                # enough blocks that index e*(needed-1) exists
                top_index = e * (needed - 1) + 1
                blocks = 1
                while blocks * (blocks + 1) // 2 < top_index:
                    blocks += 1
                gaps = Coloring(d + 1,
                                tuple(rng.randint(1, d) for _ in range(blocks + 2)))
                prefix = ps_generate(gaps, blocks + 1)
                indices = tuple(range(0, e * needed, e))
                report = extract_homogeneous_ps(d, e, indices, prefix, n)
                assert report.ok, (n, d, e)
                assert len(report.subset) == n
                assert gap_size(report.subset) <= e * d
                assert set(report.subset) <= set(report.image)


def test_extract_needs_a_long_enough_window():
    prefix = _uniform_prefix(2, 10)
    with pytest.raises(InsufficientPrefixError):
        extract_homogeneous_ps(2, 2, (0, 5, 10), prefix, 3)
