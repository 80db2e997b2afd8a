import itertools
import json
import random
import tracemalloc
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brownlab import checker
from brownlab.checker import (WindowViolation, WitnessCertificate, _check, _check_class, _fold,
                              _scan, _triples, has_large_homogeneous,
                              has_large_homogeneous_bruteforce, is_witness,
                              star_violation, verify_certificate)
from brownlab.constructions import ladder
from brownlab.core import Coloring, GrowthFn, _runs, gap_size, parse_growth_spec
from brownlab.errors import InvalidArgumentError, PreconditionError, ResourceLimitError

LIN1 = GrowthFn.linear(1)
LIN2 = GrowthFn.linear(2)
EXP2 = GrowthFn.exp2()
ZERO = GrowthFn.from_table((0,))          # f(d) = 0: even singletons are large
GROWTHS = [LIN1, LIN2, EXP2, GrowthFn.identity(),
           GrowthFn.from_table((1, 1, 3)),
           GrowthFn.from_table((0, 2), tail="linear"),
           GrowthFn.closure(GrowthFn.from_table((3, 1, 2)))]

C1 = Coloring(2, tuple(int(ch) for ch in "0011001100110011"))


def finite_set(elements):
    """A finite set as the library represents one: a sorted, duplicate-free tuple."""
    return tuple(sorted(set(elements)))


def windows(h):
    """Reference enumeration: every contiguous run h[j..k] of h, each once."""
    return [tuple(h[j:k + 1]) for j in range(len(h)) for k in range(j, len(h))]


small_sets = st.lists(st.integers(min_value=0, max_value=30),
                      max_size=10).map(finite_set)
# sets built from a few gap values, so that gaps repeat inside and across runs
gap_walks = st.tuples(st.integers(min_value=0, max_value=5),
                      st.lists(st.integers(min_value=1, max_value=3), max_size=12)
                      ).map(lambda t: tuple(itertools.accumulate(t[1], initial=t[0])))
# nondecreasing growth functions, including ones with f(1) = 0
STAR_GROWTHS = [f for f in GROWTHS if f.nondecreasing] + [
    ZERO, GrowthFn.from_table((0, 0, 1, 2)), GrowthFn.from_table((0, 0, 3), tail="linear")]


def windows_all_bounded(h, f):
    """The definition, as an oracle: every window stays within budget."""
    return all(len(w) <= f(gap_size(w)) for w in windows(h))


def window_triples(h, f):
    """Certificate triples by definition: for d in {1} and the gaps of h, the
    longest window with gap size <= d, and f(d)."""
    if not h:
        return ()
    ds = sorted({1} | {b - a for a, b in zip(h, h[1:])})
    return tuple((d, max(len(w) for w in windows(h) if gap_size(w) <= d), f(d))
                 for d in ds)


def maximal_windows(h):
    """``(gap size, j, k)`` of each window h[j..k] that no neighbour extends
    without a larger gap, in (j, k) order."""
    n = len(h)
    for j in range(n):
        for k in range(j, n):
            g = gap_size(h[j:k + 1])
            if (j == 0 or h[j] - h[j - 1] > g) and (k == n - 1 or h[k + 1] - h[k] > g):
                yield g, j, k


def record_windows(h):
    """The maximal windows of two or more elements that are longer than every
    earlier maximal window with the same gap size, in (j, k) order."""
    best = {}
    for g, j, k in maximal_windows(h):
        if k > j and k - j + 1 > best.get(g, 0):
            best[g] = k - j + 1
            yield g, j, k


def least_window_violation(h, f):
    """The least (start, end) maximal window whose length exceeds f of its
    gap size."""
    for g, j, k in maximal_windows(h):
        if k - j + 1 > f(g):
            return (h[j], h[k], g, k - j + 1)
    return None


# ---------------------------------------------------------------------------
# star_violation: the star condition of one set
# ---------------------------------------------------------------------------


def test_satisfies_star_examples():
    assert star_violation((0, 1, 2), LIN1) == WindowViolation(None, 0, 2, 1, 3)
    assert star_violation(C1.classes()[0], EXP2) is None
    assert star_violation((0, 2, 4), LIN2) is None


def test_satisfies_star_requires_nondecreasing_flag():
    bumpy = GrowthFn.from_table((3, 1, 2))
    for check in (lambda: star_violation((0, 1), bumpy),
                  lambda: is_witness(Coloring(1, (0, 0)), bumpy),
                  lambda: has_large_homogeneous(Coloring(1, (0, 0)), bumpy)):
        with pytest.raises(PreconditionError, match=r"closure:<spec>"):
            check()


def test_satisfies_star_zero_budget_flags_singletons():
    assert star_violation((4,), ZERO).length == 1


def test_satisfies_star_empty_set_holds():
    assert star_violation((), LIN1) is None


@settings(max_examples=300)
@given(st.one_of(small_sets, gap_walks), st.sampled_from(STAR_GROWTHS))
def test_satisfies_star_matches_window_enumeration(h, f):
    # the run kernel yields each record window once and, per gap size, in
    # position order (a stable sort by gap size keeps that order)
    gap = itemgetter(0)
    assert sorted(_runs(h), key=gap) == sorted(record_windows(h), key=gap)
    v = star_violation(h, f)
    assert (v is None) == windows_all_bounded(h, f)
    found = None if v is None else (v.start, v.end, v.gap_size, v.length)
    assert found == least_window_violation(h, f)
    # class 0 is h and every other position of 0..max(h) has a colour of its
    # own; the certificate's triples must be the definition's, class by class
    other = iter(range(1, 64))
    members = set(h)
    values = tuple(0 if x in members else next(other) for x in range(h[-1] + 1 if h else 0))
    coloring = Coloring(max(values, default=0) + 1, values)
    classes = coloring.classes()
    cert = is_witness(coloring, f)
    if all(windows_all_bounded(c, f) for c in classes):
        assert cert.per_class == tuple(window_triples(c, f) for c in classes)
    else:
        assert cert is None
    # the coloring's scan reports the set's violation under class 0
    hit = has_large_homogeneous(coloring, f)
    assert hit == (None if v is None else WindowViolation(0, *found))


@settings(max_examples=80)
@given(small_sets, st.integers(min_value=0, max_value=50),
       st.sampled_from([LIN1, LIN2, EXP2]))
def test_star_condition_is_shift_invariant(h, t, f):
    shifted = tuple(x + t for x in h)
    assert (star_violation(h, f) is None) == (star_violation(shifted, f) is None)


@settings(max_examples=80)
@given(small_sets)
def test_star_monotone_in_growth(h):
    # linear:1 <= linear:2 <= exp2 pointwise on d >= 1
    if star_violation(h, LIN1) is None:
        assert star_violation(h, LIN2) is None
    if star_violation(h, LIN2) is None:
        assert star_violation(h, EXP2) is None


def test_violation_is_recomputable():
    # class 3 is (0, 2, 4, 5, 6, 7); classes 0..2 hold at most one position
    coloring = Coloring(4, (3, 0, 3, 1, 3, 3, 3, 3))
    v = has_large_homogeneous(coloring, LIN1)
    assert v.color == 3
    window = tuple(x for x in coloring.classes()[3] if v.start <= x <= v.end)
    assert len(window) == v.length
    assert gap_size(window) == v.gap_size
    assert v.length > LIN1(v.gap_size)


# colorings spelled as runs: absent colors, long stretches of one color and
# classes that break the star condition past class 0
run_colorings = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 12)), max_size=10).map(
    lambda runs: Coloring(8, tuple(itertools.chain.from_iterable(
        itertools.repeat(v, k) for v, k in runs))))


@settings(max_examples=200, deadline=None)
@given(run_colorings, st.sampled_from(STAR_GROWTHS))
@example(Coloring(2, (0, 1, 1, 0, 1)), LIN1)              # class 0 fits, class 1 breaks
@example(Coloring(3, (2, 0, 0, 2)), ZERO)                 # lone first elements; color 1 absent
@example(Coloring(2, (1,) * 300 + (0,)), GrowthFn.linear(300))   # one long stretch
def test_one_pass_scan_matches_the_class_by_class_check(coloring, f):
    least, triples = _check(enumerate(coloring.values), f)
    per_class = [_check_class(h, f, color) for color, h in enumerate(coloring.classes())]
    for color, h in enumerate(coloring.classes()):
        v, t = per_class[color]
        found = None if v is None else (v.start, v.end, v.gap_size, v.length)
        assert least.get(color) == found == least_window_violation(h, f)
        assert triples.get(color, ()) == t == window_triples(h, f)
    first = next((v for v, _ in per_class if v is not None), None)
    v, cert = _scan(coloring, f)
    assert v == first
    if first is None:
        assert cert.per_class == tuple(t for _, t in per_class)
    else:
        assert cert is None


def test_the_scan_holds_no_object_per_position():
    coloring = ladder(2).coloring           # 2,097,152 positions in 4 classes
    tracemalloc.start()
    try:
        violation, cert = _scan(coloring, EXP2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violation is None and len(cert.per_class) == 4
    assert peak < 1_000_000                 # one tuple per class held 81.7 MB


def segmented(palette, blocks):
    """The coloring of each ``(block, copies)`` of ``blocks`` in turn, its values taken mod
    ``palette``, with one segment per block: the shape the decoder gives repeated lines."""
    blocks = [(tuple(v % palette for v in block), k) for block, k in blocks]
    return Coloring(palette, sum((block * k for block, k in blocks), ()),
                    _segments=tuple((len(block), k) for block, k in blocks))


segmented_colorings = st.builds(
    segmented, st.integers(1, 4),
    st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=12), st.integers(1, 5)),
             min_size=1, max_size=6))


@settings(max_examples=400, deadline=None)
@given(segmented_colorings, st.sampled_from(STAR_GROWTHS))
@example(segmented(2, [((0, 1, 0), 4)]), LIN2)                      # junction gap 1
@example(segmented(2, [((0, 1, 0), 4)]), GrowthFn.linear(4))        # class 0 one 2-run
@example(segmented(3, [((0, 1), 3), ((2, 2, 0), 2), ((1,), 5)]), LIN2)     # 1 skips a segment
@example(segmented(2, [((0, 1, 1), 3), ((1, 0), 1), ((1,), 2)]), EXP2)     # 1 copy between
def test_the_fold_matches_one_pass(coloring, f):
    _, triples = _check(enumerate(coloring.values), f)
    plain = Coloring(coloring.palette, coloring.values)
    with mock.patch.object(checker, "_FOLD_COST", 0):       # fold any segment with copies
        sizes = _fold(coloring)
        assert _scan(coloring, f) == _scan(plain, f)
    if sizes is None:                                       # no copies to fold
        assert all(k == 1 for _, k in coloring._segments)
    else:
        assert _triples(sizes, f, {}) == triples


# ---------------------------------------------------------------------------
# has_large_homogeneous and the brute-force oracle
# ---------------------------------------------------------------------------


def test_has_large_homogeneous_examples():
    assert has_large_homogeneous(Coloring(1, (0, 0, 0)), LIN1) == WindowViolation(0, 0, 2, 1, 3)
    assert has_large_homogeneous(C1, EXP2) is None
    v = has_large_homogeneous(Coloring(2, (0, 1, 0, 1, 0)), LIN1)
    assert v == WindowViolation(0, 0, 4, 2, 3)
    assert v.length > LIN1(v.gap_size)


def test_bruteforce_examples():
    assert has_large_homogeneous_bruteforce(Coloring(2, (0, 0, 1, 1)), EXP2) is None
    assert has_large_homogeneous_bruteforce(Coloring(0, ()), LIN1) is None
    hit = has_large_homogeneous_bruteforce(Coloring(2, (0, 1, 0, 1, 0)), LIN1)
    assert hit is not None
    color, subset = hit
    assert len(subset) > LIN1(gap_size(subset))


def test_bruteforce_accepts_non_monotone_growth():
    bumpy = GrowthFn.from_table((3, 1, 2))
    assert not bumpy.nondecreasing
    # {0, 2} has gap size 2 and 2 elements > f(2) = 2? no, equal; {0} is fine (1 <= f(1)=1)
    assert has_large_homogeneous_bruteforce(Coloring(1, (0,)), bumpy) is None
    # two adjacent points: gap size 1, 2 > f(1) = 1
    hit = has_large_homogeneous_bruteforce(Coloring(1, (0, 0)), bumpy)
    assert hit == (0, (0, 1))


def test_bruteforce_respects_length_cap():
    with pytest.raises(ResourceLimitError):
        has_large_homogeneous_bruteforce(Coloring(2, tuple([0] * 25)), LIN1)


def _naive_large_subset(coloring, f):
    """Transparent oracle-of-the-oracle: per-mask element extraction."""
    for h in coloring.classes():
        for mask in range(1, 1 << len(h)):
            subset = [h[i] for i in range(len(h)) if mask >> i & 1]
            if len(subset) > f(gap_size(subset)):
                return True
    return False


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0),
       st.sampled_from(GROWTHS))
def test_bruteforce_matches_naive_enumeration(n, seed, f):
    rng = random.Random(seed)
    coloring = Coloring(3, tuple(rng.randrange(3) for _ in range(n)))
    fast = has_large_homogeneous_bruteforce(coloring, f) is not None
    assert fast == _naive_large_subset(coloring, f)


def test_window_reduction_agrees_with_subsets_exhaustively():
    # every 2-coloring of length <= 8, three growth functions
    for n in range(0, 9):
        for values in itertools.product(range(2), repeat=n):
            coloring = Coloring(2, values)
            for f in (LIN1, LIN2, EXP2):
                fast = has_large_homogeneous(coloring, f) is not None
                brute = has_large_homogeneous_bruteforce(coloring, f) is not None
                assert fast == brute, (values, f.spec_string())


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_is_witness_examples():
    cert = is_witness(Coloring(1, (0, 0)), EXP2)
    assert cert is not None
    assert cert.per_class == (((1, 2, 2),),)
    assert cert.proves_exceeds == 2

    assert is_witness(Coloring(2, (0, 1, 0, 1)), LIN1) is not None
    assert is_witness(Coloring(1, (0, 0, 0)), LIN1) is None


def test_certificate_round_trip_and_byte_stability():
    cert = is_witness(C1, EXP2)
    text = cert.to_json()
    again = is_witness(C1, EXP2).to_json()
    assert text == again
    restored = WitnessCertificate.from_json(text)
    assert restored == cert
    assert restored.to_json() == text


def test_certificate_revalidates_from_raw_coloring():
    cert = is_witness(C1, EXP2)
    assert verify_certificate(cert)


# the length-40 record of `brown --f linear:4 --r 2`, which is not diag_prefix(4, 40);
# an exhaustive `confirm --n 41 --f linear:4 --r 2` found no longer witness
LINEAR4_RECORD = ('{"classes":[[[1,4,4],[2,8,8],[3,12,12],[4,15,16],[5,20,20]],'
                  '[[1,4,4],[2,8,8],[3,9,12],[5,20,20]]],'
                  '"coloring_rle":"0x4 1x1 0x4 1x2 0x4 1x3 0x2 1x2 0x1 1x4 0x4 1x4 0x1 1x4",'
                  '"growth":"linear:4","length":40,"palette":2}')


def test_the_length_40_linear4_certificate_verifies():
    cert = WitnessCertificate.from_json(LINEAR4_RECORD)
    assert verify_certificate(cert)
    assert (cert.proves_exceeds, cert.to_json()) == (40, LINEAR4_RECORD)
    for c in (0, 1):   # neither color extends it
        assert is_witness(Coloring(2, cert.coloring.values + (c,)), GrowthFn.linear(4)) is None


def test_tampered_certificates_are_rejected():
    cert = is_witness(C1, EXP2)
    doc = json.loads(cert.to_json())

    wrong_growth = dict(doc, growth="linear:1")
    bad = WitnessCertificate.from_json(json.dumps(wrong_growth))
    assert not verify_certificate(bad)

    wrong_runs = json.loads(cert.to_json())
    wrong_runs["classes"][0][0][1] += 1
    bad = WitnessCertificate.from_json(json.dumps(wrong_runs))
    assert not verify_certificate(bad)

    with pytest.raises(InvalidArgumentError):
        WitnessCertificate.from_json(json.dumps(dict(doc, growth=5)))
    with pytest.raises(InvalidArgumentError):
        WitnessCertificate.from_json(json.dumps(dict(doc, length=None)))
    # malformed documents: a missing key, a number too long to parse, a
    # document that is not an object, classes that are not a list, and
    # nesting too deep for the parser
    for text in ('{"palette": 1}', '{"length": ' + "9" * 5001 + "}", "[1]",
                 json.dumps(dict(doc, classes=5)), "[" * 100_000):
        with pytest.raises(InvalidArgumentError):
            WitnessCertificate.from_json(text)


@pytest.mark.parametrize("palette", [2.5, True, 2.0, "2"])
def test_certificate_palette_must_be_an_int(palette):
    # 2.5 used to load and then fail verify_certificate with a bare TypeError,
    # and true loaded and verified as palette True
    doc = json.loads(is_witness(C1, EXP2).to_json())
    with pytest.raises(InvalidArgumentError, match="palette must be an int"):
        WitnessCertificate.from_json(json.dumps(dict(doc, palette=palette)))


def _tamper_palette(doc):
    doc["classes"].append([])


def _tamper_run(doc):
    doc["classes"][0][1][1] += 1


def _tamper_limit(doc):
    doc["classes"][0][1][2] += 1


@pytest.mark.parametrize("tamper", [
    _tamper_palette, _tamper_run, _tamper_limit,
    lambda doc: doc.update(growth="table:"),                   # unparseable
    lambda doc: doc.update(growth="table:3,1,2"),              # not nondecreasing
    lambda doc: doc.update(growth="table:1,2;tail=const"),     # not the canonical spelling
], ids=["palette-count", "run", "f-of-d", "unparseable", "non-monotone", "non-canonical"])
def test_verify_certificate_rejects_each_tampering(tamper):
    cert = is_witness(Coloring(2, (0, 1, 0, 1)), GrowthFn.from_table((1, 2)))
    assert cert.per_class[0] == ((1, 1, 2), (2, 2, 2))
    assert verify_certificate(cert)
    doc = json.loads(cert.to_json())
    tamper(doc)
    assert not verify_certificate(WitnessCertificate.from_json(json.dumps(doc)))


VERIFY_SPECS = ["linear:1", "linear:2", "exp2", "table:1,2", "table:1,2;tail=const",
                "table:0,2;tail=linear", "closure:table:3,1,2", "closure:linear:1"]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.lists(st.integers(min_value=0, max_value=2), max_size=10),
       st.sampled_from(VERIFY_SPECS), st.sampled_from(["none", "triple", "count"]),
       st.integers(min_value=0))
def test_verify_certificate_is_exact_reproduction(palette, raw, spec, mutation, seed):
    coloring = Coloring(palette, tuple(v % palette for v in raw))
    f = parse_growth_spec(spec)
    # the kernel's transcripts for every class, violating classes included
    per_class = [[list(t) for t in _check_class(h, f)[1]] for h in coloring.classes()]
    rng = random.Random(seed)
    if mutation == "triple" and any(per_class):
        triple = rng.choice(rng.choice([c for c in per_class if c]))
        triple[rng.randrange(3)] += rng.choice((-1, 1))
    elif mutation == "count":
        per_class.append([])
    cert = WitnessCertificate(coloring, spec, tuple(tuple(map(tuple, c)) for c in per_class))
    assert verify_certificate(cert) == (is_witness(coloring, f) == cert)


def test_empty_coloring_is_a_witness():
    cert = is_witness(Coloring(3, ()), LIN1)
    assert cert is not None
    assert cert.per_class == ((), (), ())
    assert verify_certificate(cert)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0))
def test_witness_monotone_in_growth(n, seed):
    rng = random.Random(seed)
    coloring = Coloring(2, tuple(rng.randrange(2) for _ in range(n)))
    # linear:1 <= linear:2 <= exp2 pointwise on the relevant domain
    if is_witness(coloring, LIN1) is not None:
        assert is_witness(coloring, LIN2) is not None
    if is_witness(coloring, LIN2) is not None:
        assert is_witness(coloring, EXP2) is not None
