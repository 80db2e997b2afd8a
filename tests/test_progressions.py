import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brownlab.core import Coloring
from brownlab.errors import InvalidArgumentError
from brownlab.progressions import ApWitness, ap_partition_check
from brownlab.search import vdw_number


# ---------------------------------------------------------------------------
# ap_partition_check
# ---------------------------------------------------------------------------


def test_partition_check_examples():
    c = Coloring(2, (0, 1, 0, 1, 0, 1, 0, 1))
    color, witness = ap_partition_check(c, 3)
    assert color == 0 and witness == ApWitness(0, 2, 3)

    assert ap_partition_check(Coloring(2, (0, 1)), 2) is None

    c = Coloring(2, (0, 0))
    color, witness = ap_partition_check(c, 2)
    assert color == 0 and witness.elements() == (0, 1)


def test_partition_check_single_terms():
    assert ap_partition_check(Coloring(3, ()), 1) is None
    color, witness = ap_partition_check(Coloring(3, (2, 0)), 1)
    assert color == 2 and witness.length == 1


def test_partition_check_rejects_zero_length():
    with pytest.raises(InvalidArgumentError):
        ap_partition_check(Coloring(2, (0,)), 0)


def test_every_long_enough_coloring_has_a_progression():
    # once length reaches the 2-color 3-term threshold, a hit is guaranteed
    threshold = vdw_number(2, 3).value
    assert threshold == 9
    rng = random.Random(23)
    for _ in range(300):
        values = tuple(rng.randrange(2) for _ in range(threshold))
        hit = ap_partition_check(Coloring(2, values), 3)
        assert hit is not None
        color, witness = hit
        assert all(values[x] == color for x in witness.elements())


def test_partition_regularity_on_hosted_progressions():
    # color a 2*threshold-term progression; some class hosts a 3-term
    # progression of indices, and indexing the host with it lands a
    # monochromatic progression with the product difference
    threshold = vdw_number(2, 3).value
    rng = random.Random(9)
    for q in (1, 3, 7):
        host = tuple(5 + q * i for i in range(2 * threshold))
        for _ in range(50):
            values = tuple(rng.randrange(2) for _ in range(len(host)))
            hit = ap_partition_check(Coloring(2, values), 3)
            assert hit is not None
            color, witness = hit
            image = [host[m] for m in witness.elements()]
            assert image[1] - image[0] == image[2] - image[1] == q * witness.difference
            assert all(values[m] == color for m in witness.elements())


def _first_progression(values, l):
    """The reference: every (start, difference) pair in ascending order, each
    tried term by term, whatever the color of its second term."""
    n = len(values)
    if l == 1:
        return (values[0], ApWitness(0, 0, 1)) if n else None
    span = l - 1
    for start in range(n):
        color = values[start]
        max_diff = (n - 1 - start) // span
        for diff in range(1, max_diff + 1):
            if all(values[start + i * diff] == color for i in range(1, l)):
                return color, ApWitness(start, diff, l)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
           st.just(r), st.lists(st.integers(0, r - 1), max_size=40).map(tuple))),
       st.integers(1, 6))
@example((2, (0, 1, 0, 1, 0, 1, 0, 1)), 3)
@example((3, (0, 1, 2, 0, 1, 2, 0)), 3)          # only a difference of 3 is monochromatic
@example((1, ()), 2)
def test_partition_check_tries_class_pairs_in_the_reference_order(case, l):
    r, values = case
    assert ap_partition_check(Coloring(r, values), l) == _first_progression(values, l)
