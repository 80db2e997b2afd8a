"""Acceptance suite: one test per criterion, each timed against its stated
budget and printing a PASS line (run with ``pytest -s`` to see them live)."""

import itertools
import random
import time

from brownlab.checker import (has_large_homogeneous,
                              has_large_homogeneous_bruteforce, is_witness,
                              verify_certificate)
from brownlab.core import Coloring, GrowthFn, gap_size
from brownlab.constructions import (ardal_bound, decompose_ps,
                                    diag_bound_check, extract_homogeneous_ps,
                                    ladder, ladder_lengths,
                                    ladder_lower_bound_check, ladder_verify,
                                    ps_generate, ps_problems, tower,
                                    upper_bound_seq)
from brownlab.progressions import ap_partition_check
from brownlab.search import (brown_number, brown_number_bruteforce,
                             confirm_no_ap_witness, vdw_number,
                             vdw_number_bruteforce)

LIN1 = GrowthFn.linear(1)
LIN2 = GrowthFn.linear(2)
EXP2 = GrowthFn.exp2()


class _Timer:
    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        if exc_type is None:
            status = "PASS" if elapsed < self.limit else "PASS (over time budget)"
            print(f"ACCEPTANCE {self.number} {status}: {self.label} "
                  f"[{elapsed:.1f}s / {self.limit}s]")
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.1f}s")
        else:
            print(f"ACCEPTANCE {self.number} FAIL: {self.label} [{elapsed:.1f}s]")
        return False


def test_criterion_1_ladder_verification():
    with _Timer(1, "ladder stages 0..2 verified, lengths 2 / 16 / 2097152", 30):
        assert ladder_lengths(2) == [2, 16, 2_097_152]
        for s in (0, 1, 2):
            stage = ladder(s)
            report = ladder_verify(stage)
            assert report.all_ok, report.failures
            assert len(report.claims) == 2 ** s
            cert = is_witness(stage.coloring, EXP2)
            assert cert is not None and cert.proves_exceeds == stage.length
        assert ladder(2).length == 2_097_152


def test_criterion_2_exact_brown_numbers():
    with _Timer(2, "exact thresholds at desk scale, oracle-confirmed", 5):
        assert brown_number(LIN1, 1).value == 2 == brown_number_bruteforce(LIN1, 1)
        assert brown_number(LIN2, 1).value == 3 == brown_number_bruteforce(LIN2, 1)
        two_color = brown_number(LIN1, 2)
        assert two_color.kind == "exact"
        assert two_color.value == brown_number_bruteforce(LIN1, 2)
        assert two_color.value <= ardal_bound(1, 2) == 5


def test_criterion_3_lower_bound_chain():
    with _Timer(3, "stage-1 witness certifies > 16; exp2 bracket within [17, 33]", 600):
        c1 = ladder(1).coloring
        cert = is_witness(c1, EXP2)
        assert cert is not None
        assert cert.proves_exceeds == 16
        assert verify_certificate(cert)

        outcome = brown_number(EXP2, 2)
        assert 17 <= outcome.lower
        assert outcome.upper is not None
        assert outcome.lower <= outcome.upper <= upper_bound_seq(EXP2, 2) == 33
        # exact determination was the stretch goal; it lands at 17
        assert outcome.kind == "exact" and outcome.value == 17


def test_criterion_4_bound_evaluators():
    with _Timer(4, "closed-form bounds, towers, ladder-vs-tower domination", 5):
        assert [ardal_bound(m, r) for m, r in ((1, 1), (1, 2), (1, 3), (2, 2))] \
            == [2, 5, 16, 25]
        assert [upper_bound_seq(EXP2, r) for r in (1, 2, 3)] \
            == [4, 33, 3 * 2 ** 33 + 1]
        assert tower(0, 5) == 5 and tower(2, 2) == 16 and tower(3, 1) == 16
        report = ladder_lower_bound_check(3)
        assert report.all_hold
        lengths = ladder_lengths(3)
        assert lengths[3].bit_length() > 2_000_000
        assert lengths[3] >= tower(3, 1)


def test_criterion_5_oracle_equivalence():
    fns = (LIN1, LIN2, EXP2)
    with _Timer(5, "window reduction == subset oracle, exhaustive + randomized", 120):
        checked = 0
        for n in range(0, 13):
            for values in itertools.product(range(2), repeat=n):
                coloring = Coloring(2, values)
                for f in fns:
                    fast = has_large_homogeneous(coloring, f) is not None
                    brute = has_large_homogeneous_bruteforce(coloring, f) is not None
                    assert fast == brute, (values, f.spec_string())
                    checked += 1
        assert checked == 3 * (2 ** 13 - 1)

        rng = random.Random(20260810)
        for _ in range(100_000):
            n = rng.randint(0, 12)
            coloring = Coloring(3, tuple(rng.randrange(3) for _ in range(n)))
            for f in fns:
                fast = has_large_homogeneous(coloring, f) is not None
                brute = has_large_homogeneous_bruteforce(coloring, f) is not None
                assert fast == brute, (coloring.values, f.spec_string())


def test_criterion_6_diagonal_bound_tightness():
    with _Timer(6, "alternating-block bound attained exactly for d <= 64", 10):
        for d in range(1, 65):
            assert diag_bound_check(d, 100_000) == d


def test_criterion_7_vdw_numbers():
    with _Timer(7, "van der Waerden degenerate families and exact W(2,3)", 60):
        for l in (1, 2, 3, 5, 9):
            assert vdw_number(1, l).value == l
        for r in (1, 2, 3, 5):
            assert vdw_number(r, 1).value == 1
        outcome = vdw_number(2, 3)
        assert outcome.kind == "exact"
        assert outcome.value == vdw_number_bruteforce(2, 3)
        assert ap_partition_check(outcome.witness, 3) is None
        assert outcome.witness.length == outcome.value - 1
        assert confirm_no_ap_witness(outcome.value, 2, 3).result is True


def test_criterion_8_constructions():
    rng = random.Random(88)
    with _Timer(8, "block generator, decomposition identity, extraction demos", 30):
        # block prefixes: sizes, exact internal gaps, separation, growth bound
        for _ in range(100):
            palette = rng.randint(2, 6)
            blocks = 141      # 141 * 142 / 2 = 10011 elements > 10^4
            values = tuple(rng.randint(1, palette - 1) for _ in range(blocks + 1))
            gaps = Coloring(palette, values)
            prefix = ps_generate(gaps, blocks)
            assert len(prefix.elements) > 10_000
            assert ps_problems(prefix, gaps) == []

        # decomposition identity on random piecewise-syndetic prefixes
        for _ in range(100):
            d = rng.randint(1, 5)
            blocks = rng.randint(5, 40)
            gaps = Coloring(d + 1, tuple(rng.randint(1, d) for _ in range(blocks + 1)))
            xs = ps_generate(gaps, blocks).elements
            horizon = xs[-1] + rng.randint(1, 10)
            y, z = decompose_ps(xs, d, horizon)
            cut = horizon - d
            assert {v for v in xs if v < cut} == \
                {v for v in set(y) & set(z) if v < cut}

        # extraction succeeds on generated instances for all small parameters
        for n in range(1, 6):
            for d in range(1, 4):
                for e in range(1, 4):
                    needed = (2 * n * e - 1) * (2 * n * e) // 2 + 2 * n
                    top_index = e * (needed - 1) + 1
                    blocks = 1
                    while blocks * (blocks + 1) // 2 < top_index:
                        blocks += 1
                    gaps = Coloring(d + 1, tuple(rng.randint(1, d)
                                                 for _ in range(blocks + 2)))
                    prefix = ps_generate(gaps, blocks + 1)
                    indices = tuple(range(0, e * needed, e))
                    subset = extract_homogeneous_ps(d, e, indices, prefix, n)
                    assert len(subset) == n, (n, d, e)
                    assert gap_size(subset) <= e * d
