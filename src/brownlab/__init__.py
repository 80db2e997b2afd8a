"""brownlab: thresholds, witnesses and bounds for gap-bounded colorings.

The library decides when finite colorings must contain homogeneous sets
that outgrow a gap-indexed budget, searches for the exact thresholds
(with certified witnesses and independent brute-force oracles), builds
the explicit constructions that pin the thresholds from below, and
evaluates the closed-form bounds that pin them from above, all in exact
arbitrary-precision arithmetic.
"""

from .core import (Coloring, FiniteSet, GrowthFn, gap_size, max_run_size,
                   parse_growth_spec)
from .checker import (WindowViolation, WitnessCertificate, has_large_homogeneous,
                      has_large_homogeneous_bruteforce, is_witness, star_violation,
                      verify_certificate)
from .search import (ConfirmOutcome, SearchBudget, SearchOutcome, brown_number,
                     brown_number_bruteforce, confirm_no_ap_witness,
                     confirm_no_witness, vdw_number, vdw_number_bruteforce)
from .constructions import (BlockPrefix, LadderStage, LadderVerifyReport, ardal_bound,
                            decompose_ps, diag_bound_check, diag_prefix,
                            extract_homogeneous_ps, ladder, ladder_lower_bound_check,
                            ladder_verify, ps_generate, ps_problems, tower, upper_bound_seq)
from .progressions import ApWitness, ap_partition_check
from .colorfile import decode_coloring, encode_coloring
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Coloring", "FiniteSet", "GrowthFn", "gap_size", "max_run_size",
    "parse_growth_spec",
    "WindowViolation", "WitnessCertificate", "has_large_homogeneous",
    "has_large_homogeneous_bruteforce", "is_witness", "star_violation",
    "verify_certificate",
    "ConfirmOutcome", "SearchBudget", "SearchOutcome", "brown_number",
    "brown_number_bruteforce", "confirm_no_ap_witness", "confirm_no_witness",
    "vdw_number", "vdw_number_bruteforce",
    "BlockPrefix", "LadderStage", "LadderVerifyReport",
    "ardal_bound", "decompose_ps", "diag_bound_check", "diag_prefix",
    "extract_homogeneous_ps", "ladder", "ladder_lower_bound_check",
    "ladder_verify", "ps_generate", "ps_problems", "tower", "upper_bound_seq",
    "ApWitness", "ap_partition_check",
    "decode_coloring", "encode_coloring",
    "errors",
]
