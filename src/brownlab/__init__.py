"""brownlab: thresholds, witnesses and bounds for gap-bounded colorings.

The library decides when finite colorings must contain homogeneous sets
that outgrow a gap-indexed budget, searches for the exact thresholds
(with certified witnesses and independent brute-force oracles), builds
the explicit constructions that pin the thresholds from below, and
evaluates the closed-form bounds that pin them from above, all in exact
arbitrary-precision arithmetic.
"""

from .core import (Coloring, FiniteSet, GapSpectrum, GrowthFn, finite_set,
                   gap_size, gap_spectrum, max_run_size, monotone_closure,
                   parse_growth_spec, windows)
from .checker import (WindowViolation, WitnessCertificate, bruteforce_profile,
                      has_large_homogeneous, has_large_homogeneous_bruteforce,
                      is_witness, star_violation, verify_certificate)
from .search import (ConfirmOutcome, SearchBudget, SearchOutcome, brown_number,
                     brown_number_bruteforce, confirm_no_ap_witness,
                     confirm_no_witness, formula_upper_bound, vdw_number,
                     vdw_number_bruteforce)
from .constructions import (BlockPrefix, ExtractReport, LadderStage,
                            LadderVerifyReport, ardal_bound, decompose_ps,
                            diag, diag_bound_check, diag_prefix,
                            extract_homogeneous_ps, ladder,
                            ladder_lower_bound_check, ladder_verify,
                            ps_generate, ps_problems, tower, upper_bound_seq)
from .progressions import (ApReport, ApWitness, ap_partition_check,
                           ap_transfer, class_ap_report, longest_ap)
from .colorfile import decode_coloring, encode_coloring, rle_decode, rle_encode
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Coloring", "FiniteSet", "GapSpectrum", "GrowthFn", "finite_set",
    "gap_size", "gap_spectrum", "max_run_size", "monotone_closure",
    "parse_growth_spec", "windows",
    "WindowViolation", "WitnessCertificate", "bruteforce_profile",
    "has_large_homogeneous", "has_large_homogeneous_bruteforce", "is_witness",
    "star_violation", "verify_certificate",
    "ConfirmOutcome", "SearchBudget", "SearchOutcome", "brown_number",
    "brown_number_bruteforce", "confirm_no_ap_witness", "confirm_no_witness",
    "formula_upper_bound", "vdw_number", "vdw_number_bruteforce",
    "BlockPrefix", "ExtractReport", "LadderStage", "LadderVerifyReport",
    "ardal_bound", "decompose_ps", "diag", "diag_bound_check", "diag_prefix",
    "extract_homogeneous_ps", "ladder", "ladder_lower_bound_check",
    "ladder_verify", "ps_generate", "ps_problems", "tower", "upper_bound_seq",
    "ApReport", "ApWitness", "ap_partition_check", "ap_transfer",
    "class_ap_report", "longest_ap",
    "decode_coloring", "encode_coloring", "rle_decode", "rle_encode",
    "errors",
]
