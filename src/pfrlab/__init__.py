"""One-shot variable-length lossy compression via the Poisson functional representation.

A finite-alphabet toolkit: exact rate-distortion solving (Blahut-Arimoto with
tilted information), seed-deterministic marked Poisson codebooks, the
functional-representation selector with its exact index laws, bit-exact
integer codes, and a Monte Carlo harness that checks every pointwise
redundancy bound, including the one-shot lossy Gray-Wyner extension.
"""

from .bitcodes import (BitString, decode_delta, decode_plain, delta_code_length,
                       encode_delta, encode_plain, plain_code_length)
from .codebook import CodebookStream, MarkedPoint, arrival_stream, derive_subseed
from .errors import (AbsoluteContinuityViolated, MalformedCodeword, NotConverged,
                     PfrlabError, RoundTripMismatch, TargetOutOfRange,
                     UnsupportedEta, UnsupportedPoint)
from .gray_wyner import (GwModel, GwResult, ResortedStream, gw_decode,
                         gw_dominance_params, gw_encode, gw_records_to_csv,
                         gw_run_trials)
from .pfr import (PfrResult, dominance_parameter, geometric_parameter_exact,
                  pfr_select)
from .prob import (DistortionMatrix, FinitePmf, Kernel, RngState, Seed,
                   SymbolId, entropy, kl_divergence, mutual_information,
                   sample_pmf)
from .rd import RdSolution, ba_fixed_slope, solve_at_distortion, tilted_information
from .redundancy import (CODE_KINDS, ETA_KINDS, TailEstimate, TrialSummary,
                         bound_rhs, estimate_tail, records_to_csv, run_trials,
                         summary_stats)

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityViolated", "BitString", "CODE_KINDS", "CodebookStream",
    "DistortionMatrix", "ETA_KINDS", "FinitePmf", "GwModel", "GwResult",
    "Kernel", "MalformedCodeword", "MarkedPoint", "NotConverged", "PfrResult",
    "PfrlabError", "RdSolution", "ResortedStream", "RngState",
    "RoundTripMismatch", "Seed", "SymbolId", "TailEstimate", "TargetOutOfRange",
    "TrialSummary", "UnsupportedEta", "UnsupportedPoint", "arrival_stream",
    "ba_fixed_slope", "bound_rhs", "decode_delta", "decode_plain",
    "delta_code_length", "derive_subseed", "dominance_parameter",
    "encode_delta", "encode_plain", "entropy", "estimate_tail",
    "geometric_parameter_exact", "gw_decode", "gw_dominance_params",
    "gw_encode", "gw_records_to_csv", "gw_run_trials", "kl_divergence",
    "mutual_information", "pfr_select", "plain_code_length", "records_to_csv",
    "run_trials", "sample_pmf", "solve_at_distortion", "summary_stats",
    "tilted_information",
]
