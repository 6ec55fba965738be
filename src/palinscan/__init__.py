"""Scan statistics for DNA palindromes under Markov null models.

The package covers the full pipeline: sequence I/O and encoding
(:mod:`palinscan.seqio`), first-order Markov model estimation and
palindrome rates (:mod:`palinscan.markov`), palindrome detection and
scoring under a ScoreModel (:mod:`palinscan.palindrome`; events are one
PalindromeTable of arrays that carries its detection threshold from
detection to window sums),
analytic score MGFs and their cumulants with exponential tilting
(:mod:`palinscan.mgf`), windowed scan p-values and thresholds with a
deterministic overshoot correction computed from the score MGF
(:mod:`palinscan.scan`), and hot-spot robustness / power simulations
(:mod:`palinscan.sim`). Independent bases are the Markov model
``iid_model(pi)``; every formula has one implementation for both, so the
iid rate is ``markov_rate(iid_model(pi), h)``.
"""

from .errors import (
    ConvergenceError,
    CrowdedSegmentError,
    DomainError,
    EmptyBankError,
    EstimationError,
    FastaError,
    FetchError,
    InfiniteScoreError,
    NonFiniteError,
    PalinscanError,
    SingularMatrixError,
)
from .markov import (
    BOHV1_GENOME_LENGTH,
    MarkovModel,
    RateEstimate,
    bohv1_model,
    center_pair_probs,
    estimate_model,
    generate_sequence,
    iid_model,
    markov_rate,
    quasi_transition_matrix,
)
from .mgf import (
    ScoreModel,
    cumulants,
    mgf_domain,
    score_mgf,
)
from .palindrome import (
    PalindromeTable,
    average_rate,
    find_palindromes,
    score_events,
)
from .scan import (
    PvalueReport,
    TiltSolution,
    WindowSeries,
    analytic_nu,
    p_value,
    solve_tilt,
    threshold_for_alpha,
    window_scores,
)
from .seqio import (
    ALPHABET,
    DnaSeq,
    FastaRecord,
    fetch_sequence,
    parse_fasta,
    parse_fasta_file,
)
from .sim import (
    ExperimentConfig,
    HotspotSpec,
    PowerExperimentResult,
    PowerRow,
    RateExperimentResult,
    default_hotspot_specs,
    insert_hotspots,
    power_experiment,
    rate_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "BOHV1_GENOME_LENGTH",
    "ConvergenceError",
    "CrowdedSegmentError",
    "DnaSeq",
    "DomainError",
    "EmptyBankError",
    "EstimationError",
    "ExperimentConfig",
    "FastaError",
    "FastaRecord",
    "FetchError",
    "HotspotSpec",
    "InfiniteScoreError",
    "MarkovModel",
    "NonFiniteError",
    "PalindromeTable",
    "PalinscanError",
    "PowerExperimentResult",
    "PowerRow",
    "PvalueReport",
    "RateEstimate",
    "RateExperimentResult",
    "ScoreModel",
    "SingularMatrixError",
    "TiltSolution",
    "WindowSeries",
    "analytic_nu",
    "average_rate",
    "bohv1_model",
    "center_pair_probs",
    "cumulants",
    "default_hotspot_specs",
    "estimate_model",
    "fetch_sequence",
    "find_palindromes",
    "generate_sequence",
    "iid_model",
    "insert_hotspots",
    "markov_rate",
    "mgf_domain",
    "p_value",
    "parse_fasta",
    "parse_fasta_file",
    "power_experiment",
    "quasi_transition_matrix",
    "rate_experiment",
    "score_events",
    "score_mgf",
    "solve_tilt",
    "threshold_for_alpha",
    "window_scores",
]
