"""Numerical verification of entropy concavity for Bernoulli sums.

The library builds Poisson binomial mass functions exactly, differentiates
their entropy analytically along affine parameter paths, checks the whole
ladder of inequalities that drives the concavity argument, and explores the
Renyi/Tsallis generalization including its critical q values.
"""

from .calculus import (
    AffinePath,
    HessianReport,
    PathDerivatives,
    entropy_curvature,
    entropy_hessian,
    path_at,
    path_derivatives,
    pmf_second_time_derivative,
    pmf_time_derivative,
    shannon_entropy,
)
from .errors import BoundaryError, ConsistencyError, LemmaHypothesisError
from .explorer import (
    CounterexampleCertificate,
    ScanConfig,
    ScanReport,
    estimate_critical_q,
    run_scan,
)
from .inequalities import (
    MarginReport,
    SmoothFunction,
    UkBranch,
    UkDecomposition,
    UkTerm,
    X_LOG_X,
    c1_product_identity_residual,
    check_functional_lemma,
    check_monotone_worst_case,
    check_quadratic_decomposition_n2,
    compute_cij,
)
from .pmf import ParamVector, Pmf, compute_pmf
from .qentropy import (
    CriticalQResult,
    EntropySpec,
    TsallisUkReport,
    binomial2_tsallis_curvature,
    chain_rule_check,
    find_critical_q,
    power_sum_derivatives,
    q_curvature,
    q_entropy,
    q_entropy_second_derivative,
    tsallis_uk,
    tsallis_uk_tilde,
)

__version__ = "0.1.0"
