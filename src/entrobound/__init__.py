"""Certified entropy and deviation bounds for countable discrete models.

The pipeline: describe a distribution on the positive integers together
with a verifiable tail certificate, certify an upper estimate of its
fractional power sum, and turn that constant into entropy enclosures,
Bernstein-type deviation bounds, and sample size calculations. A seeded
Monte Carlo harness checks the bounds empirically.
"""

from .bounds import (
    SQRT_PI,
    BernsteinConstants,
    bernstein_constants,
    chernoff_lambda_star,
    deviation_bound,
    epsilon_for,
    heterogeneous_deviation_bound,
    mgf_exact,
    mgf_log_bound,
    min_sample_size,
    select_r,
)
from .certify import (
    DEFAULT_SLACK,
    TRUNCATION_CAP,
    EntropyInterval,
    MomentCertificate,
    admissible_r_interval,
    certify_moment,
    certify_moment_powerlaw,
    certify_moment_ratio,
    default_r,
    entropy_interval,
    entropy_upper_coarse,
    power_sum_partial,
)
from .distributions import (
    Geometric,
    GeometricRatioTail,
    NegativeBinomial,
    PmfModel,
    Poisson,
    PowerLawTail,
    Tabulated,
    Zeta,
    tail_from_dict,
)
from .errors import (
    AdmissibilityError,
    MissingCertificateError,
    ModelError,
    ReportIntegrityError,
    ResourceCapError,
    SweepAborted,
)
from .montecarlo import (
    DEFAULT_REPLICATES,
    EpsRecord,
    SimulationConfig,
    SimulationReport,
    estimate_deviation_probability,
    estimate_mgf,
    replicate_log_likelihood_means,
    reports_to_csv,
    reports_to_json,
    sweep,
    verify_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "PmfModel",
    "Poisson",
    "Geometric",
    "NegativeBinomial",
    "Zeta",
    "Tabulated",
    "PowerLawTail",
    "GeometricRatioTail",
    "tail_from_dict",
    # certification
    "MomentCertificate",
    "EntropyInterval",
    "certify_moment",
    "certify_moment_powerlaw",
    "certify_moment_ratio",
    "admissible_r_interval",
    "default_r",
    "power_sum_partial",
    "entropy_interval",
    "entropy_upper_coarse",
    "DEFAULT_SLACK",
    "TRUNCATION_CAP",
    # bounds
    "BernsteinConstants",
    "bernstein_constants",
    "deviation_bound",
    "heterogeneous_deviation_bound",
    "mgf_log_bound",
    "mgf_exact",
    "chernoff_lambda_star",
    "min_sample_size",
    "epsilon_for",
    "select_r",
    "SQRT_PI",
    # simulation
    "SimulationConfig",
    "SimulationReport",
    "EpsRecord",
    "DEFAULT_REPLICATES",
    "replicate_log_likelihood_means",
    "estimate_deviation_probability",
    "estimate_mgf",
    "sweep",
    "verify_bound",
    "reports_to_csv",
    "reports_to_json",
    # errors
    "ModelError",
    "MissingCertificateError",
    "AdmissibilityError",
    "ResourceCapError",
    "ReportIntegrityError",
    "SweepAborted",
]
