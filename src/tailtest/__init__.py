"""Two-sample divergence testing for multivariate extremal dependence.

The library standardizes two samples to a common Pareto scale, partitions
the exceedances of a homogeneous risk functional into cells, and compares
the two cell-probability vectors with a symmetrized Kullback-Leibler
statistic, calibrated either against its chi-squared limit (known margins)
or a split-half subsample bootstrap (empirical margins).
"""

__version__ = "0.1.0"

from .copulas import CopulaModel, copula_cdf, match_chi, sample, theoretical_chi
from .divergence import (ChiEstimate, Divergence, d3_from_chi,
                         extremal_correlation, kl_divergence, symmetric_kl)
from .errors import (ConfigError, DegenerateMarginError, DomainError, FormatError,
                     InsufficientDataError, InsufficientTailError, NumericalError,
                     ShapeError, TailTestError)
from .inference import (NullDistribution, TestConfig, TestReport, bootstrap_null,
                        bootstrap_p_value, build_partition, run_test)
from .margins import (KNOWN_CDF_STUBS, Sample, to_pareto, to_pseudo,
                      uniform_cdf, unit_exponential_cdf, unit_pareto_cdf)
from .numerics import RngStream, chisq_cdf, chisq_quantile, chisq_sf
from .partitions import (CellProbabilities, Partition, RiskFunctional, count_cells,
                         make_angular_partition, make_max_partition, make_min_partition)

__all__ = [
    "__version__",
    "CellProbabilities", "ChiEstimate", "ConfigError", "CopulaModel",
    "DegenerateMarginError", "Divergence", "DomainError", "FormatError",
    "InsufficientDataError", "InsufficientTailError", "KNOWN_CDF_STUBS",
    "NullDistribution", "NumericalError", "Partition", "RiskFunctional", "RngStream",
    "Sample", "ShapeError", "TailTestError", "TestConfig", "TestReport",
    "bootstrap_null", "bootstrap_p_value", "build_partition", "chisq_cdf",
    "chisq_quantile", "chisq_sf", "copula_cdf", "count_cells", "d3_from_chi",
    "extremal_correlation", "kl_divergence", "make_angular_partition",
    "make_max_partition", "make_min_partition", "match_chi", "run_test",
    "sample", "symmetric_kl", "theoretical_chi", "to_pareto", "to_pseudo",
    "uniform_cdf", "unit_exponential_cdf", "unit_pareto_cdf",
]
