"""Independence testing for many jointly normal variables.

The test statistic is the sum of squared pairwise sample correlations; the
library pairs it with an exact Gaussian moment engine, calibrated
alternative families, and a reproducible Monte Carlo harness that checks
the finite-sample moment formulas and the asymptotic power curve.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateColumn, DimensionMismatch,
                     DomainError, HidimError, IndexOutOfRange,
                     NotPositiveSemidefinite, TooLarge, Unachievable)
from .matrix import CholeskyFactor, CorrMatrix, cholesky, frobenius_signal
from .moments import (KernelExpectations, central_pair_moment,
                      central_product_moment, expected_ii1, f_partial,
                      isserlis_moment, kernel_expectations, pair_partitions,
                      s_sum, var_i_exact)
from .stats import (CovMode, DataMatrix, Decomposition, TestReport,
                    decompose, martingale_differences, max_statistic,
                    rao_score_test, report_from_statistic, statistic_t, term_i)
from .theory import (PowerPrediction, asymptotic_power, normal_cdf,
                     normal_quantile, normal_tail)
from .generators import (AlternativeFamily, Seed, calibrate_to_theta,
                         make_family_matrix, sample_from_matrix,
                         sample_gaussian, standard_normal_block,
                         standard_normal_blocks)
from .sim import (MomentCheck, NullReport, PowerPoint, SimConfig,
                  ks_statistic_vs_normal, run_null, run_power_curve,
                  verify_e_ii1, verify_kernels, verify_var_i,
                  write_power_csv)

__all__ = [
    # errors
    "ConfigError", "DegenerateColumn", "DimensionMismatch", "DomainError",
    "HidimError", "IndexOutOfRange", "NotPositiveSemidefinite", "TooLarge",
    "Unachievable",
    # matrix
    "CholeskyFactor", "CorrMatrix", "cholesky", "frobenius_signal",
    # moments
    "KernelExpectations", "central_pair_moment", "central_product_moment",
    "expected_ii1", "f_partial", "isserlis_moment", "kernel_expectations",
    "pair_partitions", "s_sum", "var_i_exact",
    # stats
    "CovMode", "DataMatrix", "Decomposition", "TestReport", "decompose",
    "martingale_differences", "max_statistic", "rao_score_test",
    "report_from_statistic", "statistic_t", "term_i",
    # theory
    "PowerPrediction", "asymptotic_power", "normal_cdf", "normal_quantile",
    "normal_tail",
    # generators
    "AlternativeFamily", "Seed", "calibrate_to_theta", "make_family_matrix",
    "sample_from_matrix", "sample_gaussian", "standard_normal_block",
    "standard_normal_blocks",
    # sim
    "MomentCheck", "NullReport", "PowerPoint", "SimConfig",
    "ks_statistic_vs_normal", "run_null", "run_power_curve", "verify_e_ii1",
    "verify_kernels", "verify_var_i", "write_power_csv",
]
