"""Operator-valued Dyson equation solvers and Monte Carlo spectral
statistics for block random matrices."""

from .dyson import (DysonSolution, SolverOptions, cdf_from_density,
                    certified_traces, circulant_mixture, mixture_cauchy,
                    scalar_semicircle_cauchy, solve_dyson, solve_semicircular,
                    solve_wishart, stieltjes_density)
from .esd import (EmpiricalCDF, MeanCauchyResult, empirical_cauchy,
                  kolmogorov_distance, mean_cauchy, trial_mean)
from .eta import (CovarianceMap, CovarianceTensor, EtaPair,
                  eta_correlated_tensor, eta_exchangeable_pool,
                  eta_iid_blocks, eta_kronecker, eta_wigner_blocks,
                  eta_wishart_pair, flat_map, scalar_map)
from .experiments import (CirculantKsReport, RateReport, UniversalityReport,
                          WishartConsistencyReport, analytic_trace_cauchy,
                          circulant_ks_experiment, model_eta,
                          rate_experiment, universality_experiment,
                          wishart_consistency_experiment)
from .sampler import (ComplexGaussian, ModelSpec, PermutationPool,
                      Rademacher, RealGaussian, TwoPoint,
                      matrix_from_bytes, matrix_to_bytes, sample_matrix,
                      spectrum)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
