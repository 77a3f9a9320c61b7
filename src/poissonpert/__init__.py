"""Perturbation and sensitivity analysis of Poisson point-process functionals
and Levy path functionals.

The exact engine on finite discrete spaces is the oracle backbone: series,
likelihood, and derivative formulas are all cross-checked against it, and the
Monte Carlo estimators against closed forms and coupled finite differences.
"""

from .configuration import (DIFFERENCE_ORDER_CAP, Functional, PointConfiguration,
                            constant_functional, count_functional, count_squared,
                            difference_n, difference_n_recursive, threshold_indicator,
                            void_indicator)
from .derivatives import (coupled_scale_fd, linear_derivative, nonlinear_derivative,
                          pivotal_derivative, richardson_fd, scaled_derivative,
                          scaled_taylor_report)
from .exact import (EnumerationPlan, FockCheck, exact_expectation,
                    exact_expected_difference, fock_identity_check,
                    poisson_hellinger_exact)
from .likelihood import (LikelihoodRatio, likelihood_eval, plan_for_measures,
                         reweighted_expectation, second_moment_bound, second_moment_exact)
from .measures import (AdmissibilityReport, AtomWindow, ConditionError, DiscreteMeasure,
                       MeasureMismatchError, PerturbationFamily, SignedPerturbation,
                       admissibility_check, discrete, hellinger_decomposed,
                       hellinger_measures, hellinger_poisson, lebesgue_decompose,
                       signed_power_integral)
from .rng import EstimateResult, MCPlan, RngStream
from .sampler import (CoupledPair, MeckeResult, mc_expectation, mecke_check,
                      sample_counts, sample_poisson, thin_superpose_couple)
from .series import (SeriesResult, frechet_remainder_check, gateaux_derivative,
                     parametric_series, variational_series)

__version__ = "0.1.0"
