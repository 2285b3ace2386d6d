"""Non-intrusive uncertainty quantification on a gust-response benchmark.

Five estimators (regression polynomial chaos, ordinary kriging, Monte
Carlo, univariate dimension reduction, and its gradient-enhanced
variant) applied to a reduced-order aeroelastic gust-response model,
plus a harness for ground truth and convergence studies.
"""

from .core import (CountingOracle, InputSpace, QoIRecord,
                   RiskMeasures, UncertainInput, default_input_space,
                   from_standard, latin_hypercube, nearest_rank_quantile,
                   risk_from_samples, to_standard)
from .dimred import (QuadratureRule, UDRApprox, dr_moments, dr_quantile,
                     gauss_legendre, gudr_build, gudr_build_scalar, udr_build,
                     udr_build_scalar)
from .gust import (FlightCondition, GustOracle, GustProfile, SimulationConfig,
                   TimeHistory, WingModel, gradient, gust_velocity, qois,
                   simulate)
from .harness import (ConvergenceRecord, GroundTruth, StudyConfig,
                      build_oracle, export_pdf_data, run_convergence,
                      run_ground_truth)
from .kriging import KrigingModel, kriging_fit, kriging_predict, kriging_risk
from .montecarlo import MCResult, mc_estimate
from .pce import (FitError, PCESurrogate, fit_regression, legendre_orthonormal,
                  pce_moments, pce_quantile, total_degree_basis)

__version__ = "0.1.0"
