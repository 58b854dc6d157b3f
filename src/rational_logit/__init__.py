"""Heavy-tailed (kappa-exponential) logit dynamics on [0, 1]."""

from .kexp import log_e_kappa
from .measures import Grid, GridMeasure, mean_and_std, pdf_values, uniform, variational_distance
from .utility import CompetitionParams, CompetitionUtility
from .dynamics import (LIMIT_NOISE, DegenerateWeightsError, DynamicBatch, DynamicConfig,
                       StationarySolution, eta_convergence_table, euler_step,
                       run_to_stationary, run_until, solve_stationary, weights)
from .calibration import (FitResult, FitSpec, empirical_pdf, empirical_stats, fit_objective,
                          fit_search)
from .dataio import (ConfigError, RunConfig, bundled_catches_path, load_catches,
                     load_run_config, write_table, write_trajectory_csv)

__version__ = "0.1.0"
