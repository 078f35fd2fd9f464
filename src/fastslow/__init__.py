"""Monte Carlo toolkit for fully coupled fast-slow stochastic systems.

Builds stationary-measure estimates for the frozen fast equation, solves the
auxiliary equation on a tensor grid, assembles the four
regime-dependent averaged limit equations, and measures weak-error
convergence shapes and fluctuation diagnostics against them.
"""

__version__ = "0.1.0"

from .errors import (BlowUp, ConfigError, FastslowError, GridTooCoarse,
                     NonFiniteCoefficient, NotCentered, PSDFailure,
                     ThetaOutOfRange)
from .model import (CoupledSystem, Regime, ScaleSchedule, ValidationReport,
                    classify_regime, validate_assumptions)
from .presets import get_system, register_system
from .simulate import (EnsembleResult, PathConfig, integrate_coupled,
                       integrate_limit)
from .ergodic import (MeasureEnsemble, average, centering_residual,
                      sample_invariant_measure)
from .corrector import (CorrectorField, CorrectorQuery, OuterProductResult,
                        gradients, outer_product_HPhi, solve_poisson_fk)
from .homogenize import (AveragedSDE, Budgets, CachePolicy, TransferEstimate,
                         build_limit_sde, psd_sqrt, regime_averages,
                         transfer_derivative)
from .harness import (ExperimentConfig, FluctuationReport, RateResult,
                      WeakErrorReport, fluctuation_clt, fluctuation_lln,
                      theoretical_rate, weak_error_experiment)

__all__ = [
    "__version__",
    "BlowUp", "ConfigError", "FastslowError", "GridTooCoarse",
    "NonFiniteCoefficient", "NotCentered", "PSDFailure", "ThetaOutOfRange",
    "CoupledSystem", "Regime", "ScaleSchedule", "ValidationReport",
    "classify_regime", "validate_assumptions",
    "get_system", "register_system",
    "EnsembleResult", "PathConfig", "integrate_coupled", "integrate_limit",
    "MeasureEnsemble", "average", "centering_residual",
    "sample_invariant_measure",
    "CorrectorField", "CorrectorQuery", "OuterProductResult", "gradients",
    "outer_product_HPhi", "solve_poisson_fk",
    "AveragedSDE", "Budgets", "CachePolicy", "TransferEstimate",
    "build_limit_sde", "psd_sqrt", "regime_averages", "transfer_derivative",
    "ExperimentConfig", "FluctuationReport", "RateResult", "WeakErrorReport",
    "fluctuation_clt", "fluctuation_lln", "theoretical_rate",
    "weak_error_experiment",
]
