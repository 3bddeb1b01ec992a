"""Size-structured polymer growth and fragmentation dynamics.

A monomer pool feeds polymers that elongate, fragment into two pieces,
and degrade; fragments below the minimal size dissolve back into the
pool.  The package provides the frozen-monomer-level principal
eigenvalue machinery, steady-state and shape analysis, a time-domain
integrator with exact mass books, an independent integer-chain
cross-check, and a config-driven command line.
"""

from .coefficients import (Affine, Bell, CoefficientSet, CoefficientShape,
                           Constant, ScaledBell, eval_coefficients)
from .config import (ConfigError, RunConfig, config_echo, default_xmax,
                     parse_config)
from .discrete import (DiscreteParams, DiscreteState, DiscreteTrajectory,
                       compare_continuum, default_calibration,
                       integrate_discrete, matched_continuum_setup)
from .dynamics import (GrowthFit, IncubationResult, IntegratorFailure,
                       StabilityResult, Trajectory, growth_rate,
                       incubation_time, integrate, seed_state,
                       stability_experiment)
from .eigen import (EigenConvergenceError, EigenSolution, HypothesisConstants,
                    PositivityViolationError, ScanResult, adjoint_eigenpair,
                    generator_eigenpair, hypothesis_constants,
                    principal_eigenpair, scan_lambda)
from .grid import PolymerState, SizeGrid
from .kernel import kernel_weights
from .operator import (FragOperator, Generator, assemble, assemble_adjoint,
                       transport_reaction_parts)
from .records import (PACKAGE_VERSION, ExperimentRecord, canonical_json,
                      grid_hash, write_csv)
from .steady import (BimodalityReport, SteadyState, StationaryCheck,
                     VInfResult, bimodality_report, build_steady_state,
                     detect_modes, find_v_inf, stationary_profile_check)

__version__ = PACKAGE_VERSION

__all__ = [
    "Affine", "Bell", "CoefficientSet", "CoefficientShape", "Constant",
    "ScaledBell", "eval_coefficients",
    "ConfigError", "RunConfig", "config_echo", "default_xmax", "parse_config",
    "DiscreteParams", "DiscreteState", "DiscreteTrajectory",
    "compare_continuum", "default_calibration",
    "integrate_discrete", "matched_continuum_setup",
    "GrowthFit", "IncubationResult", "IntegratorFailure", "StabilityResult",
    "Trajectory", "growth_rate", "incubation_time", "integrate", "seed_state",
    "stability_experiment",
    "EigenConvergenceError", "EigenSolution", "HypothesisConstants",
    "PositivityViolationError", "ScanResult", "adjoint_eigenpair",
    "generator_eigenpair", "hypothesis_constants", "principal_eigenpair",
    "scan_lambda",
    "PolymerState", "SizeGrid",
    "kernel_weights",
    "FragOperator", "Generator", "assemble", "assemble_adjoint",
    "transport_reaction_parts",
    "PACKAGE_VERSION", "ExperimentRecord", "canonical_json", "grid_hash",
    "write_csv",
    "BimodalityReport", "SteadyState", "StationaryCheck", "VInfResult",
    "bimodality_report", "build_steady_state", "detect_modes", "find_v_inf",
    "stationary_profile_check",
    "__version__",
]
