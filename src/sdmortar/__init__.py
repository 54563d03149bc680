"""Coupled Stokes-Darcy flow with stochastic permeability.

Library pieces: KL random fields (random_field), stochastic collocation
(collocation), subdomain discretizations (darcy, stokes), mortar coupling
(mortar), the interface solver with its three solve strategies (interface),
moment accumulation (moments), and the config-driven runner (config, driver,
cli).
"""

__version__ = "0.1.0"

from .collocation import build_sparse_grid, build_tensor_grid, gauss_hermite_rule
from .config import build_from_config, parse_config, serialize_config, validate_config
from .driver import run_config, run_file
from .errors import ConfigError, ConvergenceError, SizeCapError
from .geometry import Block, DomainLayout, build_layout, build_subdomain_mesh
from .interface import run_method, solve_realization
from .mortar import build_mortar_space
from .problem import Physics, StokesDarcyProblem, build_problem
from .random_field import (
    CovarianceSpec,
    LogPermField,
    build_kl_region,
    solve_1d_eigenpairs,
)

__all__ = [
    "Block",
    "ConfigError",
    "ConvergenceError",
    "CovarianceSpec",
    "DomainLayout",
    "LogPermField",
    "Physics",
    "SizeCapError",
    "StokesDarcyProblem",
    "build_from_config",
    "build_kl_region",
    "build_layout",
    "build_mortar_space",
    "build_problem",
    "build_sparse_grid",
    "build_subdomain_mesh",
    "build_tensor_grid",
    "gauss_hermite_rule",
    "parse_config",
    "run_config",
    "run_file",
    "run_method",
    "serialize_config",
    "solve_1d_eigenpairs",
    "solve_realization",
    "validate_config",
]
