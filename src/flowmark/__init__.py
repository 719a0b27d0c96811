"""Simulation and analysis toolkit for interval-based flow watermarking."""

from .analysis import (
    FeasibilityVerdict,
    FpBound,
    countermeasure_is_effective,
    countermeasure_threshold,
    fp_bound,
    min_flows,
    offset_multiplier,
)
from .flow_model import (
    EmpiricalModel,
    Flow,
    PoissonModel,
    REFERENCE_CLEAR_TABLE,
    clear_probability,
    estimate_clear_probability,
    generate_flow,
    poisson_rate_for_clear_probability,
    read_flow,
    write_flow,
)
from .mfa import (
    AttackConfig,
    AttackFinding,
    mfa_fixed_offset,
    mfa_varied_offset_bnb,
    mfa_varied_offset_exhaustive,
    read_manifest,
)
from .config import load_config, parse_config
from .repro import ReproCase, closed_form_cases, monte_carlo_case
from .seeds import check_seed, derive_seed
from .watermark import (
    ClearPattern,
    DetectionResult,
    WatermarkParams,
    derive_pattern,
    detect,
    embed,
    offset_candidates,
    wilson_interval,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackFinding",
    "ClearPattern",
    "DetectionResult",
    "EmpiricalModel",
    "FeasibilityVerdict",
    "Flow",
    "FpBound",
    "PoissonModel",
    "REFERENCE_CLEAR_TABLE",
    "ReproCase",
    "WatermarkParams",
    "check_seed",
    "clear_probability",
    "closed_form_cases",
    "countermeasure_is_effective",
    "countermeasure_threshold",
    "derive_pattern",
    "derive_seed",
    "detect",
    "embed",
    "errors",
    "estimate_clear_probability",
    "fp_bound",
    "generate_flow",
    "load_config",
    "min_flows",
    "monte_carlo_case",
    "mfa_fixed_offset",
    "mfa_varied_offset_bnb",
    "mfa_varied_offset_exhaustive",
    "offset_candidates",
    "offset_multiplier",
    "parse_config",
    "poisson_rate_for_clear_probability",
    "read_flow",
    "read_manifest",
    "wilson_interval",
    "write_flow",
    "__version__",
]
