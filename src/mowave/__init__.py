"""mowave: damped nonlinear waves on expanding intervals.

Solves u_tt - u_xx + a u_t + b u + beta(t)|u|^rho u = 0 on the moving
interval (0, alpha(t)) by a domain-fixing change of variables and RK4
finite differences, checks the exact energy identities behind the decay
proof term by term, and certifies exponential energy decay
E(t) <= C E(0) exp(-lambda t) with an explicit admissible rate window.
"""

from .certify import build_certificate, check_decay_bound, fit_decay, window_edges
from .energy import (
    EnergySeries,
    SnapshotIntegrals,
    boundary_flux,
    energy_rate_residual,
    multiplier_identity_residual,
    snapshot_integrals,
)
from .errors import (
    BlowUpError,
    ConfigError,
    MowaveError,
    ResourceLimitError,
    UnsupportedConfigError,
    ValidationError,
)
from .harness import main, run_simulation, verify_manifest
from .model import (
    FAMILIES,
    AffineAlpha,
    Bump,
    ConstantAlpha,
    ConstantBeta,
    DampingParams,
    ExponentialBeta,
    GridSamples,
    ManufacturedField,
    PolynomialBeta,
    ProblemSpec,
    SaturatingAlpha,
    SineMode,
    load_config,
    spec_from_dict,
    spec_to_dict,
    validate_assumptions,
)
from .solver import Grid, ReferenceState, Trajectory, exact_reference_fields, simulate

__version__ = "0.1.0"
