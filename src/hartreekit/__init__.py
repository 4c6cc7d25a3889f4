"""Numerical toolkit for the critically coupled Hartree system.

Radial quadrature with power-law tails, the Riesz-potential convolution
engine at the critical exponent, closed-form bubbles and certified trial
profiles, Nehari/barycenter machinery, projected ground-state flows, and a
lemma-by-lemma verification harness with a CLI.
"""

from .bubbles import (
    CouplingConstants,
    TrialProfile,
    bubble_constant,
    bubble_profile,
    coupling_constants,
    ground_pair,
    make_constants_table,
    make_trial_profile,
    quotient_infimum,
    trial_member,
    trial_pair,
)
from .checks import (
    AdmissibilityReport,
    RegionScan,
    VerifyContext,
    brezis_lieb_check,
    check_A3,
    choose_a_and_cbar,
    homotopy_boundary_check,
    lambda_sweep,
    scan_region,
    vanishing_energy_limit,
    verify_lemma,
)
from .energy import (
    EnergyBreakdown,
    Problem,
    barycenter,
    barycenter_axis_sign,
    energy_I,
    nehari_project,
    pohozaev_residual,
    trial_projection_scalars,
    weak_residual,
)
from .errors import (
    AdmissibilityError,
    ConstructionError,
    DivergenceError,
    DomainError,
    HartreeKitError,
    NumericalError,
    ParameterError,
    ProjectionError,
)
from .flow import (
    FlowConfig,
    FlowDiagnostics,
    solve_limit_ground_state,
)
from .grids import (
    Pair,
    RadialFn,
    RadialGrid,
    axis_moment_integrals,
    bicenter_integral,
    dirichlet_seminorm,
    from_callable,
    integrate,
    lp_norm,
    make_grid,
    sphere_area,
)
from .riesz import (
    AngularKernel,
    ConstantsTable,
    angular_kernel,
    double_energy,
    hls_constant,
    kernel_for,
    riesz_convolve,
    sobolev_constant,
)

__version__ = "0.1.0"
