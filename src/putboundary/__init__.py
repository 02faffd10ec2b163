"""Early exercise boundary of the zero-dividend American put.

Five closed-form near-expiry approximations, a closed integral formula with
its convexity analysis, a sequential solver for the governing nonlinear
integral equation, a finite-difference benchmark, and the closed
normal-CDF price-gap integral that turns boundary differences into option
mispricing numbers.
"""

from .core import (
    BoundaryCurve,
    BracketError,
    DomainError,
    MarketParams,
    MaxIterationsError,
    NumericalError,
    QuadratureConfig,
    QuadratureNodeError,
    TailTooHeavyError,
    TauGrid,
    find_root_bracketed,
    norm_cdf,
)
from .asymptotics import (
    CLOSED_FORMS,
    chen_chadam_alpha,
    eta_lowest_order,
    rho_chen_chadam,
    rho_ekk,
    rho_kk,
    rho_ssc_analytic,
    rho_zhu_asymptote,
)
from .zhu import (
    SmallTauSubstitution,
    f2_max,
    gamma_critical,
    rho_zhu,
    zhu_kernels,
    zhu_second_derivative,
)
from .ssch import (
    LogDomainError,
    MeshError,
    MeshKind,
    build_mesh,
    solve_boundary,
)
from .psor import (
    NoContactError,
    PsorConfig,
    PsorSolution,
    extract_boundary,
    price_at,
    psor_solve,
)
from .pricing import (
    DegenerateDenominatorError,
    boundary_rel_err,
    european_put,
    mispricing_err,
    price_gap_at_boundary,
    price_gap_full,
)

__version__ = "0.1.0"
