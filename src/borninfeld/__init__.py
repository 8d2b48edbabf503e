"""Numerics for electrostatic point-charge fields under the Born-Infeld model.

Modules by role: ``core`` (types, expansion coefficients, closed-form
constants), ``quad`` (batched quadrature, exact single-charge field),
``conditions`` (solvability certificates), ``radial`` (order-m radial
solver, singularity fits, cone-plus-tail extremals), ``field`` (grid solver
and property reports), ``cli`` (command-line front end).
"""

from .core import (
    AsymptoticsSpec,
    Charge,
    ChargeConfig,
    GuaranteeRangeError,
    InputError,
    asymptotics_spec,
    best_constant_cbar,
    sphere_measure,
    taylor_coefficients,
)
from .quad import (
    AccuracyError,
    RadialProfile,
    exact_radial_profile,
    refined_constant_ctilde,
    shape_constant_A,
)
from .conditions import (
    PairVerdict,
    Verdict,
    VerdictLevel,
    check_global,
    check_refined,
    check_two_charge,
)
from .radial import (
    ConeTailCandidate,
    FitResult,
    approx_radial_profile,
    cone_tail_energy,
    fit_singularity,
    flux_gradient_magnitude,
    spacelike_ratio,
)
from .field import (
    DiscreteProblem,
    GridField,
    assemble_problem,
    compare_solutions,
    extremum_report,
    gradient_sup,
    minimize_energy,
    segment_report,
)

__version__ = "0.1.0"
