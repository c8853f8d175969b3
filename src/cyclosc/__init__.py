"""cyclosc: a deformed oscillator with a cyclic Fock-space grading.

The ladder pair obeys [a, a†] = I + sum_mu alpha_mu P_mu with zero-sum
deformation parameters alpha_mu attached to the residue classes
n ≡ mu (mod lambda).  The package applies the ladder operators as shifts,
takes the polynomial spectrum-generating algebra closed by J+ = a†^lambda /
lambda, J- = a^lambda / lambda, J0 = h0 / lambda from its root form,
constructs the eigenstates of J- sector by sector, evaluates their photon
statistics and quadrature squeezing, and checks the radial measures that
resolve the identity over each sector.
"""

from .algebra import (
    AlgebraParams,
    FockRep,
    validate_params,
    structure_function,
    energy,
    build_fock_rep,
    random_admissible_alpha,
)
from .sga import (
    SgaRep,
    SgaPolynomials,
    build_sga,
    extract_polynomials,
    closed_forms,
)
from .coherent import (
    CoherentState,
    TruncationError,
    build_cs,
    stack_coeffs,
    eigen_residual,
    mittag_leffler_check,
)
from .stats import (
    QuadratureMoments,
    StatsReport,
    mandel_q,
    quadrature_stats,
    uncertainty_rhs,
    squeeze_ratios,
    stats_report,
)
from .measure import (
    MomentTarget,
    moment_target,
    weight_lambda2,
    weight_photon,
    moment_check,
    unity_reconstruction,
    angular_offdiagonal,
)
from .verify import CheckResult, run_suites

__version__ = "0.1.0"
