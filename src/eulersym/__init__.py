"""Exact arithmetic for Euler polynomials, alternating power sums, and the
mechanical verification of their three-weight symmetry identities."""

from .altsum import alt_power_sum, alt_power_sum_closed
from .egf_series import (
    TruncatedEGF,
    egf_add,
    egf_coeff,
    egf_div,
    egf_exp,
    egf_mul,
    egf_scale,
    lambda_series,
    quotient_alternating,
)
from .euler import (
    EulerPolynomial,
    euler_eval,
    euler_number,
    euler_polynomial,
    euler_polynomials_up_to,
    euler_values,
)
from .exact_arith import format_rational, parse_rational
from .identities import (
    FAMILIES,
    FAMILY_IDS,
    IdentityFamily,
    VerificationReport,
    check_case,
    eval_variant,
    variant_values,
)
from .orbits import EXPECTED_ORBIT_SIZES, orbit_audit

__version__ = "0.1.0"
