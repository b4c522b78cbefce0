"""qpartid: exact partition counts, Gaussian polynomials, and identity checks.

The polynomial layer (bigpoly) and the bracket constructors (qbinom) build
both sides of every q-identity; the counting layer (partitions) carries the
memoized counts and the brute-force enumeration oracle that anchors them;
identities holds the executable registry the CLI iterates over.
"""

from .bigpoly import (
    IntPoly,
    ONE,
    ZERO,
    coeff_at,
    format_poly,
    poly_add,
    poly_eval_int,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_substitute_power,
)
from .identities import (
    CaseResult,
    IdentityDescriptor,
    check_F_theorem,
    check_genfun,
    evaluate_case,
    genfun_table,
    get_descriptor,
    iter_cases,
    parity_sum_sides,
    q_identity_sides,
    registry,
    run_identity,
    standard_f_sequences,
    triangle_sum,
    twice_cos,
    twice_sin_over_sqrt3,
)
from .partitions import (
    ORACLE_LIMIT_DEFAULT,
    UNBOUNDED,
    CountTable,
    PartitionSpec,
    box_count,
    box_count_P,
    box_count_Q,
    box_count_Q_star,
    count_P,
    count_P_most,
    count_P_nm,
    count_P_of,
    count_P_star,
    count_Q,
    count_Q_most,
    count_Q_nm,
    count_Q_of,
    count_Q_star,
    enumerate_partitions,
    oracle_counts,
)
from .qbinom import (
    binom,
    binom2,
    bracket_base,
    gaussian,
    gaussian_product_form_check,
    gaussian_symmetry_check,
)

__version__ = "0.1.0"
