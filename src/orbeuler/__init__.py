"""Exact certificates for orbifold Euler numbers of complex surface pairs.

The library evaluates local orbifold Euler numbers of surface pair germs
(ordinary points, cyclic and star-shaped quotients, reduced germs via
Milnor/Tjurina numbers), assembles the global orbifold Euler number of a
projective pair, and certifies the Bogomolov-Miyaoka-Yau style inequalities
together with their plane-curve and general-type applications.  All
arithmetic is exact over the rationals.
"""

from .rationals import (
    Chain,
    ChainError,
    as_rational,
    format_rational,
    hj_eval,
    hj_expand,
    parse_rational,
    rat_ceil,
    rat_floor,
)
from .local import (
    CoverDegree,
    CyclicQuotient,
    EulerValue,
    Exactness,
    LocalSingularity,
    NotQuotientError,
    Ordinary,
    ReducedGerm,
    StarArm,
    StarInvariants,
    StarQuotient,
    StarValidation,
    cover_degree,
    euler_cyclic,
    euler_local,
    euler_ordinary,
    euler_ordinary3_cover_oracle,
    euler_star,
    singularity_from_dict,
    singularity_to_dict,
    validate_star,
)
from .germs import (
    DEFAULT_CAP,
    CurveGerm,
    GermInvariants,
    NotIsolatedError,
    euler_reduced_germ,
    euler_top_complement,
    germ_from_dict,
    germ_invariants,
    germ_to_dict,
    lct_obstruction,
    log_chern_c2,
    milnor_number,
    tjurina_number,
)
from .pairs import (
    BmyReport,
    ComponentData,
    GlobalEuler,
    IneqReport,
    PairDescription,
    SingularPointData,
    SurfaceData,
    Verdict,
    check_bmy,
    check_bmy_multiplicities,
    euler_orbifold_global,
    euler_top_curve,
    max_canonical_degree_extremal,
    pair_from_dict,
    pair_kd_squared,
    pair_to_dict,
)
from .applications import (
    ArrangementData,
    ArrangementReport,
    BudgetReport,
    InvalidArrangementError,
    canonical_degree_bound,
    check_arrangement,
    check_singularity_budget,
    cusp_count_bound,
    cusp_euler,
    cusp_ratio_optimize,
    cusp_star,
)

__version__ = "0.1.0"
