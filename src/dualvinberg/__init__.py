"""Dual Vinberg cone toolkit.

The patterned homogeneous cone and its minors, the tube-domain
automorphism group inside the real symplectic group, the compression
semigroup with its chart and polar factorizations, the canonical Hessian
metric, and the reproducible demonstration that the semigroup is not
metric-contractive.
"""

from .cone import (
    IDENTITY_POINT,
    congruence_matrix,
    embed,
    in_open_cone,
    isotropy_group,
    log_char_function,
    minors,
    sample_cone,
    sample_positive_triangular,
    sample_triangular,
    triangular,
    triangular_params,
    unembed,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InconsistencyError,
    PatternError,
    SingularityError,
)
from .group import (
    SYMPLECTIC_FORM,
    TripleFactors,
    act,
    act_real,
    congruence_embed,
    dual_translation,
    in_tube_group,
    in_tube_group_alt,
    inversion,
    is_symplectic,
    isotropy_rotation,
    translation,
    triple_compose,
    triple_decompose,
)
from .metric import (
    ContractionRecord,
    SearchSummary,
    action_jacobian,
    action_jacobian_fd,
    cone_metric,
    cone_metric_fd,
    contraction_ratio,
    contraction_ratio_spd,
    contraction_ratios,
    counterexample,
    search_violations,
    spd_metric,
)
from .semigroup import (
    InvariantConeElement,
    compression_factors,
    cross_check_membership,
    exp_wedge,
    in_compression_semigroup,
    in_invariant_cone,
    lie_element,
    log_wedge,
    polar_compose,
    polar_factor,
    sample_semigroup,
    sample_symplectic_semigroup,
)

__version__ = "0.1.0"
