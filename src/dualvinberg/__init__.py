"""Dual Vinberg cone toolkit.

The patterned homogeneous cone and its minors, the tube-domain
automorphism group inside the real symplectic group, the compression
semigroup with its chart and polar factorizations, the canonical Hessian
metric, and the reproducible demonstration that the semigroup is not
metric-contractive.
"""

from .cone import (
    IDENTITY_POINT,
    char_function,
    congruence,
    congruence_det,
    congruence_matrix,
    embed,
    in_closed_cone,
    in_open_cone,
    in_positive_triangular,
    in_triangular_group,
    isotropy_group,
    log_char_function,
    minors,
    relative_invariant,
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
    BASE_POINT,
    SYMPLECTIC_FORM,
    TripleFactors,
    act,
    act_real,
    blocks,
    congruence_embed,
    dual_translation,
    has_triple_decomposition,
    in_tube_group,
    in_tube_group_alt,
    inverse,
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
    GRADING_ELEMENT,
    InvariantConeElement,
    compression_factors,
    cross_check_membership,
    exp_wedge,
    grade,
    in_compression_semigroup,
    in_invariant_cone,
    in_symplectic_semigroup,
    lie_element,
    lie_parts,
    log_wedge,
    polar_compose,
    polar_factor,
    sample_semigroup,
    sample_symplectic_semigroup,
)

__version__ = "0.1.0"
