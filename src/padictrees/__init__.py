"""Truncated trees of p-adic definable sets.

Enumeration of residue-class trees of polynomial systems, recursive tree
data with exact rational Poincare series, and witness-cloud realization of
leafless tree data, over exact arithmetic in Z/p^k.
"""

from .errors import (
    DepthMismatch,
    DomainError,
    DomainNotNonnegative,
    EmptyAttach,
    InvalidDatum,
    LabelMissing,
    LevelCap,
    NodeBudgetExceeded,
    NonIntegral,
    NonIntegralExponent,
    NotLeafless,
    NotNormal,
    NotRealizable,
    PadicTreesError,
    ParameterOutsideDomain,
    PieceNotFound,
    PrecisionExhausted,
    UnboundedBelow,
)
from .padic import (
    Certified,
    INCONCLUSIVE,
    PadicApprox,
    PadicVec,
    approx_eq,
    eth_root_lift,
    from_int,
    from_rational,
    newton_certify,
    power_residue_index,
    unit_part,
    val,
    val_vec,
    vec,
    vvec,
)
from .trees import (
    Ball,
    Cheese,
    TruncTree,
    attach,
    cheese_restrict,
    empty_tree,
    find_node_by_label,
    from_points,
    full_tree,
    is_isomorphic,
    path_tree,
    product,
    subtree,
    to_dot,
    y_tree,
)
from .gamma import (
    GammaCell,
    GammaSet,
    INFINITY,
    LinearFn,
    cell,
    cell_gf,
    cell_members,
    const_fn,
    gamma_set,
    interval_cell,
    linear,
    members,
    point_set,
    whole_quadrant,
)
from .ratfun import (
    RationalGF,
    expand_series,
    gf_add,
    gf_equal,
    gf_mul,
    gf_normalize,
    gf_sub,
    substitute,
)
from .polysys import PolySystem, cusp_system, make_system
from .enum_trees import (
    Garland,
    No,
    Unknown,
    Yes,
    garland_trees,
    lifted_tree,
    naive_tree,
    tree_on_ball,
    tree_on_cheese,
)
from .datum import (
    TERMINAL,
    SideBranchDatum,
    SkeletonDatum,
    TreeDatum,
    builtin,
    cusp_datum,
    expand,
    expand_counts,
    joint_depth,
    point_datum,
    specialize_param,
    spine_subtree_datum,
    star_branch,
    terminal_branch,
    validate,
    y_datum,
    zpn_datum,
)
from .poincare import CompareReport, compare, datum_poincare
from .realize import (
    RealizationContext,
    RealizationReport,
    SkeletonFns,
    WitnessCloud,
    realize,
    separating_depth,
    skeleton_fns,
    u_fn,
    verify_realization,
)

__version__ = "0.1.0"
