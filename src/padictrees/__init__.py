"""Truncated trees of p-adic definable sets.

Enumeration of residue-class trees of polynomial systems, recursive tree
data with exact rational Poincare series, and witness-cloud realization of
leafless tree data, over exact arithmetic in Z/p^k.

The package loads lazily: importing it loads only `errors`, and each other
name in `__all__` imports its submodule on first use (PEP 562).
`padictrees.realize` is the function `realize`, also once its submodule is
loaded, so `import padictrees.realize as m` binds the function; only
`importlib.import_module("padictrees.realize")` reaches the module.
"""

import importlib
import sys
import types

# the exports, by the submodule that defines them
_EXPORTS = {
    "errors": (
        "DepthMismatch", "DomainError", "DomainNotNonnegative", "EmptyAttach",
        "InvalidDatum", "LabelMissing", "LevelCap", "NodeBudgetExceeded",
        "NonIntegral", "NonIntegralExponent", "NotLeafless", "NotNormal",
        "NotRealizable", "PadicTreesError", "ParameterOutsideDomain",
        "PieceNotFound", "PrecisionExhausted", "UnboundedBelow",
    ),
    "padic": (
        "Certified", "INCONCLUSIVE", "PadicApprox", "PadicVec", "approx_eq",
        "eth_root_lift", "from_int", "from_rational", "newton_certify",
        "power_residue_index", "unit_part", "val", "val_vec", "vec", "vvec",
    ),
    "trees": (
        "Ball", "Cheese", "TruncTree", "attach", "cheese_restrict",
        "empty_tree", "find_node_by_label", "from_points", "full_tree",
        "is_isomorphic", "path_tree", "product", "subtree", "to_dot", "y_tree",
    ),
    "gamma": (
        "GammaCell", "GammaSet", "INFINITY", "LinearFn", "cell", "cell_gf",
        "cell_members", "const_fn", "gamma_set", "interval_cell", "linear",
        "members", "point_set", "whole_quadrant",
    ),
    "ratfun": (
        "RationalGF", "expand_series", "gf_add", "gf_equal", "gf_mul",
        "gf_normalize", "gf_sub", "substitute",
    ),
    "polysys": ("PolySystem", "cusp_system", "make_system"),
    "enum_trees": (
        "Garland", "No", "Unknown", "Yes", "garland_trees", "lifted_tree",
        "naive_tree", "tree_on_ball", "tree_on_cheese",
    ),
    "datum": (
        "TERMINAL", "SideBranchDatum", "SkeletonDatum", "TreeDatum", "builtin",
        "cusp_datum", "expand", "expand_counts", "joint_depth", "point_datum",
        "specialize_param", "spine_subtree_datum", "star_branch",
        "terminal_branch", "validate", "y_datum", "zpn_datum",
    ),
    "poincare": ("CompareReport", "compare", "datum_poincare"),
    "realize": (
        "RealizationContext", "RealizationReport", "SkeletonFns",
        "WitnessCloud", "realize", "separating_depth", "skeleton_fns", "u_fn",
        "verify_realization",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


class _Package(types.ModuleType):
    """The package module.  Loading a submodule binds it on its package; an
    export of the same name (the function `realize`) keeps its place."""

    def __setattr__(self, name, value):
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


# every command needs the error types, and they cost almost nothing to load
for _name in _EXPORTS["errors"]:
    __getattr__(_name)
del _name
