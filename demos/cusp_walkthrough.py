"""The cusp x^3 = y^2 over Z_5, computed three independent ways.

The solutions of x^3 = y^2 in Z_5^2 project to residue classes mod 5^d;
classes that contain actual Z_5-solutions form a tree under reduction.
This script computes that tree by certified enumeration, by expanding a
combinatorial datum, and as an exact rational Poincare series, and checks
that all three agree.
"""

from padictrees import (
    cusp_datum,
    cusp_system,
    datum_poincare,
    expand,
    expand_series,
    is_isomorphic,
    lifted_tree,
    naive_tree,
)


def main():
    p, depth = 5, 6
    sys = cusp_system(p)

    # 1. enumeration: keep a residue class when a witness, a Newton
    # certificate or a unit Jacobian minor (Hensel) proves a Z_5-point
    # above it, discard when exhaustive digit search kills every
    # continuation, and do not expand a discarded class
    t, statuses = lifted_tree(sys, depth, depth)
    print("lifted layer sizes:", t.layer_sizes())

    # the naive tree keeps every residue-class solution; most of those
    # classes contain no Z_5-point at all
    print("naive layer sizes: ", naive_tree(sys, 4).layer_sizes())

    # 2. the same tree from a finite description: an infinite spine with
    # T(Z_5) copies at the root and doubling side branches at even depths
    t2 = expand(cusp_datum(p), (), p, depth)
    print("expansion matches: ", is_isomorphic(t, t2))

    # 3. the Poincare series of the datum, exactly rational
    gf = datum_poincare(cusp_datum(p), p)
    print("poincare series:   ", gf)
    coeffs = [int(c) for c in expand_series(gf, depth)]
    print("series prefix:     ", coeffs)
    print("prefix matches:    ", coeffs == t.layer_sizes())

    # the structure behind the counts: 4 of the root's 5 children head
    # full 5-ary trees (smooth points), the fifth continues the singular
    # spine, which grows 2 extra children at each even depth
    ch = t.children_index()
    print("root children:     ", len(ch[0][0]))
    depth2_counts = sorted(len(k) for k in ch[2])
    print("children at depth 2:", depth2_counts)


if __name__ == "__main__":
    main()
