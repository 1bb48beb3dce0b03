"""Cutting and regluing trees: cheese restriction and garland components.

A cheese is a ball with smaller balls removed. Restricting a solution
tree to a cheese cuts the subtrees under the holes; computing the tree on
each hole separately and attaching it back must reproduce the whole tree.
Garlands slice a neighborhood of the singular spine into components, one
per depth kappa, each a product of a full tree and a Y-shaped tree.
"""

from padictrees import (
    Ball,
    Cheese,
    attach,
    cusp_system,
    find_node_by_label,
    full_tree,
    garland_trees,
    is_isomorphic,
    product,
    tree_on_ball,
    tree_on_cheese,
    y_tree,
    Garland,
)


def glue_demo():
    sys = cusp_system(5)
    depth = 3
    outer = Ball((0, 0), 0)
    whole = tree_on_ball(sys, outer, depth)
    holes = (Ball((1, 1), 1), Ball((0, 0), 2))
    cheese = Cheese(outer, holes, 5)

    cut = tree_on_cheese(sys, cheese, depth)
    print("whole tree layers:", whole.layer_sizes())
    print("cut tree layers:  ", cut.layer_sizes())

    glued = cut
    for h in holes:
        node = find_node_by_label(glued, h.radius, h.reduced_center(5))
        glued = attach(glued, node, tree_on_ball(sys, h, depth - h.radius))
    print("reglued == whole: ", is_isomorphic(glued, whole))


def garland_demo():
    # around spine depth kappa (even), the cusp looks like a full 5-ary
    # tree times Y(kappa/2 - 1): one extra bifurcation, location growing
    # linearly with kappa
    sys = cusp_system(5)
    g = Garland((0, 0), 2, 1, 2, (1, 0), 0)
    depth = 3
    print("garland members to 3 periods:", g.member_kappas(3))
    for kappa, t in garland_trees(sys, g, [2, 4], depth):
        model = product(full_tree(1, 5, depth), y_tree(kappa // 2 - 1, depth))
        print(
            f"kappa={kappa}: layers {t.layer_sizes()}, "
            f"product model matches: {is_isomorphic(t, model)}"
        )


def main():
    glue_demo()
    print()
    garland_demo()


if __name__ == "__main__":
    main()
