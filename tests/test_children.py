"""The table-driven children kernel of naive_tree against brute force."""

import random
from itertools import product

from padictrees.enum_trees import naive_tree
from padictrees.errors import NodeBudgetExceeded
from padictrees.polysys import make_system

_BUDGET = 400  # listed classes per system, which bounds the brute force


def _random_system(rng):
    p = rng.choice((2, 3, 5))
    n = rng.randint(1, 3)
    polys = []
    for _ in range(rng.randint(0, 2)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            # multiples of p make singular classes, where the Jacobian
            # vanishes mod p and the constant decides alone
            c = rng.choice((1, p, p * p)) * rng.randint(-p, p)
            terms.append((c or 1, tuple(rng.randint(0, 3) for _ in range(n))))
        polys.append(terms)
    return make_system(p, n, polys, allow_empty=not polys)


def _solves(sys, x, depth):
    mod = sys.p**depth
    return all(sys.eval_poly(i, x) % mod == 0 for i in range(len(sys.polys)))


def _brute_layers(sys, depth):
    """Every layer by direct evaluation: the extensions x + p^d digit of
    each class of the layer above, in order, with the digits in sorted
    order, that solve the system mod p^(d+1)."""
    layers = [[(0,) * sys.n]]
    for d in range(depth):
        pd = sys.p**d
        layers.append([
            x for up in layers[-1]
            for digit in product(range(sys.p), repeat=sys.n)
            if _solves(sys, x := tuple(a + pd * b for a, b in zip(up, digit)), d + 1)
        ])
    return layers


def test_children_kernel_matches_brute_force():
    rng = random.Random(20261018)
    checked = 0
    for _ in range(70):
        sys = _random_system(rng)
        depth = rng.randint(1, 4)
        while True:
            try:
                t = naive_tree(sys, depth, node_budget=_BUDGET)
                break
            except NodeBudgetExceeded:
                depth -= 1
        want = _brute_layers(sys, depth)
        assert t.labels == want, (sys, depth)
        # each layer is the whole solution set mod p^d, not only the
        # extensions of the layer above
        for d, layer in enumerate(want):
            if sys.p ** (sys.n * d) <= 2000:
                box = product(range(sys.p**d), repeat=sys.n)
                assert sorted(layer) == [x for x in box if _solves(sys, x, d)]
        parents = [[want[d].index(tuple(x % sys.p**d for x in lab)) for lab in want[d + 1]]
                   for d in range(depth)]
        assert t.parents == parents
        checked += depth
    assert checked >= 100
