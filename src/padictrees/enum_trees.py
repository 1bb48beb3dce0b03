"""Truncated trees of polynomial systems over Z_p.

naive_tree lists the residue classes solving the congruences level by
level.  lifted_tree keeps only classes that contain genuine Z_p-points;
membership in the image of the projection is undecidable in general, so
statuses are three-valued.  Yes needs a declared rational point or a
Hensel certificate, No needs the congruence solutions below the class to
die out at a finite depth, Unknown carries the exhausted budget.

The extension-existence test behind No is exact: it recurses on digits of
the translated system and memoises on the reduced coefficients, so digits
the equations do not yet see cost nothing instead of multiplying the
search by p^n per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .errors import DomainError, NodeBudgetExceeded
from .padic import Certified, newton_certify, pval, vec
from .polysys import PolySystem, shift_scale
from .trees import Ball, Cheese, TruncTree, cheese_restrict, empty_tree, restrict

__all__ = [
    "Yes",
    "No",
    "Unknown",
    "Garland",
    "naive_tree",
    "lifted_tree",
    "tree_on_ball",
    "tree_on_cheese",
    "garland_trees",
]


@dataclass(frozen=True)
class Yes:
    """Sound: the class contains a Z_p-point of X.

    certificate is either a Certified Newton record or the rational point
    (tuple of Fractions) that witnesses the class; ancestors inherit the
    certificate of the descendant that produced it.
    """

    certificate: object


@dataclass(frozen=True)
class No:
    """Sound: the congruence tree below the class is empty at this depth."""

    exhausted_at: int


@dataclass(frozen=True)
class Unknown:
    budget: int


@dataclass(frozen=True)
class Garland:
    """Components x0 + p^kappa * Ball(x_dir, mu) for kappa >= lam,
    kappa = xi mod rho; x_dir must have a unit coordinate."""

    x0: tuple[int, ...]
    lam: int
    mu: int
    rho: int
    x_dir: tuple[int, ...]
    xi: int

    def __post_init__(self):
        if self.mu <= 0 or self.rho <= 0:
            raise DomainError("garland needs mu > 0 and rho > 0")
        object.__setattr__(self, "x0", tuple(int(c) for c in self.x0))
        object.__setattr__(self, "x_dir", tuple(int(c) for c in self.x_dir))

    def member_kappas(self, count: int) -> list[int]:
        """The first `count` elements of M(G)."""
        start = self.lam + (-(self.lam - self.xi)) % self.rho
        return [start + i * self.rho for i in range(count)]


def _children(sys: PolySystem, label, depth):
    """Residue extensions of a depth-`depth` class to depth+1, in sorted
    digit order.  For depth >= 1 the test is linear in the digits."""
    p, n, k = sys.p, sys.n, len(sys.polys)
    pl = p**depth
    out = []
    if depth == 0:
        for d in iproduct(range(p), repeat=n):
            if all(sys.eval_poly(i, d) % p == 0 for i in range(k)):
                out.append(d)
        return out
    base = []
    grads = []
    for i in range(k):
        fa = sys.eval_poly(i, label)
        # f(a + p^l d) = f(a) + p^l d.grad f(a) mod p^{2l}, and 2l >= l+1
        base.append(fa // pl % p)
        grads.append([sys.partial(i, j, label) % p for j in range(n)])
    if all(all(g == 0 for g in row) for row in grads):
        # digit-independent condition: all or nothing
        if any(base):
            return []
        return [
            tuple(a + dj * pl for a, dj in zip(label, d))
            for d in iproduct(range(p), repeat=n)
        ]
    for d in iproduct(range(p), repeat=n):
        ok = True
        for b, row in zip(base, grads):
            s = b
            for g, dj in zip(row, d):
                s += g * dj
            if s % p:
                ok = False
                break
        if ok:
            out.append(tuple(a + dj * pl for a, dj in zip(label, d)))
    return out


def naive_tree(sys: PolySystem, depth_cap: int, node_budget: int = 10**7) -> TruncTree:
    """Layered BFS of all residue solutions f = 0 mod p^depth, with the
    absolute residue tuples as labels."""
    if depth_cap < 0:
        raise DomainError("negative depth cap")
    root = (0,) * sys.n
    labels = [[root]]
    parents = []
    layer = [root]
    used = 1
    for depth in range(depth_cap):
        nxt_par, nxt_lab = [], []
        for idx, lab in enumerate(layer):
            for child in _children(sys, lab, depth):
                nxt_par.append(idx)
                nxt_lab.append(child)
        used += len(nxt_par)
        if used > node_budget:
            raise NodeBudgetExceeded(f"naive tree exceeds {node_budget} nodes")
        parents.append(nxt_par)
        labels.append(nxt_lab)
        layer = nxt_lab
    return TruncTree(depth_cap, parents, labels=labels)


def _norm_state(polys_k, p):
    """Canonical search state: each equation g = 0 mod p^K is divided by
    its p-content (same solutions at a smaller modulus) and reduced; this
    is what makes the memoisation collapse digits the equations cannot
    see.  Returns None when some equation is a nonzero constant."""
    state = []
    for poly, K in polys_k:
        if K <= 0:
            continue
        mod = p**K
        items = [(c % mod, e) for c, e in poly]
        items = [(c, e) for c, e in items if c]
        if not items:
            continue
        v = min(pval(p, c) for c, _ in items)
        if v:
            K -= v
            if K <= 0:
                continue
            mod = p**K
            q = p**v
            items = [(c // q % mod, e) for c, e in items]
            items = [(c, e) for c, e in items if c]
            if not items:
                continue
        if all(not any(e) for _, e in items):
            return None
        state.append((tuple(sorted(items, key=lambda t: t[1])), K))
    return tuple(sorted(state))


def _alive(state, p: int, n: int, memo: dict, budget: list) -> bool:
    """Whether some t in Z_p^n solves every equation of the state.

    Digit recursion t = d + p t'; each step strips at least one power of p
    from every equation, so the recursion depth is bounded by max K.
    """
    if state is None:
        return False
    if not state:
        return True
    hit = memo.get(state)
    if hit is not None:
        return hit
    budget[0] -= 1
    if budget[0] < 0:
        raise NodeBudgetExceeded("extension search exceeded the node budget")
    result = False
    for d in iproduct(range(p), repeat=n):
        ok = True
        for poly, _K in state:
            tot = 0
            for c, ee in poly:
                t = c
                for x, e in zip(d, ee):
                    if e:
                        t *= x**e
                tot += t
            if tot % p:
                ok = False
                break
        if not ok:
            continue
        child = _norm_state(
            [(shift_scale(poly, d, p, p**K), K) for poly, K in state], p
        )
        if _alive(child, p, n, memo, budget):
            result = True
            break
    memo[state] = result
    return result


class _Lifter:
    """Shared state for one lifted_tree computation."""

    def __init__(self, sys, depth_cap, delta, node_budget):
        self.sys = sys
        self.p = sys.p
        self.cap = depth_cap
        self.delta = delta
        self.target = depth_cap + delta
        # exhaustion may look past the certification horizon: any finite
        # death depth of the congruence tree is a sound disproof
        self.deep_target = depth_cap + 2 * delta
        self.alive_memo: dict = {}
        self.node_budget = node_budget
        self.alive_budget = [node_budget]
        self.status: dict = {}
        self.wit_cache: dict = {}

    def _alive_at(self, label, depth, target) -> bool:
        if depth >= target:
            return True
        scale, mod = self.p**depth, self.p**target
        g = [(shift_scale(f, label, scale, mod), target) for f in self.sys.polys]
        state = _norm_state(g, self.p)
        try:
            return _alive(state, self.p, self.sys.n, self.alive_memo, self.alive_budget)
        except NodeBudgetExceeded as exc:
            raise NodeBudgetExceeded(
                f"extension-search budget of {self.node_budget} nodes ran out "
                f"while resolving the class at depth {depth}, label {label}"
            ) from exc

    def _death_depth(self, label, depth, target) -> int:
        for d in range(depth + 1, target + 1):
            if not self._alive_at(label, depth, d):
                return d
        raise DomainError("death depth requested for a live class")

    def _witness_for(self, label, depth):
        table = self.wit_cache.get(depth)
        if table is None:
            mod = self.p**depth
            table = {}
            for w in self.sys.witnesses:
                res = tuple(
                    q.numerator * pow(q.denominator, -1, mod) % mod for q in w
                )
                table.setdefault(res, w)
            self.wit_cache[depth] = table
        return table.get(label)

    def _quick_yes(self, label, depth):
        w = self._witness_for(label, depth)
        if w is not None:
            return Yes(w)
        cert = newton_certify(self.sys, vec(self.p, depth, label))
        if isinstance(cert, Certified) and cert.depth >= depth:
            return Yes(cert)
        return None

    def resolve(self, label, depth, budget) -> object:
        key = (depth, label)
        if key in self.status:
            return self.status[key]
        budget[0] -= 1
        if budget[0] < 0:
            return Unknown(self.delta)  # not memoised: budget-local
        st = self._quick_yes(label, depth)
        if st is not None:
            self.status[key] = st
            return st
        kids = None
        if depth < self.target:
            kids = _children(self.sys, label, depth)
            if not kids:
                out = No(depth + 1)
                self.status[key] = out
                return out
        if not self._alive_at(label, depth, self.target):
            out = No(self._death_depth(label, depth, self.target))
            self.status[key] = out
            return out
        if not self._alive_at(label, depth, self.deep_target):
            out = No(self._death_depth(label, depth, self.deep_target))
            self.status[key] = out
            return out
        if depth >= self.target:
            out = Unknown(self.delta)
            self.status[key] = out
            return out
        for kid in kids:
            st = self.status.get((depth + 1, kid))
            if st is None:
                st = self._quick_yes(kid, depth + 1)
                if st is not None:
                    self.status[(depth + 1, kid)] = st
            if isinstance(st, Yes):
                out = Yes(st.certificate)
                self.status[key] = out
                return out
        tainted = False
        all_no = True
        dead = depth
        for kid in kids:
            st = self.resolve(kid, depth + 1, budget)
            if isinstance(st, Yes):
                out = Yes(st.certificate)
                self.status[key] = out
                return out
            if isinstance(st, No):
                dead = max(dead, st.exhausted_at)
            else:
                all_no = False
                if budget[0] < 0:
                    tainted = True
        if all_no and kids:
            out = No(dead)
            self.status[key] = out
            return out
        out = Unknown(self.delta)
        if not tainted:
            self.status[key] = out
        return out


def lifted_tree(
    sys: PolySystem,
    depth_cap: int,
    delta: int,
    node_budget: int = 10**7,
    search_budget: int = 4000,
):
    """Subtree of naive_tree consisting of classes containing Z_p-points,
    plus the full status map keyed by (depth, residue label).

    Yes comes from a declared witness or a Newton certificate at the class
    or a descendant; No from exact exhaustion of the congruence tree; the
    rest is Unknown with the budget recorded.
    """
    if delta < 0:
        raise DomainError("negative certification budget")
    naive = naive_tree(sys, depth_cap, node_budget)
    lifter = _Lifter(sys, depth_cap, delta, node_budget)
    for depth in range(depth_cap + 1):
        for lab in naive.labels[depth]:
            lifter.resolve(tuple(lab), depth, [search_budget])
    statuses = lifter.status
    # a Yes child forces a Yes parent even if the parent's search was cut
    for depth in range(depth_cap, 0, -1):
        for idx, lab in enumerate(naive.labels[depth]):
            st = statuses[(depth, tuple(lab))]
            if isinstance(st, Yes):
                par = naive.parents[depth - 1][idx]
                pkey = (depth - 1, tuple(naive.labels[depth - 1][par]))
                if not isinstance(statuses[pkey], Yes):
                    statuses[pkey] = Yes(st.certificate)
    reported = {
        k: v for k, v in statuses.items() if k[0] <= depth_cap
    }
    root = (0,) * sys.n
    if not isinstance(statuses[(0, root)], Yes):
        return empty_tree(depth_cap), reported
    t = restrict(
        naive, lambda d, i: isinstance(statuses[(d, tuple(naive.labels[d][i]))], Yes)
    )
    return t, reported


def _reduce_content(poly, p):
    """Divide out the largest common power of p (same Z_p zero set)."""
    v = min(pval(p, c) for c, _ in poly)
    if v == 0:
        return poly
    q = p**v
    return tuple((c // q, e) for c, e in poly)


def _ball_system(sys: PolySystem, ball: Ball) -> PolySystem:
    """The system g(t) = f(center + p^radius t); no division happens, the
    rescale is bookkeeping on residues."""
    p, r = sys.p, ball.radius
    polys = (shift_scale(f, ball.center, p**r) for f in sys.polys)
    polys = tuple(_reduce_content(q, p) for q in polys if q)
    pr = p**r
    ws = []
    for w in sys.witnesses:
        if all(_in_ball(q, c, p, r) for q, c in zip(w, ball.center)):
            ws.append(tuple(Fraction(q - c, pr) for q, c in zip(w, ball.center)))
    allow_empty = not polys
    return PolySystem(p, sys.n, polys, tuple(ws), allow_empty or sys.allow_empty)


def _in_ball(q: Fraction, c: int, p: int, r: int) -> bool:
    d = q - c
    if d == 0:
        return True
    return pval(p, d.numerator) - pval(p, d.denominator) >= r


def tree_on_ball(
    sys: PolySystem,
    ball: Ball,
    depth_cap: int,
    delta: int | None = None,
    node_budget: int = 10**7,
    search_budget: int = 4000,
) -> TruncTree:
    """Tree of X on a ball: lifted enumeration started from the ball's
    residue class, labelled by absolute residues."""
    if len(ball.center) != sys.n:
        raise DomainError("ball dimension mismatch")
    if delta is None:
        delta = depth_cap
    local = _ball_system(sys, ball)
    t, _ = lifted_tree(local, depth_cap, delta, node_budget, search_budget)
    if t.labels is None:
        return t
    p, r = sys.p, ball.radius
    labels = []
    for d, layer in enumerate(t.labels):
        m = p ** (r + d)
        labels.append(
            [
                tuple((c + p**r * x) % m for c, x in zip(ball.center, lab))
                for lab in layer
            ]
        )
    return TruncTree(t.depth_cap, t.parents, labels=labels, empty=t.empty)


def tree_on_cheese(
    sys: PolySystem,
    cheese: Cheese,
    depth_cap: int,
    delta: int | None = None,
    node_budget: int = 10**7,
    search_budget: int = 4000,
) -> TruncTree:
    """Tree of X on a cheese: the ball tree with hole subtrees cut off at
    the hole nodes (holes that miss X are ignored)."""
    t = tree_on_ball(sys, cheese.outer, depth_cap, delta, node_budget, search_budget)
    p, r0 = cheese.p, cheese.outer.radius
    present = []
    for h in cheese.holes:
        d = h.radius - r0
        if not 0 <= d <= depth_cap:
            raise DomainError("hole outside the truncated tree")
        want = h.reduced_center(p)
        if any(tuple(lab) == want for lab in t.labels[d]):
            present.append(h)
    return cheese_restrict(t, Cheese(cheese.outer, tuple(present), p))


def garland_trees(
    sys: PolySystem,
    g: Garland,
    kappa_list,
    depth_cap: int,
    delta: int | None = None,
    node_budget: int = 10**7,
    search_budget: int = 4000,
):
    """Trees of X on the requested garland components G_kappa."""
    if len(g.x0) != sys.n or len(g.x_dir) != sys.n:
        raise DomainError("garland dimension mismatch")
    if all(c % sys.p == 0 for c in g.x_dir):
        raise DomainError("garland direction must have a unit coordinate")
    out = []
    for kappa in kappa_list:
        if kappa < g.lam or (kappa - g.xi) % g.rho:
            raise DomainError(f"kappa={kappa} is not in M(G)")
        center = tuple(a + sys.p**kappa * b for a, b in zip(g.x0, g.x_dir))
        ball = Ball(center, kappa + g.mu)
        out.append(
            (kappa, tree_on_ball(sys, ball, depth_cap, delta, node_budget, search_budget))
        )
    return out
