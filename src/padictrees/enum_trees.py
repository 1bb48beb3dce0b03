"""Truncated trees of polynomial systems over Z_p.

naive_tree lists the residue classes solving the congruences level by
level.  lifted_tree keeps only classes that contain genuine Z_p-points;
membership in the image of the projection is undecidable in general, so
statuses are three-valued.  Yes needs a certificate: a declared rational
point, a Newton certificate or an exact representative at the class or a
descendant, or a covering class (Hensel).  No needs the congruence
solutions below the class to die out at a finite depth, Unknown carries
the exhausted budget.

One kernel, _Children, lists the children of a naive class for
naive_tree, for the searches of lifted_tree and for the status map.  At
depth >= 1 the congruence for a child is linear in its digits, with the
Jacobian mod p as its matrix, and that matrix depends only on the class's
residue mod p (the linearisation behind weak smoothness).  So the solutions
are read from one table per distinct Jacobian mod p, indexed by
f(label) / p^depth mod p, instead of being searched for each class.

lifted_tree walks the naive tree top-down, one layer at a time, through
naive_tree's expand callback:

- A class decided No is not expanded: the classes below it are never
  listed.  Each of them has that No, since a subclass of a class without
  Z_p-points has none, and the status map answers it on demand.
- A class a + p^d Z_p^n (d >= 1) whose least k x k Jacobian minor
  valuation e at a is at most d - 1 is covering: the valuative Hensel
  cover, weak smoothness applied class by class.  On it det M has
  valuation e and J = J(a) mod p^e.  Since f(x + p^d' t) = f(x) + p^d'
  J(x) t mod p^(2d'), a naive class x + p^d' Z_p^n in it (d' >= d) has a
  point mod p^(d' + m), m <= e, iff f(x) / p^d' mod p^m lies in the image
  of J(a) mod p^m; at m = e such a point y has v(f(y)) > 2e, and Newton's
  lemma lifts it.  So one lookup in an image table, shared by the classes
  with the same Jacobian mod p^e, decides each class: the covering
  class's Yes, or No at the first depth d' + m that misses the image.
  Covered classes are neither searched nor certified; at e = 0 all are
  Yes.
- Every other class is resolved by a search that reads the class's shifted
  system g(t) = f(label + p^depth t), carried down one digit step at a
  time: a child with digit vector d has g(d + p t).  The search decides a
  covering class it reaches by the cover, and runs on an explicit stack.

The extension-existence test behind No is exact: it recurses on digits of
the carried system and memoises on the reduced coefficients, so digits
the equations do not yet see cost nothing instead of multiplying the
search by p^n per level.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct
from operator import add, mul

from .errors import DomainError, NodeBudgetExceeded
from .padic import Certified, newton_certify, pval, vec
from .polysys import PolySystem, _int_det, shift_scale
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

    The certificate was made for the class (depth, label): the class itself,
    a descendant whose Yes an ancestor inherits, or for kind "hensel" the
    covering class above, whose image table decides its naive subtree.  By
    kind:

    - "witness": certificate is the declared rational point;
    - "newton": a padic.Certified from newton_certify, naming its minor;
    - "exact": a Certified with cols None, whose class representative
      solves the system;
    - "hensel": Certified(e, depth, cols), the minor on cols has the least
      valuation e, its margin, at the covering class, which lies at depth
      >= e + 1; every naive class below it whose f(label) / p^depth' mod
      p^e lies in the image of the Jacobian mod p^e shares this Yes, and
      every other one is No(depth' + m) with m <= e.
    """

    certificate: object
    kind: str
    depth: int
    label: tuple


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


def _digit_roots(polys, p: int, n: int) -> list:
    """The digit vectors d in {0..p-1}^n, in sorted order, at which every
    polynomial vanishes mod p."""
    rows = []  # nonzero terms mod p: (c, (coordinate, power) pairs)
    for poly in polys:
        terms = [
            (c % p, tuple((j, e) for j, e in enumerate(ee) if e))
            for c, ee in poly
            if c % p
        ]
        if len(terms) == 1 and not terms[0][1]:
            return []  # a unit constant
        if terms:
            rows.append(terms)
    digits = iproduct(range(p), repeat=n)
    if not rows:
        return list(digits)
    out = []
    for d in digits:
        for terms in rows:
            tot = 0
            for c, mono in terms:
                for j, e in mono:
                    c *= d[j] ** e
                tot += c
            if tot % p:
                break
        else:
            out.append(d)
    return out


class _Children:
    """The children kernel of one tree computation: called with a naive
    class (label, depth), it lists the class's residue extensions to depth+1,
    in sorted digit order, as absolute labels.

    At depth 0 they are the roots mod p of the polynomials.  At depth l >= 1
    the test is linear in the digit vector d, since
    f(a + p^l d) = f(a) + p^l J(a) d mod p^2l and 2l >= l+1: the child
    a + p^l d exists iff c + J(a) d = 0 mod p, with c = f(a) / p^l mod p.
    J(a) mod p depends on a mod p only.  So one table per distinct Jacobian
    mod p (and depth, as it stores the label offsets p^l d) maps each
    c in (Z/p)^k to its sorted digit vectors; it is built on first use and
    looked up through the class's residue mod p.  A class then costs k
    evaluations of f and one lookup.
    """

    def __init__(self, sys: PolySystem):
        self.sys = sys
        self.tables: dict = {}  # (residue mod p, depth) -> table
        self.shared: dict = {}  # (Jacobian mod p, depth) -> table

    def _table(self, res, depth):
        sys, p = self.sys, self.sys.p
        jac = tuple(
            tuple(sys.partial(i, j, res) % p for j in range(sys.n))
            for i in range(len(sys.polys))
        )
        table = self.shared.get((jac, depth))
        if table is None:
            table = self.shared[jac, depth] = {}
            for d in iproduct(range(p), repeat=sys.n):
                c = tuple(-sum(a * x for a, x in zip(row, d)) % p for row in jac)
                table.setdefault(c, []).append(tuple(x * p**depth for x in d))
        return table

    def values(self, label) -> tuple:
        """f(label), one integer per polynomial."""
        return tuple([self.sys.eval_poly(i, label) for i in range(len(self.sys.polys))])

    def __call__(self, label, depth, fx=None):
        """The children of the class; fx is f(label) when the caller has it."""
        sys, p = self.sys, self.sys.p
        if depth == 0:
            return _digit_roots(sys.polys, p, sys.n)
        key = (tuple([x % p for x in label]), depth)
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = self._table(*key)
        pl = p**depth
        c = tuple([v // pl % p for v in (self.values(label) if fx is None else fx)])
        return [tuple(map(add, label, off)) for off in table.get(c, ())]


def naive_tree(
    sys: PolySystem, depth_cap: int, node_budget: int = 10**7, *, expand=None,
    children=None,
) -> TruncTree:
    """Layered BFS of all residue solutions f = 0 mod p^depth, with the
    absolute residue tuples as labels.

    expand(depth, labels, parents), called after each layer is built (with
    no parents at the root), returns one entry per class of the layer: None
    to leave its children unlisted, else f(label) for the children kernel
    to read.  The default lists every class.  The node budget
    counts the listed classes; as each class's extensions are read off the
    p^n digit vectors, a system with p^n above the budget is refused first.
    `children` is the _Children kernel to share with the caller (default: a
    fresh one).
    """
    if depth_cap < 0:
        raise DomainError("negative depth cap")
    if sys.p**sys.n > node_budget:
        raise NodeBudgetExceeded(
            f"p^n = {sys.p}^{sys.n} exceeds the node budget of {node_budget}"
        )
    if children is None:
        children = _Children(sys)
    layer = [(0,) * sys.n]
    labels = [layer]
    parents = []
    keep = None if expand is None else expand(0, layer, [])
    used = 1
    for depth in range(depth_cap):
        nxt_par, nxt_lab = [], []
        for idx, lab in enumerate(layer):
            fx = None
            if keep is not None:
                fx = keep[idx]
                if fx is None:
                    continue
            for child in children(lab, depth, fx):
                nxt_par.append(idx)
                nxt_lab.append(child)
        used += len(nxt_par)
        if used > node_budget:
            raise NodeBudgetExceeded(f"naive tree exceeds {node_budget} nodes")
        parents.append(nxt_par)
        labels.append(nxt_lab)
        layer = nxt_lab
        if expand is not None:
            keep = expand(depth + 1, nxt_lab, nxt_par)
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
    for d in _digit_roots([poly for poly, _K in state], p, n):
        child = _norm_state(
            [(shift_scale(poly, d, p, p**K), K) for poly, K in state], p
        )
        if _alive(child, p, n, memo, budget):
            result = True
            break
    memo[state] = result
    return result


class _Image:
    """The image of an integer k x n matrix J mod p^e, read off a Smith
    form U J V = diag(s_i) mod p^e, of which only the row operations U are
    kept.  A vector c lies in the image mod p^m (m <= e) iff every (U c)_i
    vanishes mod p^min(v(s_i), m), so one product U c gives the least m at
    which c misses.  No vector of the image is listed.
    """

    def __init__(self, jac, p, e):
        self.p, self.e, self.mod, self.rows = p, e, p**e, []
        a = [[x % self.mod for x in row] for row in jac]
        u = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
        free = set(range(len(a[0]))) if a else set()
        for r in range(len(a)):
            # the pivot has the least valuation left, so it divides every
            # entry of its column and row; the column operations that would
            # clear its row change no other row, and are left out
            v, i, j = min(
                ((pval(p, a[i][j]), i, j) for i in range(r, len(a)) for j in free if a[i][j]),
                default=(e, r, None),
            )
            a[r], a[i], u[r], u[i] = a[i], a[r], u[i], u[r]
            self.rows.append((u[r], p**v))
            if j is None:
                continue
            free.discard(j)
            inv = pow(a[r][j] // p**v, -1, self.mod)
            for i in range(r + 1, len(a)):
                f = a[i][j] // p**v * inv
                a[i] = [(x - f * y) % self.mod for x, y in zip(a[i], a[r])]
                u[i] = [(x - f * y) % self.mod for x, y in zip(u[i], u[r])]

    def miss(self, fx, depth) -> int:
        """0 when c = f(x) / p^depth lies in the image mod p^e, else the
        least m at which c mod p^m misses the image mod p^m."""
        p, pd, mod = self.p, self.p**depth, self.mod
        c = [x // pd for x in fx]
        ws = ((sum(map(mul, row, c)) % mod, q) for row, q in self.rows)
        return min((pval(p, w) + 1 for w, q in ws if w % q), default=0)


class _Cover:
    """A covering class: the image table of its Jacobian, and the Yes that
    every class of its naive subtree in the image shares."""

    __slots__ = ("image", "yes")

    def __init__(self, image, yes):
        self.image, self.yes = image, yes


class _Lifter:
    """Shared state for one lifted_tree computation.

    A class is searched through its carried system g(t) = f(label +
    p^depth t), reduced mod p^deep_target, the deepest modulus a search
    reads.
    """

    def __init__(self, sys, depth_cap, delta, node_budget, search_budget):
        self.sys = sys
        self.children = _Children(sys)
        self.p = sys.p
        self.cap = depth_cap
        self.delta = delta
        self.target = depth_cap + delta
        # exhaustion may look past the certification horizon: any finite
        # death depth of the congruence tree is a sound disproof
        self.deep_target = depth_cap + 2 * delta
        self.mod = self.p**self.deep_target
        self.alive_memo: dict = {}
        self.node_budget = node_budget
        self.search_budget = search_budget
        self.alive_budget = [node_budget]
        self.status: dict = {}
        self.quick: dict = {}
        self.wit_cache: dict = {}
        self.images: dict = {}  # (e, Jacobian mod p^e) -> _Image
        self.covering: dict = {}  # (depth, label) -> _Cover, for a Yes
        # the listed tree so far, one entry per layer: labels, parents
        # (none at the root) and statuses
        self.labels: list = []
        self.parents: list = []
        self.statuses: list = []
        # per class of the last layer: its carried system when it is
        # searched, the _Cover it lies in when covered, None below a No
        self.carried: list = []

    def root_system(self):
        zero = (0,) * self.sys.n
        return tuple(shift_scale(f, zero, 1, self.mod) for f in self.sys.polys)

    def shift(self, g, kid, label, depth):
        """The carried system of the child `kid` of the class (depth, label)
        whose carried system is g."""
        pl = self.p**depth
        digit = tuple([(a - b) // pl for a, b in zip(kid, label)])
        return tuple(shift_scale(f, digit, self.p, self.mod) for f in g)

    def _alive_at(self, g, label, depth, target) -> bool:
        if depth >= target:
            return True
        state = _norm_state([(f, target) for f in g], self.p)
        try:
            return _alive(state, self.p, self.sys.n, self.alive_memo, self.alive_budget)
        except NodeBudgetExceeded as exc:
            raise NodeBudgetExceeded(
                f"extension-search budget of {self.node_budget} nodes ran out "
                f"while resolving the class at depth {depth}, label {label}"
            ) from exc

    def _death_depth(self, g, label, depth, target) -> int:
        for d in range(depth + 1, target + 1):
            if not self._alive_at(g, label, depth, d):
                return d
        raise DomainError("death depth requested for a live class")

    def _minor(self, label, depth):
        """(image table, cols) when the class is covering: the least
        valuation e of a k x k Jacobian minor at the label, reached on
        cols, is below the depth.  Else None.  Classes with the same e and
        the same Jacobian mod p^e share the table."""
        sys, p, mod = self.sys, self.p, self.p**depth
        jac = [[sys.partial(i, j, label) % mod for j in range(sys.n)] for i in range(len(sys.polys))]
        if jac and not any(map(any, jac)):
            return None  # every minor vanishes mod p^depth
        dets = (
            (_int_det([[row[j] for j in cols] for row in jac]) % mod, cols)
            for cols in combinations(range(sys.n), len(jac))
        )
        e, cols = min(((pval(p, d), cols) for d, cols in dets if d), default=(0, None))
        if cols is None:
            return None
        key = (e, tuple(tuple(x % p**e for x in row) for row in jac))
        if key not in self.images:
            self.images[key] = _Image(jac, p, e)
        return self.images[key], cols

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

    def _quick(self, label, depth, fx=None):
        """A status without a search, or None: at a covering class the
        cover's Yes or No, else a Yes from a witness or a Newton
        certificate.  fx is f(label) when the caller has it.  Memoised with
        the None, since a cut search is answered again from every class
        below it."""
        key = (depth, label)
        if key in self.quick:
            return self.quick[key]
        found = self._minor(label, depth) if depth else None
        if found is not None:
            image, cols = found
            m = image.miss(self.children.values(label) if fx is None else fx, depth)
            if m:
                st = No(depth + m)
            else:
                st = Yes(Certified(image.e, depth, cols), "hensel", depth, label)
                self.covering[key] = _Cover(image, st)
        else:
            st = None
            w = self._witness_for(label, depth)
            if w is not None:
                st = Yes(w, "witness", depth, label)
            else:
                cert = newton_certify(self.sys, vec(self.p, depth, label))
                if isinstance(cert, Certified) and cert.depth >= depth:
                    st = Yes(cert, "exact" if cert.exact else "newton", depth, label)
        self.quick[key] = st
        return st

    def resolve(self, label, depth, g, budget) -> object:
        """Status of the class, searched through its carried system g;
        memoised unless the search budget cut it.  The searches run on an
        explicit stack, one generator per open class, so a long singular
        spine needs no recursion."""
        st = self.status.get((depth, label))
        if st is not None:
            return st
        stack = [((depth, label), self._search(label, depth, g, budget))]
        sent = None
        while stack:
            key, search = stack[-1]
            try:
                kid, gk = search.send(sent)
            except StopIteration as done:
                st, final = done.value
                if final:
                    self.status[key] = st
                stack.pop()
                sent = st
            else:
                stack.append(((key[0] + 1, kid), self._search(kid, key[0] + 1, gk, budget)))
                sent = None
        return st

    def _search(self, label, depth, g, budget):
        """Generator behind resolve: it yields (kid, carried system) for each
        child whose status it needs, is sent that status, and returns
        (status, final)."""
        budget[0] -= 1
        if budget[0] < 0:
            return Unknown(self.search_budget), False
        st = self._quick(label, depth)
        if st is not None:
            return st, True
        kids = None
        if depth < self.target:
            kids = self.children(label, depth)
            if not kids:
                return No(depth + 1), True
        for target in (self.target, self.deep_target):
            if not self._alive_at(g, label, depth, target):
                return No(self._death_depth(g, label, depth, target)), True
        if depth >= self.target:
            return Unknown(self.delta), True
        for kid in kids:
            st = self.status.get((depth + 1, kid))
            if st is None:
                st = self._quick(kid, depth + 1)
                if st is not None:
                    self.status[(depth + 1, kid)] = st
            if isinstance(st, Yes):
                return st, True
        tainted = False
        all_no = True
        dead = depth
        for kid in kids:
            st = self.status.get((depth + 1, kid))
            if st is None:
                st = yield kid, self.shift(g, kid, label, depth)
            if isinstance(st, Yes):
                return st, True
            if isinstance(st, No):
                dead = max(dead, st.exhausted_at)
            else:
                all_no = False
                if budget[0] < 0:
                    tainted = True
        if all_no:
            return No(dead), True
        if tainted:
            return Unknown(self.search_budget), False
        return Unknown(self.delta), True

    def walk(self, depth, labels, parents):
        """naive_tree's expand callback: the statuses of a listed layer, and
        per class None to leave its children unlisted (below a No, or at the
        cap) or f(label), read once for the cover lookup and the children."""
        values = self.children.values
        if depth == 0:
            g = self.root_system()
            layer, nxt = [self.resolve(labels[0], 0, g, [self.search_budget])], [g]
            fxs = [()]  # the roots mod p are found without f(label)
        else:
            layer, nxt, fxs = [], [], []
            for lab, par in zip(labels, parents):
                g = self.carried[par]
                if type(g) is _Cover:
                    # below a covering class: one lookup, none at margin 0
                    fx = values(lab) if g.image.e else None
                    m = g.image.miss(fx, depth) if fx else 0
                    st = No(depth + m) if m else g.yes
                else:
                    key, fx = (depth, lab), values(lab)
                    st = self.status.get(key) or self._quick(lab, depth, fx)
                    up, g = g, self.covering.get(key)
                    if g is None and not isinstance(st, No):
                        g = self.shift(up, lab, self.labels[-1][par], depth - 1)
                        if st is None:
                            st = self.resolve(lab, depth, g, [self.search_budget])
                    if isinstance(st, Yes):
                        self._propagate(st, depth - 1, par)
                layer.append(st)
                nxt.append(g)
                fxs.append(fx)
        self.labels.append(labels)
        self.parents.append(parents)
        self.statuses.append(layer)
        self.carried = [None if isinstance(st, No) else g for g, st in zip(nxt, layer)]
        if depth == self.cap:
            return [None] * len(labels)
        return [
            None if g is None else values(lab) if fx is None else fx
            for lab, g, fx in zip(labels, self.carried, fxs)
        ]

    def _propagate(self, st, depth, j):
        """A Yes class makes its ancestors Yes, also where a search was
        cut; (depth, j) is its parent in the listed tree."""
        for d in range(depth, -1, -1):
            if isinstance(self.statuses[d][j], Yes):
                return
            self.statuses[d][j] = st
            if d:
                j = self.parents[d][j]


class _Statuses(Mapping):
    """The status of every naive class, keyed by (depth, residue label).

    Only the listed classes are stored: the root and the children of the
    classes that are not No.  A naive class below a No answers with that
    No, found by walking its label up; iteration and len list these
    implied classes too, with the children kernel below each listed No.
    """

    def __init__(self, sys: PolySystem, depth_cap: int, listed: dict, children):
        self.sys = sys
        self.depth_cap = depth_cap
        self.listed = listed
        self.children = children
        self._len = None

    def _is_naive(self, key) -> bool:
        if not (isinstance(key, tuple) and len(key) == 2):
            return False
        d, lab = key
        if not (isinstance(d, int) and 0 <= d <= self.depth_cap):
            return False
        if not (isinstance(lab, tuple) and len(lab) == self.sys.n):
            return False
        mod = self.sys.p**d
        return all(isinstance(x, int) and 0 <= x < mod for x in lab) and all(
            self.sys.eval_poly(i, lab) % mod == 0 for i in range(len(self.sys.polys))
        )

    def __getitem__(self, key):
        st = self.listed.get(key)
        if st is not None:
            return st
        if not self._is_naive(key):
            raise KeyError(key)
        d, lab = key
        p = self.sys.p
        for k in range(d - 1, -1, -1):
            st = self.listed.get((k, tuple(x % p**k for x in lab)))
            if st is not None:
                return st
        raise KeyError(key)  # unreachable: the root is listed

    def __contains__(self, key) -> bool:
        return key in self.listed or self._is_naive(key)

    def implied(self):
        """(key, No) for every naive class below a listed No."""
        for (d, lab), st in self.listed.items():
            if not isinstance(st, No):
                continue
            stack = [(d, lab)]
            while stack:
                dd, above = stack.pop()
                if dd == self.depth_cap:
                    continue
                for kid in self.children(above, dd):
                    yield (dd + 1, kid), st
                    stack.append((dd + 1, kid))

    def __iter__(self):
        yield from self.listed
        for key, _ in self.implied():
            yield key

    def __len__(self) -> int:
        if self._len is None:
            self._len = len(self.listed) + sum(1 for _ in self.implied())
        return self._len

    def items(self):
        return _StatusItems(self)

    def values(self):
        return _StatusValues(self)


class _StatusItems(ItemsView):
    def __iter__(self):
        yield from self._mapping.listed.items()
        yield from self._mapping.implied()


class _StatusValues(ValuesView):
    def __iter__(self):
        yield from self._mapping.listed.values()
        for _, st in self._mapping.implied():
            yield st


def lifted_tree(
    sys: PolySystem,
    depth_cap: int,
    delta: int,
    node_budget: int = 10**7,
    search_budget: int = 4000,
):
    """Subtree of naive_tree consisting of classes containing Z_p-points,
    plus the status map keyed by (depth, residue label), which answers
    every naive class.

    The naive tree is walked top-down (see the module docstring), and only
    the root and the children of classes that are not No are listed;
    node_budget bounds the listed classes.  The status map stores the
    listed classes (its `listed` dict) and answers a class below a No with
    that No on demand.  A covering class and the classes below it are
    decided by the cover's lookup, and every other class is resolved by a
    search.  Yes comes from a declared witness, a Newton certificate or an
    exact representative at the class or a descendant, or the cover; No
    from exact exhaustion of the congruence tree, by search or by the
    cover's count; the rest is Unknown with the budget recorded.  Each search has its own budget of `search_budget`
    classes, so a cut search is answered but not memoised; a Yes found
    later below a cut class still makes it Yes.
    """
    if delta < 0:
        raise DomainError("negative certification budget")
    lifter = _Lifter(sys, depth_cap, delta, node_budget, search_budget)
    listed = naive_tree(
        sys, depth_cap, node_budget, expand=lifter.walk, children=lifter.children
    )
    status = lifter.statuses
    statuses = _Statuses(sys, depth_cap, {
        (d, lab): st
        for d in range(depth_cap + 1)
        for lab, st in zip(listed.labels[d], status[d])
    }, lifter.children)
    if not isinstance(status[0][0], Yes):
        return empty_tree(depth_cap), statuses
    return restrict(listed, lambda d, i: isinstance(status[d][i], Yes)), statuses


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
