"""Truncated rooted trees and the constructions used throughout the package.

A TruncTree stores a rooted tree truncated at a fixed depth cap, layer by
layer.  Nodes are addressed as (depth, index); node labels are opaque tags
(typically residue tuples) and are ignored by isomorphism tests unless
explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import (
    DepthMismatch,
    DomainError,
    EmptyAttach,
    LabelMissing,
    NodeBudgetExceeded,
    PrecisionExhausted,
    _int_list,
    _list_of,
    load_json,
)

if TYPE_CHECKING:
    from .padic import PadicVec


class TruncTree:
    """Rooted tree truncated at depth_cap, layers ordered but order-irrelevant.

    parents[d][i] is the index (in layer d-1) of the parent of node i at
    depth d, for 1 <= d <= depth_cap.  A tree is either empty or has exactly
    one root.
    """

    def __init__(self, depth_cap: int, parents: list[list[int]], labels=None, empty=False):
        if depth_cap < 0:
            raise DomainError("negative depth cap")
        if len(parents) != depth_cap:
            raise DomainError("parents must have one list per depth 1..depth_cap")
        self.depth_cap = depth_cap
        self.parents = [list(layer) for layer in parents]
        self.empty = empty
        if empty and any(parents):
            raise DomainError("empty tree with nodes")
        sizes = self.layer_sizes()
        for d, layer in enumerate(self.parents, 1):
            if layer and not (0 <= min(layer) and max(layer) < sizes[d - 1]):
                raise DomainError(f"dangling parent link at depth {d}")
        self.labels = None
        if labels is not None:
            labels = [list(layer) for layer in labels]
            if [len(l) for l in labels] != sizes:
                raise DomainError("labels shape mismatch")
            self.labels = labels

    def layer_sizes(self) -> list[int]:
        if self.empty:
            return [0] * (self.depth_cap + 1)
        return [1] + [len(layer) for layer in self.parents]

    def num_nodes(self) -> int:
        return sum(self.layer_sizes())

    def children_index(self) -> list[list[list[int]]]:
        """For each depth d < cap, children[d][i] = child indices at depth d+1."""
        sizes = self.layer_sizes()
        out = []
        for d in range(self.depth_cap):
            buckets: list[list[int]] = [[] for _ in range(sizes[d])]
            for i, par in enumerate(self.parents[d] if d < len(self.parents) else []):
                buckets[par].append(i)
            out.append(buckets)
        return out

    def label(self, depth: int, index: int):
        if self.labels is None:
            raise LabelMissing("tree carries no labels")
        return self.labels[depth][index]

    def to_json(self) -> dict:
        """The tree as a JSON document.  Labels are returned as stored (a
        tuple label stays a tuple), and JSON writes a tuple as an array."""
        out = {
            "format": 1,
            "depth_cap": self.depth_cap,
            "layers": [list(range(n)) for n in self.layer_sizes()],
            "parents": [list(layer) for layer in self.parents],
        }
        if self.labels is not None:
            out["labels"] = [list(layer) for layer in self.labels]
        return out

    @staticmethod
    def from_json(data: dict) -> "TruncTree":
        if not isinstance(data, dict):
            raise DomainError("a tree must be a JSON object")
        if data.get("format") != 1:
            raise DomainError(f"unsupported tree format {data.get('format')!r}")
        cap = data.get("depth_cap")
        if type(cap) is not int:
            raise DomainError(f"depth_cap must be an integer, not {cap!r}")
        for key in ("layers", "labels"):
            value = data.get(key)
            if value is not None and not _list_of(value, lambda l: isinstance(l, list)):
                raise DomainError(f"tree field {key!r} must be a list of lists")
        parents = data.get("parents")
        if not _list_of(parents, _int_list):
            raise DomainError("tree field 'parents' must be a list of lists of parent indices")
        labels = data.get("labels")
        if labels is not None:
            labels = [[_hashable(l) for l in layer] for layer in labels]
        layers = data.get("layers")
        empty = len(layers[0]) == 0 if layers else False
        t = TruncTree(cap, parents, labels=labels, empty=empty)
        if layers is not None and [len(l) for l in layers] != t.layer_sizes():
            raise DomainError("layers contradict parents")
        return t

    @staticmethod
    def load(path: str) -> "TruncTree":
        return load_json(path, TruncTree.from_json)

    def __repr__(self):
        return f"TruncTree(depth_cap={self.depth_cap}, layers={self.layer_sizes()})"


def empty_tree(depth_cap: int) -> TruncTree:
    return TruncTree(depth_cap, [[] for _ in range(depth_cap)], empty=True)


def path_tree(depth_cap: int) -> TruncTree:
    """The tree of a one-point set: a single path."""
    return TruncTree(depth_cap, [[0] for _ in range(depth_cap)])


def full_tree(n: int, p: int, depth_cap: int, node_budget: int = 10**7) -> TruncTree:
    """Truncated T(Z_p^n): every node has exactly p^n children."""
    if n < 0:
        raise DomainError("dimension must be >= 0")
    q = p**n  # q = 1 gives the path: Z_p^0 is a point
    nodes = depth_cap + 1 if q == 1 else (q ** (depth_cap + 1) - 1) // (q - 1)
    if nodes > node_budget:
        raise NodeBudgetExceeded(f"full_tree({n},{p},{depth_cap}) exceeds node budget")
    parents = []
    size = 1
    for _ in range(depth_cap):
        parents.append([i // q for i in range(size * q)])
        size *= q
    return TruncTree(depth_cap, parents)


def y_tree(kappa: int, depth_cap: int) -> TruncTree:
    """Path of length kappa, then a bifurcation into two infinite paths."""
    if kappa < 0:
        raise DomainError("kappa must be non-negative")
    parents = []
    for d in range(1, depth_cap + 1):
        if d <= kappa:
            parents.append([0])
        elif d == kappa + 1:
            parents.append([0, 0])
        else:
            parents.append([0, 1])
    return TruncTree(depth_cap, parents)


@dataclass(frozen=True)
class Ball:
    """The coset center + p^radius Z_p^n (same radius in every coordinate)."""

    center: tuple[int, ...]
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError("negative radius")
        object.__setattr__(self, "center", tuple(int(c) for c in self.center))

    def reduced_center(self, p: int) -> tuple[int, ...]:
        m = p**self.radius
        return tuple(c % m for c in self.center)

    def contains_ball(self, other: "Ball", p: int) -> bool:
        if other.radius < self.radius:
            return False
        m = p**self.radius
        return all((a - b) % m == 0 for a, b in zip(other.center, self.center))

    def disjoint(self, other: "Ball", p: int) -> bool:
        r = min(self.radius, other.radius)
        m = p**r
        return any((a - b) % m != 0 for a, b in zip(self.center, other.center))


@dataclass(frozen=True)
class Cheese:
    """A ball minus finitely many pairwise disjoint subballs (the holes)."""

    outer: Ball
    holes: tuple[Ball, ...]
    p: int

    def __post_init__(self):
        for h in self.holes:
            if not self.outer.contains_ball(h, self.p):
                raise DomainError("hole not contained in outer ball")
        for i, a in enumerate(self.holes):
            for b in self.holes[i + 1 :]:
                if not a.disjoint(b, self.p):
                    raise DomainError("holes are not pairwise disjoint")


def from_points(points: list[PadicVec], ball: Ball, depth_cap: int) -> TruncTree:
    """Tree of a finite point set on a ball, truncated at relative depth cap.

    Nodes at relative depth d are the radius-(ball.radius + d) subballs
    meeting the point set, in the order the points first reach them; labels
    are the absolute residue tuples. Every point must have the first point's
    prime and carry at least ball.radius + depth_cap digits.

    Built bottom-up, at the cost of one reduction per point and one per node
    and depth: the points are reduced to the deepest layer, and each layer's
    nodes are reduced to their parents, numbered in order of first
    occurrence. The first point to reach a ball reaches its earliest child
    first, so each layer keeps the order of the points.
    """
    if not points:
        return empty_tree(depth_cap)
    p, r = points[0].p, ball.radius
    m = p ** (r + depth_cap)
    for i, x in enumerate(points):
        if x.p != p:
            raise DomainError(f"point {i} has prime {x.p}, point 0 has {p}")
        if x.prec < r + depth_cap:
            raise PrecisionExhausted(
                f"point {i} carries {x.prec} digits, depth cap {depth_cap} on a "
                f"radius-{r} ball needs {r + depth_cap}"
            )
    layer = list(dict.fromkeys(tuple([a % m for a in x.res]) for x in points))
    parents: list[list[int]] = []
    labels: list[list[Any]] = [layer]
    for _ in range(depth_cap):
        m //= p
        index: dict[tuple, int] = {}
        parents.append([index.setdefault(tuple([a % m for a in key]), len(index))
                        for key in layer])
        layer = list(index)
        labels.append(layer)
    if layer != [ball.reduced_center(p)]:
        raise DomainError("point outside the ball")
    return TruncTree(depth_cap, parents[::-1], labels=labels[::-1])


def product(t1: TruncTree, t2: TruncTree) -> TruncTree:
    """Layerwise product: depth-d layer is the Cartesian product of layers."""
    if t1.depth_cap != t2.depth_cap:
        raise DepthMismatch("product needs equal depth caps")
    if t1.empty or t2.empty:
        return empty_tree(t1.depth_cap)
    sizes2 = t2.layer_sizes()
    parents = [
        [a * sizes2[d] + b for a in t1.parents[d] for b in t2.parents[d]]
        for d in range(t1.depth_cap)
    ]
    return TruncTree(t1.depth_cap, parents)


def attach(t: TruncTree, node: tuple[int, int], s: TruncTree) -> TruncTree:
    """Attach s at node (identify s's root with it), truncating at t's cap."""
    if s.empty:
        raise EmptyAttach("cannot attach an empty tree")
    nd, ni = node
    sizes = t.layer_sizes()
    if not (0 <= nd <= t.depth_cap and 0 <= ni < sizes[nd]):
        raise DomainError("node reference out of range")
    parents = [list(layer) for layer in t.parents]
    labels = [list(layer) for layer in t.labels] if t.labels is not None else None
    _graft(parents, labels, node, s)
    return TruncTree(t.depth_cap, parents, labels=labels)


def _graft(parents, labels, node: tuple[int, int], s: TruncTree) -> None:
    """Append s below node to per-depth parent lists (and labels, if not
    None) in place, truncating at their depth cap.

    s's node j at depth k lands at index j + (the length of the target layer
    before the graft); its parent is found by the same offset one layer up.
    """
    nd, offset = node
    for k in range(1, min(s.depth_cap, len(parents) - nd) + 1):
        layer = parents[nd + k - 1]
        base = len(layer)
        layer.extend([offset + par for par in s.parents[k - 1]])
        if labels is not None:
            n = len(s.parents[k - 1])
            labels[nd + k].extend(s.labels[k] if s.labels is not None else [None] * n)
        offset = base


def restrict(
    t: TruncTree, keep, node: tuple[int, int] = (0, 0), depth_cap=None
) -> TruncTree:
    """The subtree below node, re-rooted at depth 0, of the nodes whose whole
    path from node passes keep(depth, index) (depth and index in t).

    keep is asked only below a kept parent, layer by layer.  Labels and the
    empty flag carry over.
    """
    nd, ni = node
    sizes = t.layer_sizes()
    if not (0 <= nd <= t.depth_cap and (t.empty or 0 <= ni < sizes[nd])):
        raise DomainError("node reference out of range")
    if depth_cap is None:
        depth_cap = t.depth_cap - nd
    if depth_cap > t.depth_cap - nd:
        raise DepthMismatch("subtree cannot be deeper than the source tree")
    masks = [[i == ni for i in range(sizes[nd])]]
    for depth in range(nd + 1, nd + depth_cap + 1):
        above = masks[-1]
        masks.append([above[par] and bool(keep(depth, i))
                      for i, par in enumerate(t.parents[depth - 1])])
    labels = None if t.labels is None else t.labels[nd:]
    parents, labels = _keep_layers(t.parents[nd:], labels, masks)
    return TruncTree(depth_cap, parents, labels=labels, empty=t.empty)


def _keep_layers(parents, labels, masks):
    """The per-depth parent lists and labels (None stays None) of the nodes
    whose mask is set, renumbered in order.  masks[0] is the top layer's,
    parents[k] the parent list of layer k + 1; a set mask needs a set mask
    at its parent."""
    at = list(accumulate(masks[0], initial=0))  # at[i]: index of node i, if kept
    kept = []
    for layer, mask in zip(parents, masks[1:]):
        kept.append([at[par] for par in compress(layer, mask)])
        at = list(accumulate(mask, initial=0))
    if labels is not None:
        labels = [list(compress(lab, mask)) for lab, mask in zip(labels, masks)]
    return kept, labels


def subtree(t: TruncTree, node: tuple[int, int], depth_cap=None) -> TruncTree:
    """The subtree rooted at the given node, re-rooted at depth 0."""
    return restrict(t, lambda d, i: True, node, depth_cap)


def cheese_restrict(t: TruncTree, cheese: Cheese) -> TruncTree:
    """Subtree of nodes not strictly inside any hole; hole nodes stay as leaves.

    Requires residue labels; a hole of radius r corresponds to the node at
    relative depth r - outer.radius whose label equals the hole's center.
    """
    if t.labels is None:
        raise LabelMissing("cheese_restrict needs residue labels")
    return _cut_holes(t, cheese, skip_missing=False)


def _cut_holes(t: TruncTree, cheese: Cheese, skip_missing: bool) -> TruncTree:
    """cheese_restrict's cut, and the one place a hole is matched to its
    node.  A hole below the tree is a DomainError, and so is a hole with no
    node unless skip_missing (an empty tree has no node)."""
    p, r0 = cheese.p, cheese.outer.radius
    hole_nodes = set()
    for h in cheese.holes:
        d = h.radius - r0
        if not 0 <= d <= t.depth_cap:
            raise DomainError("hole outside the truncated tree")
        label = h.reduced_center(p)
        if skip_missing and (t.empty or _label_index(t, d, label) is None):
            continue
        hole_nodes.add(find_node_by_label(t, d, label))
    # hole nodes stay, their strict descendants go
    return restrict(t, lambda d, i: (d - 1, t.parents[d - 1][i]) not in hole_nodes)


def find_node_by_label(t: TruncTree, depth: int, label) -> tuple[int, int]:
    if t.labels is None:
        raise LabelMissing("tree carries no labels")
    i = _label_index(t, depth, label)
    if i is None:
        raise DomainError(f"no node with label {label} at depth {depth}")
    return (depth, i)


def _label_index(t: TruncTree, depth: int, label):
    """The index of the node at depth labelled label, or None."""
    want = _hashable(label)
    for i, lab in enumerate(t.labels[depth]):
        if _hashable(lab) == want:
            return i
    return None


def _ahu_ids(trees: list[TruncTree], with_labels: bool) -> list[int]:
    """Joint AHU refinement: returns the root id of each tree.

    Ids are interned per depth across all trees, so equal ids at equal
    depth mean exactly isomorphic subtrees (no hashing involved).
    """
    cap = trees[0].depth_cap
    # process bottom-up with one shared intern table per depth; a key is the
    # sorted tuple of child ids, and only a node with two or more children
    # needs the sort
    layer_ids: list[list[int]] = [[] for _ in trees]
    for d in range(cap, -1, -1):
        intern: dict[tuple, int] = {}
        new_ids = []
        for t, below in zip(trees, layer_ids):
            n = t.layer_sizes()[d]
            if d == cap:
                keys = [()] * n
            else:
                kids: list[list[int]] = [[] for _ in range(n)]
                for par, i in zip(t.parents[d], below):
                    kids[par].append(i)
                keys = [tuple(k) if len(k) < 2 else tuple(sorted(k)) for k in kids]
            if with_labels:
                labels = t.labels[d] if t.labels else [None] * n
                keys = [(_hashable(l), k) for l, k in zip(labels, keys)]
            new_ids.append([intern.setdefault(k, len(intern)) for k in keys])
        layer_ids = new_ids
    return [-1 if t.empty else ids[0] for t, ids in zip(trees, layer_ids)]


def _hashable(l):
    return tuple(l) if isinstance(l, list) else l


def is_isomorphic(t1: TruncTree, t2: TruncTree, with_labels: bool = False) -> bool:
    """Exact isomorphism of truncated trees (labels ignored by default)."""
    if t1.depth_cap != t2.depth_cap:
        raise DepthMismatch(f"depth caps differ: {t1.depth_cap} vs {t2.depth_cap}")
    if t1.empty or t2.empty:
        return t1.empty == t2.empty
    if t1.layer_sizes() != t2.layer_sizes():
        return False
    r1, r2 = _ahu_ids([t1, t2], with_labels)
    return r1 == r2


def to_dot(
    t: TruncTree,
    thick_edge: Optional[Callable[[int, int, int], bool]] = None,
    show_labels: bool = False,
) -> str:
    """DOT export with depth-ranked layout.

    thick_edge(child_depth, parent_index, child_index) -> bool selects edges
    drawn with a heavy pen (the 'multiply by p' convention).
    """
    lines = ["digraph tree {", "  rankdir=TB;", "  node [shape=point];"]
    sizes = t.layer_sizes()
    for d in range(t.depth_cap + 1):
        names = []
        for i in range(sizes[d]):
            name = f"n{d}_{i}"
            names.append(name)
            if show_labels and t.labels is not None:
                lines.append(f'  {name} [shape=circle, label="{t.labels[d][i]}"];')
        if names:
            lines.append("  { rank=same; " + "; ".join(names) + "; }")
    for d in range(1, t.depth_cap + 1):
        for i, par in enumerate(t.parents[d - 1]):
            style = " [penwidth=2.5]" if thick_edge is not None and thick_edge(d, par, i) else ""
            lines.append(f"  n{d - 1}_{par} -> n{d}_{i}{style};")
    lines.append("}")
    return "\n".join(lines)
