"""Finite vertex sets on the Berkovich line: hulls, lattice convexity,
smoothness, and the complement domains they cut out.

Level-n vertices are the points with g <= n.  Along a segment these sit
at the radius exponents p/q with lcm(m, q) <= n, so consecutive ones are
Farey neighbours; an annulus between adjacent vertices is clean exactly
when no point with g <= max(g_outer, g_inner) lies strictly inside,
which the first step of a Farey walk decides.
Smoothness = every special direction of every vertex meets the set, and
every complement component is a clean disk or annulus.  The checker is
independent of the hull constructions so the two can audit each other.

Every query reads one index, the ``HullTree`` of the set, built on first
use and cached on the ``VertexSet``.  Its nodes are the join-closure of
the vertices, a finite subtree of the line; the nodes that are not
vertices are the missing junctions.  A complement component is an open
edge between two vertices, a disk hanging off the tree, or a connected
group of non-vertex nodes with the edges around it.  For n vertices, a
tree of depth d whose nodes have at most k children:

* building the tree: O(n log n) comparisons of integer keys to sort the
  vertices in depth-first order, n - 1 joins of neighbours to close
  them, and one stack pass for the parents;
* ``VertexSet.union`` of k new points with a set that carries its tree:
  k seats on that tree, whose run caches are warm, a join per slot of
  one point, O(k log n) comparisons of integer keys to merge the points
  and nodes, one copy of the parent map and one pass for the children;
* ``hull``, ``HullTree.parent_of``/``children_of`` and ``in``: lookups;
* ``HullTree.seat``: a descent from the top, O(k) comparisons at each
  node with several children, and one join and a bisection over cached
  integer t values for each run, the path below a single-child node on
  which every node but the last has one child; O(b k + r log n) for b
  such nodes and r runs passed, where one node at a time took O(d k);
* ``locate``: a ``seat``, then a walk over the component found, O(its
  size);
* ``meets`` (does an open disk off a point hold a vertex) and
  ``deepest_below``: a ``seat`` and O(k) comparisons, or a lookup in a
  per-node map built in one pass on first use;
* ``missing_flanks`` of a vertex: O(k), from its children.  The special
  directions are decided from the integers m and g = lcm(m, q), and each
  child costs one comparison of centres; a ``Direction`` is built only
  for a flank that is missing;
* ``is_smooth``, ``enumerate_domains``, ``dual_graph``: one pass over the
  tree; ``is_smooth`` adds, per pair of adjacent vertices, the first
  step of the lattice walk, and walks on only for a violation, to name
  its least-level point;
* ``segment_lattice_points`` at level N: per piece between the inner
  centre's slots, of multiplicity m, a walk of the Farey sequence of
  order N // m on ints, O(1) per point returned.  Its start costs one
  modular inverse when m times the piece's lower end is in that
  sequence, and one pass over the denominators up to N // m otherwise;
  each point returned costs one gcd and a point, and no ``Fraction``;
* ``smooth_n_convex_hull``: one tree build, then edits of parents and
  children; a lattice scan per edge and a flank test per vertex, once.

The set order, in which a ``VertexSet`` keeps its points and the tree its
nodes, is ``TypeIIPoint.sort_key``'s, each radius and centre term read
as integers on the lattice of the set.  With ``berkovich``'s integer
kernel, building, seating, flanking and the lattice scan compare no
``Fraction``, and the points they make are built from ints with none.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

from .berkovich import (
    Direction,
    TypeIIPoint,
    _point,
    _point_over,
    _scaled,
    _split,
    classify_point,
    direction_at,
    g_point,
    join,
    leq,
    m_point,
    point_in_direction,
)
from .errors import RoundCapExceeded
from .puiseux import INF


class VertexSet:
    """Immutable finite set of disk points, kept sorted for determinism.

    Its hull tree, the index every query reads, is built on first use
    and cached.
    """

    __slots__ = ("points", "_members", "_tree")

    def __init__(self, points=()):
        uniq = {}
        for p in points:
            uniq[p] = None
        object.__setattr__(self, "points", tuple(_in_set_order(uniq)))
        object.__setattr__(self, "_members", frozenset(uniq))
        object.__setattr__(self, "_tree", None)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self._members

    def __eq__(self, other):
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def union(self, extra) -> "VertexSet":
        """The set with the extra points.  A set carrying its tree hands
        the union the tree grown from it, and merges in the new points."""
        if self._tree is None:
            return VertexSet(self.points + tuple(extra))
        new = _in_set_order({p: None for p in extra if p not in self._members})
        if not new:
            return self
        vs = object.__new__(VertexSet)
        object.__setattr__(vs, "points", tuple(_merged(self.points, new)))
        object.__setattr__(vs, "_members", self._members.union(new))
        object.__setattr__(vs, "_tree", _grown_by(self._tree, new, vs._members))
        return vs

    def tree(self) -> "HullTree":
        """The hull tree of the set (built once)."""
        if self._tree is None:
            object.__setattr__(self, "_tree", _build_tree(self))
        return self._tree

    def __str__(self):
        return "{" + ", ".join(str(p) for p in self.points) + "}"

    def __repr__(self):
        return f"VertexSet({self})"


def as_vertex_set(points) -> VertexSet:
    """The points as a VertexSet; a VertexSet is returned as it is,
    with the tree it carries."""
    return points if isinstance(points, VertexSet) else VertexSet(points)


@dataclass(frozen=True)
class HullTree:
    """Join-closure of a vertex set with its tree structure.

    ``edges`` lists (outer, inner) pairs of tree-adjacent nodes, ordered
    by inner node; ``top`` is the unique maximal node.  ``vertices`` is
    the set the tree was built from: the nodes outside it are its
    missing junctions.  ``seat``'s runs and the deepest-vertex map
    are built on first use.
    """

    nodes: tuple
    edges: tuple
    top: TypeIIPoint
    vertices: frozenset = field(compare=False, repr=False)
    parent_of: dict = field(compare=False, repr=False)
    children_of: dict = field(compare=False, repr=False)
    _runs: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _deepest: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def seat(self, p):
        """Where p sits on the tree, found by descending from the top.

        (u, w): p lies in the branch off the open edge from node u down
        to node w.  (u, None): p is the node u, or hangs off u in a
        direction holding no node.  (None, top): p is not below the top.
        """
        if not leq(p, self.top):
            return None, self.top
        u = self.top
        while u != p:
            kids = self.children_of[u]
            if len(kids) == 1:
                # the run below u lies on one ray, which p leaves at level
                # s; p is below the run nodes up to s
                (n, ts), run = self._run(u)
                s = join(p, run[-1])
                i = bisect_right(ts, s.tn * n // s.td)
                if i == len(run):
                    u = run[-1]
                    continue
                if i:
                    u = run[i - 1]
                return (u, None) if s.tn * u.td == u.tn * s.td else (u, run[i])
            for w in kids:
                if leq(p, w):
                    u = w
                    break
                s = join(p, w)
                if s.tn * u.td > u.tn * s.td:
                    return u, w
            else:
                return u, None
        return u, None

    def _run(self, u):
        """The path down from the one child of u while nodes have one
        child, with the t of each node as an integer on the lattice 1/n
        of the run, as ((n, ts), run) (built once per u)."""
        got = self._runs.get(u)
        if got is None:
            run = self.children_of[u][:]
            while len(self.children_of[run[-1]]) == 1:
                run.append(self.children_of[run[-1]][0])
            n = math.lcm(*[w.td for w in run])
            got = self._runs[u] = ((n, [w.tn * (n // w.td) for w in run]), run)
        return got

    def deepest(self) -> dict:
        """Each node's vertex of largest t in its closed disk (built
        once): a leaf is a vertex, and a node that is not has children,
        each deeper than it."""
        if not self._deepest:
            for x in reversed(self.nodes):
                best = x
                for c in self.children_of[x]:
                    d = self._deepest[c]
                    if d.tn * best.td > best.tn * d.td:
                        best = d
                self._deepest[x] = best
        return self._deepest

    def reach(self, starts, passed=None) -> set:
        """Vertices met first when walking from the start nodes through
        non-vertex nodes; the non-vertex nodes walked are added to
        ``passed``."""
        passed = set() if passed is None else passed
        found = set()
        todo = list(starts)
        while todo:
            x = todo.pop()
            if x in self.vertices:
                found.add(x)
            elif x not in passed:
                passed.add(x)
                todo.extend(self.children_of[x])
                if self.parent_of[x] is not None:
                    todo.append(self.parent_of[x])
        return found


def hull(points) -> HullTree:
    """Smallest join-closed set containing the given points, as a tree."""
    return as_vertex_set(points).tree()


def _build_tree(vs: VertexSet) -> HullTree:
    """Close the set under joins, then hang every node from its parent:
    in depth-first order a node's ancestors are those left on the stack."""
    pts = vs.points
    if not pts:
        raise ValueError("hull of an empty set")
    order = _join_closure(pts)
    parent_of = {}
    stack = []
    for p in order:
        while stack and not leq(p, stack[-1]):
            stack.pop()
        parent_of[p] = stack[-1] if stack else None
        stack.append(p)
    # pts is sorted and a subset of the nodes, so equal sizes mean equal sets
    lst = pts if len(order) == len(pts) else _in_set_order(order)
    return _tree_from_parents(parent_of, lst, vs._members)


def _tree_from_parents(parent_of, lst, vertices) -> HullTree:
    """The tree on the nodes ``lst``, given in set order, from each
    node's parent (None at the top)."""
    children_of = {p: [] for p in lst}
    edges = []
    for p in lst:
        outer = parent_of[p]
        if outer is None:
            top = p
        else:
            edges.append((outer, p))
            children_of[outer].append(p)
    return HullTree(tuple(lst), tuple(edges), top, vertices, parent_of, children_of)


def _grown_by(tree: HullTree, new, vertices) -> HullTree:
    """The tree of ``vertices``: those of ``tree`` and the points
    ``new``, given in set order.  Each new point is seated on ``tree``,
    whose run caches are warm.  A slot of ``seat`` holds no node, so a
    point meets the old nodes and other slots' points only at old nodes
    or at nodes spliced into its own slot.  The points of a slot are
    hulled with its lower end, and the hull's top hangs from u; a lone
    point is u itself, a leaf off u, or sits on the edge u-w or off one
    new junction on it."""
    slots = {}
    for p in new:
        slots.setdefault(tree.seat(p), []).append(p)
    parent_of, added = dict(tree.parent_of), []
    for (u, w), pts in slots.items():
        p = pts[0]
        if len(pts) > 1:
            ups = _build_tree(VertexSet(pts + [u if w is None else w])).parent_of
        elif w is None:  # a new leaf off u, or u itself
            ups = {p: None}
        else:  # on the edge u-w, or off a new junction s on it
            s = join(p, w)
            ups = {p: s, w: s, s: None}
        for x, up in ups.items():
            if x != u:  # the top of a slot's hull hangs from u
                parent_of[x] = u if up is None else up
        added += [x for x in ups if x not in tree.parent_of]
    lst = _merged(tree.nodes, _in_set_order(added))
    return _tree_from_parents(parent_of, lst, vertices)


def _merged(old, new) -> list:
    """Two disjoint runs in set order merged, each new point placed by
    bisection past the one before it."""
    out, i = [], 0
    for p in new:
        k = bisect_left(old, True, i, key=lambda q: _precedes(p, q))
        out += old[i:k]
        out.append(p)
        i = k
    return out + list(old[i:])


def _precedes(a: TypeIIPoint, b: TypeIIPoint) -> bool:
    """Whether a comes before b in the set order, read on the lattice of
    the two."""
    if a.tn * b.td != b.tn * a.td:
        return a.tn * b.td < b.tn * a.td
    n, d = _lattice((a, b))
    return _scaled(a.center, n, d) < _scaled(b.center, n, d)


def _lattice(points):
    """(n, d): the radii and centre exponents of the points lie on the
    lattice 1/n, and their centre coefficients on 1/d."""
    n = math.lcm(*[p.td for p in points], *[p.center.N for p in points])
    return n, math.lcm(*[p.center.den for p in points])


def _in_set_order(points) -> list:
    """The points sorted as by ``TypeIIPoint.sort_key``, (t, centre
    terms), read as integers on their lattice: the set order of the
    module."""
    points = list(points)
    if len(points) < 2:
        return points
    n, d = _lattice(points)
    return sorted(points, key=lambda p: (p.tn * (n // p.td), _scaled(p.center, n, d)))


def _join_closure(pts):
    """The join-closure in depth-first order.

    In that order the join of any two points is the highest join of
    neighbours between them, so n - 1 joins close the set.  A disk comes
    before the disks inside it; disjoint disks compare by the sign of the
    first difference of their centres' coefficients, which is the same
    for all points of their two subtrees.  Keying c*x^e as (1, -e, c) for
    c > 0 and (-1, e, c) for c < 0, and the end of the centre as (-1, t),
    ranks each against an absent term (coefficient 0).  The keys are
    integers on the lattice of the points, which holds their joins too.
    """
    n, d = _lattice(pts)

    def key(p):
        body = [(1, -e, c) if c > 0 else (-1, e, c) for e, c in _scaled(p.center, n, d)]
        return body + [(-1, p.tn * (n // p.td))]

    order = sorted(pts, key=key)
    joins = {join(a, b) for a, b in zip(order, order[1:])}.difference(order)
    return sorted(order + list(joins), key=key) if joins else order


def segment_lattice_points(outer: TypeIIPoint, inner: TypeIIPoint, bound: int):
    """Level-`bound` vertices strictly between two comparable points, in
    order of t: the list of ``_lattice_walk``."""
    return list(_lattice_walk(outer, inner, bound))


def _lattice_walk(outer: TypeIIPoint, inner: TypeIIPoint, bound: int):
    """Yield the level-`bound` vertices strictly between two comparable
    points, in order of t; ValueError at the first step when they are not.

    These are the points zeta(c, t) on the inner centre's ray with
    lcm(m, q) <= bound, t = k/q in lowest terms and m the multiplicity of
    the centre truncated at t.  The centre's exponents cut the segment
    into pieces (lo, hi], the last open at inner.t, on each of which the
    truncation is fixed.  On a piece, lcm(m, q) <= bound exactly when
    m*t has a denominator r <= R = bound // m, so the points are s/m for
    s in the Farey sequence of order R between m*lo and m*hi.  The walk
    starts from the Farey pair around m*lo and steps with the next-term
    recurrence on ints; each point it yields is built from its pair
    reduced by one gcd, with no ``Fraction``.
    """
    if not leq(inner, outer):
        raise ValueError("segment endpoints are not comparable")
    c = inner.center
    cuts = [c.lo + i for i, k in enumerate(c.nums) if k and (c.lo + i) * outer.td > outer.tn * c.N]
    ln, ld = outer.tn, outer.td
    for i, (hn, hd) in enumerate([(k, c.N) for k in cuts] + [(inner.tn, inner.td)]):
        at_end = i == len(cuts)
        center = c if at_end else c._cut(hn, INF)
        m = center.N
        R = bound // m
        if R:
            # a/b < e/f: consecutive in the Farey sequence of order R, with
            # a/b <= m*lo < e/f
            g = math.gcd(m * ln, ld)
            p, r = m * ln // g, ld // g
            if r <= R:  # m*lo is a term: its successor has p*f = -1 mod r, f <= R
                a, b = p, r
                f = R - (R + pow(p, -1, r)) % r
                e = (p * f + 1) // r
            else:  # the nearest fractions on each side, denominator by denominator
                a, b, e, f = p // r, 1, p // r + 1, 1
                for q in range(2, R + 1):
                    k = p * q // r
                    if k * b > a * q:
                        a, b = k, q
                    if (k + 1) * f < e * q:
                        e, f = k + 1, q
            # e/f <= m*hi, and e/f < m*hi on the last piece
            M = m * hn
            while e * hd < M * f + (not at_end):
                # e/f is in lowest terms, so gcd(e, m*f) = gcd(e, m)
                g = math.gcd(e, m)
                yield _point(center, e // g, m * f // g)
                k = (R + b) // f
                a, b, e, f = e, f, k * e - a, k * f - b
        ln, ld = hn, hd


def _fill(parent_of, children_of, edges, n: int) -> list:
    """Hang the level-n vertices strictly inside each (outer, inner) edge
    on the tree given by its parent and children maps; returns them."""
    added = []
    for outer, inner in edges:
        inside = segment_lattice_points(outer, inner, n)
        if inside:
            path = [outer, *inside, inner]
            kids = children_of[outer]
            kids[kids.index(inner)] = inside[0]
            parent_of.update(zip(path[1:], path))
            children_of.update((up, [down]) for up, down in zip(inside, path[2:]))
            added += inside
    return added


def _maps(tree: HullTree):
    """Copies of a tree's parent and children maps, to grow."""
    return dict(tree.parent_of), {p: list(c) for p, c in tree.children_of.items()}


def _grown(parent_of) -> VertexSet:
    """The nodes of a grown tree as a set, carrying that tree."""
    vs = VertexSet(parent_of)
    object.__setattr__(vs, "_tree", _tree_from_parents(parent_of, vs.points, vs._members))
    return vs


def _filled(tree: HullTree, n: int) -> VertexSet:
    """The nodes of the tree and the level-n vertices along its edges."""
    parent_of, children_of = _maps(tree)
    _fill(parent_of, children_of, tree.edges, n)
    return _grown(parent_of)


def tree_lattice_points(points, n: int) -> VertexSet:
    """All level-n vertices (g <= n) on the hull of the given points."""
    filled = _filled(hull(points), n)
    got = [p for p in filled if g_point(p) <= n]
    return filled if len(got) == len(filled) else VertexSet(got)  # keeps the tree


def n_convex_hull(points, n: int) -> VertexSet:
    """Join-closure plus all level-n vertices along every edge.

    Requires every input vertex to have g <= n.  Monotone, idempotent,
    and finite: per edge only denominators up to n occur.
    """
    _check_level(points, n)
    return _filled(hull(points), n)


def _check_level(points, n: int):
    for p in points:
        if g_point(p) > n:
            raise ValueError(f"{p} has g = {g_point(p)} > n = {n}")


# -- flanking ------------------------------------------------------------


def flank_in_direction(p: TypeIIPoint, v: Direction) -> TypeIIPoint:
    """Nearest level-m(p) vertex strictly in direction v from p."""
    m = m_point(p)
    if v.at_infinity:
        # the last k/m below t; the centre's exponents lie on 1/m below t,
        # so one at k/m is cut
        k = (p.tn * m - 1) // p.td
        return _point_over(p.center._cut(k, INF), k, m)
    # the first k/m past t; the class representative ends at or before t
    return _point_over(v.rep, p.tn * m // p.td + 1, m)


def missing_flanks(p: TypeIIPoint, gammas):
    """Special directions of p with no vertex of gammas in them.

    Returns [(direction, nearest flank vertex)]; empty means flanked.
    """
    vs = as_vertex_set(gammas)
    if not vs:  # nothing below p, and p stands for the top
        return _missing(p, (), p)
    tree = vs.tree()
    below = tree.children_of.get(p)
    if below is None:  # not a node: only the edge p may lie on leads down
        _u, w = tree.seat(p)
        below = [] if w is None else [w]
    return _missing(p, below, tree.top)


def _missing(p: TypeIIPoint, below, top: TypeIIPoint):
    """missing_flanks of p, given the tree nodes just below p and the
    top.

    As in ``special_directions``, p with g = lcm(m, q) for its centre's
    multiplicity m and radius p/q has no special direction when g = 1,
    and otherwise the direction at infinity and, when g > m, the
    direction of its centre's class, whose canonical representative is
    the centre itself.  A node of ``below``, which is neither p nor above
    it, lies in that direction exactly when its centre meets p's centre
    past p.t; the direction at infinity holds a vertex exactly when the
    top is not below p.
    """
    m = p.center.N
    g = math.lcm(m, p.td)
    if g == 1:
        return []
    out = []
    if g > m:
        c = p.center
        for w in below:
            k, n = _split(w.center, c)
            if k is None or k * p.td > p.tn * n:
                break
        else:
            v = Direction(at=p, at_infinity=False, rep=c)
            out.append((v, flank_in_direction(p, v)))
    if leq(top, p):
        v = Direction(at=p, at_infinity=True)
        out.append((v, flank_in_direction(p, v)))
    return out


# -- smoothness ----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: TypeIIPoint
    message: str

    def __str__(self):
        return f"{self.kind} at {self.witness}: {self.message}"


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    violations: tuple

    def __bool__(self):
        return self.smooth

    def __str__(self):
        if self.smooth:
            return "smooth"
        return "not smooth: " + "; ".join(str(v) for v in self.violations)


def is_smooth(gammas) -> SmoothnessReport:
    """Decide smoothness, reporting every violation with a witness point.

    Checks that all junctions are present (complement components are
    disks or annuli), that no annulus between adjacent vertices contains
    a point of level <= max of the endpoint levels, and that every
    special direction of every vertex meets the set.
    """
    vs = as_vertex_set(gammas)
    if not vs:
        raise ValueError("smoothness of an empty set")
    tree = vs.tree()
    violations = []
    # the non-vertex nodes are the missing junctions; each is named by the
    # first pair of vertices, in set order, that meet there unseparated
    if len(tree.nodes) > len(vs):
        rank = {p: i for i, p in enumerate(tree.nodes)}
        first = {}  # lowest-ranked vertex met first below each node
        for x in reversed(tree.nodes):
            if x in tree.vertices:
                first[x] = x
                continue
            a, b = sorted((first[c] for c in tree.children_of[x]), key=rank.get)[:2]
            first[x] = a
            violations.append(
                Violation(
                    "missing-junction",
                    x,
                    f"component between {a} and {b} is not a disk or annulus",
                )
            )
    g = {p: g_point(p) for p in vs}
    for inner in vs:
        outer = tree.parent_of[inner]
        while outer is not None and outer not in tree.vertices:
            outer = tree.parent_of[outer]
        if outer is None:
            continue
        cap = max(g[outer], g[inner])
        walk = _lattice_walk(outer, inner, cap)
        first = next(walk, None)
        if first is not None:
            # the first of least level, in order of t
            witness = min([first, *walk], key=g_point)
            violations.append(
                Violation(
                    "interior-vertex",
                    witness,
                    f"annulus from {outer} to {inner} contains a point of "
                    f"level {g_point(witness)} <= {cap}",
                )
            )
    for p in vs:
        for v, flank in missing_flanks(p, vs):
            where = "at infinity" if v.at_infinity else f"towards {v.rep}"
            violations.append(
                Violation(
                    "missing-flank",
                    flank,
                    f"special direction {where} of {p} sees no vertex",
                )
            )
    order = {w: i for i, w in enumerate(_in_set_order({v.witness for v in violations}))}
    violations.sort(key=lambda v: (order[v.witness], v.kind))
    return SmoothnessReport(not violations, tuple(violations))


#: Round cap of smooth_n_convex_hull.  It guards against internal errors
#: only, since each round only adds vertices at bounded levels in a
#: bounded region.
_SMOOTH_HULL_ROUNDS = 64


def smooth_n_convex_hull(points, n: int) -> VertexSet:
    """Close under joins, level-n fill, and flank completion until stable.

    The result contains the input, is level-n convex, passes is_smooth,
    and carries its hull tree, grown from the input's: each round fills
    the edges the round before added (the first, every edge) and flanks
    the vertices not yet checked.  A flanked vertex stays flanked as the
    set grows, and a missing flank is a new leaf below its vertex or a
    new top above it, so no join ever appears.
    """
    vs = as_vertex_set(points)
    _check_level(vs, n)
    tree = hull(vs)
    parent_of, children_of = _maps(tree)
    top, edges, fresh, trace = tree.top, tree.edges, list(tree.nodes), []
    for _ in range(_SMOOTH_HULL_ROUNDS):
        fresh += _fill(parent_of, children_of, edges, n)
        flanks = [(p, v, f) for p in fresh for v, f in _missing(p, children_of[p], top)]
        if not flanks:
            return _grown(parent_of)
        edges, fresh = [], []
        for p, v, f in flanks:
            if v.at_infinity:  # p is the top
                parent_of[p], parent_of[f], children_of[f], top = f, None, [p], f
                edges.append((f, p))
            else:
                parent_of[f], children_of[f] = p, []
                children_of[p].append(f)
                edges.append((p, f))
            fresh.append(f)
        trace.append(len(parent_of))
    raise RoundCapExceeded(
        f"smooth hull did not stabilise within {_SMOOTH_HULL_ROUNDS} rounds", trace
    )


# -- complement domains --------------------------------------------------


@dataclass(frozen=True)
class GammaDomain:
    """A connected component of the complement of a vertex set.

    kind "disk": one boundary vertex; ``direction`` is the tangent
    direction of the component there (None in symbolic enumeration,
    standing for every direction at the vertex not leading back into the
    set).  kind "annulus": two comparable boundary vertices, stored
    (outer, inner).  kind "component": three or more boundary vertices,
    possible only when a junction is missing.
    """

    kind: str
    boundary: tuple
    direction: Optional[Direction] = None

    def __str__(self):
        if self.kind == "disk":
            d = "*" if self.direction is None else str(self.direction)
            return f"disk(at {self.boundary[0]}, {d})"
        inner = ", ".join(str(b) for b in self.boundary)
        return f"{self.kind}({inner})"


def locate(gammas, p: TypeIIPoint) -> Optional[GammaDomain]:
    """The complement component containing p; None when p is a vertex.

    Its boundary is the set of vertices reachable from p without
    crossing another vertex: from where p sits on the tree, walk
    through non-vertex nodes.
    """
    vs = as_vertex_set(gammas)
    if p in vs._members:
        return None
    if not vs:
        raise ValueError("cannot locate a point against an empty vertex set")
    tree = vs.tree()
    starts = [x for x in tree.seat(p) if x is not None]
    bdry = _in_set_order(tree.reach(starts))
    if len(bdry) == 1:
        return GammaDomain("disk", (bdry[0],), direction_at(bdry[0], p))
    return _between(bdry)


def meets(gammas, v: Direction) -> bool:
    """Whether the open disk D(v.at, v) holds a vertex, the same as
    any(point_in_direction(v, g) for g in gammas).  Every vertex is
    below the top, and a node in the disk has a vertex below it, so the
    top, the edge's lower node or the node's children decide."""
    vs = as_vertex_set(gammas)
    if not vs:
        return False
    tree = vs.tree()
    if v.at_infinity:
        return not leq(tree.top, v.at)
    u, w = tree.seat(v.at)
    return any(point_in_direction(v, x) for x in (tree.children_of[u] if w is None else [w]))


def deepest_below(gammas, p: TypeIIPoint):
    """The largest t of a vertex in the closed disk of p; None when the
    disk holds no vertex.  The node where p sits, or the lower node of
    its edge, is the highest node in that disk if any node is."""
    vs = as_vertex_set(gammas)
    if not vs:
        return None
    tree = vs.tree()
    u, w = tree.seat(p)
    x = u if w is None else w
    return tree.deepest()[x].t if leq(x, p) else None


def _between(members) -> GammaDomain:
    """The component bounded by two or more vertices, given in set order."""
    if len(members) == 2:
        a, b = members
        if leq(b, a):
            return GammaDomain("annulus", (a, b))
        if leq(a, b):
            return GammaDomain("annulus", (b, a))
    return GammaDomain("component", tuple(members))


def enumerate_domains(gammas):
    """All complement components, disks kept symbolic.

    Annuli (and junction-free multi-boundary components) are listed
    explicitly; every vertex also contributes one symbolic disk entry
    standing for all directions at it that do not lead to another
    vertex.  locate refines a symbolic disk to a concrete direction.
    """
    vs = as_vertex_set(gammas)
    doms = [_between(members) for members in _components(vs)]
    return doms + [GammaDomain("disk", (p,), None) for p in vs]


def _components(vs: VertexSet):
    """Boundaries of the complement components between two or more
    vertices, each in set order, ordered by their first two vertices.

    Such a component is an open edge between two vertices, or a
    connected group of non-vertex nodes with the edges around it.
    """
    if not vs:
        return []
    tree = vs.tree()
    rank = {p: i for i, p in enumerate(vs.points)}
    comps = [
        [outer, inner]
        for outer, inner in tree.edges
        if outer in tree.vertices and inner in tree.vertices
    ]
    passed = set()
    for x in tree.nodes:
        if x not in tree.vertices and x not in passed:
            comps.append(sorted(tree.reach([x], passed), key=rank.get))
    comps.sort(key=lambda m: (rank[m[0]], rank[m[1]]))
    return comps


def domain_contains(dom: GammaDomain, gammas, p: TypeIIPoint) -> bool:
    if dom.kind == "disk":
        if dom.direction is not None:
            return point_in_direction(dom.direction, p)
        loc = locate(gammas, p)
        return (
            loc is not None
            and loc.kind == "disk"
            and loc.boundary[0] == dom.boundary[0]
        )
    if dom.kind == "annulus":
        outer, inner = dom.boundary
        v = direction_at(outer, inner)
        return point_in_direction(v, p) and not leq(p, inner)
    loc = locate(gammas, p)
    return loc is not None and loc.kind == "component" and loc.boundary == dom.boundary


# -- dual graph ----------------------------------------------------------


def dual_graph(gammas):
    """Vertices with labels and one edge per pair of mutually visible
    vertices.  For a smooth set the edges are exactly the annuli and
    the graph is a tree; a component with three or more boundary
    vertices shows up as a clique.
    """
    pts = as_vertex_set(gammas)
    nodes = []
    for p in pts:
        nodes.append(
            (
                p,
                {
                    "a": str(p.center),
                    "t": str(p.t),
                    "m": m_point(p),
                    "g": g_point(p),
                    "cls": classify_point(p),
                },
            )
        )
    rank = {p: i for i, p in enumerate(pts)}
    edges = [
        (a, b)
        for members in _components(pts)
        for i, a in enumerate(members)
        for b in members[i + 1 :]
    ]
    edges.sort(key=lambda e: (rank[e[0]], rank[e[1]]))
    return nodes, edges


def dual_graph_dot(gammas) -> str:
    nodes, edges = dual_graph(gammas)
    idx = {p: f"v{i}" for i, (p, _) in enumerate(nodes)}
    lines = ["graph dual {"]
    for p, attrs in nodes:
        label = f"a={attrs['a']} t={attrs['t']} m={attrs['m']} g={attrs['g']}"
        lines.append(f'  {idx[p]} [label="{label}" cls="{attrs["cls"]}"];')
    for a, b in edges:
        lines.append(f"  {idx[a]} -- {idx[b]};")
    lines.append("}")
    return "\n".join(lines)


def is_tree(gammas) -> bool:
    """Whether the dual graph is a tree.  It is always connected, and a
    component with three or more boundary vertices makes a cycle."""
    vs = as_vertex_set(gammas)
    return bool(vs) and all(len(members) == 2 for members in _components(vs))
