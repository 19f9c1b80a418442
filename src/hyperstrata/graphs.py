"""Labelled graphs and their calculus.

A graph is a finite set of flags, an involution pairing flags into edges
(fixed flags are leaves), a partition of the flags into vertices, and a
nonnegative genus label on every vertex.  Loops and parallel edges are fully
supported; a vertex may end up with an empty flag set (the dual graph of a
smooth unmarked curve).  Values are immutable after construction and all
operations are pure functions, so they are safe to share between workers.

A graph holds only its stored form: the involution as a full int dict,
leaves fixed; the vertex parts as a tuple of sorted int tuples; the genus
labels as an int tuple; and its sorted leaves.  The public constructor
normalizes any input into that form.  The library's producers (tree
building, the splice loop of ``stabilize``) build it directly and hand it
to ``_stored``, which skips only the normalization: both routes end in the
same validation.  Graphs may share stored-form data, so nothing ever
writes to a graph; derived data (flag set, edges, flag-to-vertex map,
connectivity, adjacency) is built when asked for and never kept, as that
costs memory on every graph.  A part is a tuple, not a frozenset: the
garbage collector stops tracking a tuple of ints at its first collection,
so a large batch of graphs is not rescanned by every full collection.

Flag identifiers are opaque integers; neither vertex order, flag order nor
the involution's key order carries meaning.  A reader that walks the edges
takes them in lower-flag order from ``_edge_pairs``.  Graph identity is
defined by ``canonical_form`` only.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import (
    DisconnectedGraph,
    InvalidGraph,
    TypeMismatch,
    UnknownEdge,
    Unstabilizable,
)

Flag = int
Edge = frozenset


class Graph:
    """An immutable (flags, involution, vertex partition, genus) value.
    The constructor takes any input; ``_stored`` takes the stored form."""

    __slots__ = ("sigma", "vertices", "genus_labels", "_leaves")

    def __init__(self, flags: Iterable[Flag], sigma: Mapping[Flag, Flag],
                 vertices: Iterable[Iterable[Flag]],
                 genus_labels: Iterable[int]):
        flag_set = frozenset(map(int, flags))
        self._own({f: int(sigma.get(f, f)) for f in flag_set},
                  tuple([tuple(sorted(set(map(int, part))))
                         for part in vertices]),
                  tuple(map(int, genus_labels)))

    @classmethod
    def _stored(cls, sigma: dict[Flag, Flag], vertices: tuple[tuple, ...],
                genus_labels: tuple[int, ...]) -> Graph:
        """Validated alike; stored-form data may be shared, never written."""
        g = cls.__new__(cls)
        g._own(sigma, vertices, genus_labels)
        return g

    def _own(self, sigma, vertices, genus_labels) -> None:
        """Take stored-form data, validate it and find the leaves.  A flag
        repeated within a part fails as overlapping parts."""
        self.sigma, self.vertices, self.genus_labels = \
            sigma, vertices, genus_labels
        if not vertices:
            raise InvalidGraph("a graph needs at least one vertex")
        if len(genus_labels) != len(vertices):
            raise InvalidGraph("genus labels must align with vertices")
        if min(genus_labels) < 0:
            raise InvalidGraph("genus labels must be nonnegative")
        seen = set().union(*vertices)
        if len(seen) != sum(map(len, vertices)):
            raise InvalidGraph("vertex parts must be disjoint")
        if seen != sigma.keys():
            raise InvalidGraph("vertices must partition the flag set")
        for f, p in sigma.items():
            if p not in sigma or sigma[p] != f:
                raise InvalidGraph("involution must be a self-inverse map "
                                   "on the flags")
        self._leaves = tuple(sorted([f for f, p in sigma.items() if p == f]))

    @property
    def flags(self) -> frozenset:
        """All flags: the keys of the involution, as a frozenset."""
        return frozenset(self.sigma)

    @property
    def leaves(self) -> tuple[Flag, ...]:
        """Fixed points of the involution, sorted."""
        return self._leaves

    @property
    def edges(self) -> frozenset:
        """Two-element orbits of the involution, as frozensets of flags."""
        return frozenset(frozenset((f, p))
                         for f, p in self.sigma.items() if p != f)

    @property
    def edge_count(self) -> int:
        """Number of edges, without building the edge set."""
        return (len(self.sigma) - len(self._leaves)) // 2

    def vertex_of(self, flag: Flag) -> int:
        """The index of the vertex holding flag.  This builds the whole
        flag-to-vertex map on every call, so a loop should build it once."""
        return _owner(self.vertices)[flag]

    def __repr__(self) -> str:
        return (f"Graph(flags={len(self.sigma)}, vertices={len(self.vertices)}, "
                f"edges={self.edge_count}, leaves={len(self._leaves)}, "
                f"genus={self.genus_labels})")


class NumberedGraph:
    """A graph together with a leaf numbering 1..n."""

    __slots__ = ("graph", "numbering")

    def __init__(self, graph: Graph, numbering: Mapping[Flag, int]):
        self._own(graph, {int(f): int(i) for f, i in numbering.items()})

    @classmethod
    def _stored(cls, graph: Graph, numbering: dict[Flag, int]
                ) -> NumberedGraph:
        """Validated alike; the int numbering may be shared, never written."""
        ng = cls.__new__(cls)
        ng._own(graph, numbering)
        return ng

    def _own(self, graph: Graph, numbering: dict[Flag, int]) -> None:
        self.graph, self.numbering = graph, numbering
        if set(numbering) != set(graph.leaves):
            raise InvalidGraph("numbering must be defined on exactly the leaves")
        if sorted(numbering.values()) != list(range(1, len(numbering) + 1)):
            raise InvalidGraph("numbering must be a bijection onto 1..n")

    def __repr__(self) -> str:
        return f"NumberedGraph({self.graph!r}, n={len(self.numbering)})"


GraphLike = Union[Graph, NumberedGraph]


class GraphType(NamedTuple):
    genus: int
    leaf_count: int


def _as_graph(g: GraphLike) -> Graph:
    return g.graph if isinstance(g, NumberedGraph) else g


def _owner(parts: Iterable[Iterable[Flag]]) -> dict[Flag, int]:
    """The flag-to-vertex map of a graph's vertex parts: each flag's
    vertex index."""
    return {f: i for i, part in enumerate(parts) for f in part}


def _edge_pairs(g: Graph) -> list[tuple[Flag, Flag]]:
    """Each edge as (lower flag, upper flag), in lower-flag order; read off
    the involution, so the graph's flag and edge sets are never built."""
    return sorted([(f, p) for f, p in g.sigma.items() if f < p])


def _vertex_adjacency(g: Graph, owner: Mapping[Flag, int] | None = None
                      ) -> list[list[int]]:
    """Vertex adjacency lists from one walk over the flags: an edge is
    listed at both ends (a loop twice at its vertex), a parallel edge once
    per copy.  Builds the flag-to-vertex map unless given it."""
    owner = _owner(g.vertices) if owner is None else owner
    adj: list[list[int]] = [[] for _ in g.vertices]
    for f, p in g.sigma.items():
        if p != f:
            adj[owner[f]].append(owner[p])
    return adj


def _spanning_tree(adj: list[list[int]], root: int = 0,
                   parent: list[int | None] | None = None
                   ) -> tuple[list[int], list[int | None]]:
    """Breadth-first search: the vertices reached from root in visiting
    order, and each one's parent (root is its own parent, unreached
    vertices have None).  A given parent list is filled in place, and the
    vertices it already marks are not entered."""
    if parent is None:
        parent = [None] * len(adj)
    parent[root] = root
    order = [root]
    for v in order:
        for u in adj[v]:
            if parent[u] is None:
                parent[u] = v
                order.append(u)
    return order, parent


def _components(adj: list[list[int]]) -> list[list[int]]:
    """The connected components of a vertex adjacency: each one's vertices
    sorted, the components in order of their least vertex."""
    parent: list[int | None] = [None] * len(adj)
    return [sorted(_spanning_tree(adj, v, parent)[0])
            for v in range(len(adj)) if parent[v] is None]


def is_connected(g: GraphLike) -> bool:
    g = _as_graph(g)
    nv = len(g.vertices)
    return nv == 1 or len(_spanning_tree(_vertex_adjacency(g))[0]) == nv


def betti1(g: GraphLike) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    g = _as_graph(g)
    if not is_connected(g):
        raise DisconnectedGraph("betti1 requires a connected graph")
    return g.edge_count - len(g.vertices) + 1


def genus(g: GraphLike) -> int:
    """Sum of the vertex genus labels plus the first Betti number."""
    g = _as_graph(g)
    return sum(g.genus_labels) + betti1(g)


def graph_type(g: GraphLike) -> GraphType:
    gg = _as_graph(g)
    return GraphType(genus(gg), len(gg.leaves))


def is_stable(g: GraphLike) -> bool:
    """True iff every vertex satisfies 2*genus - 2 + #flags > 0."""
    g = _as_graph(g)
    return all(2 * gl - 2 + len(part) > 0
               for gl, part in zip(g.genus_labels, g.vertices))


def stabilize(g: GraphLike) -> GraphLike:
    """Iteratively delete genus-0 vertices carrying one or two flags.

    A one-flag vertex disappears together with the edge it hangs on.  A
    two-flag vertex is spliced out: its two incident half-edges are joined
    into a single edge (which may be a loop), or a leaf is passed through to
    the far vertex.  Leaf flags keep their identity, so a numbering
    survives.  Raises Unstabilizable when iteration would empty the graph.
    """
    numbered = isinstance(g, NumberedGraph)
    graph = _as_graph(g)
    if not is_connected(graph):
        raise DisconnectedGraph("stabilize requires a connected graph")
    # genus(graph), without searching connectivity a second time
    total = (sum(graph.genus_labels) + graph.edge_count
             - len(graph.vertices) + 1)
    result = _splice(dict(graph.sigma), [list(p) for p in graph.vertices],
                     list(graph.genus_labels), total, graph.leaves)
    return NumberedGraph._stored(result, g.numbering) if numbered else result


def _splice(sigma: dict[Flag, Flag], parts: list[list[Flag] | None],
            labels: list[int], total: int, leaves: Iterable[Flag]) -> Graph:
    """The splice loop of ``stabilize``, lowest unstable vertex first, over
    the raw involution, parts and labels (consumed: the involution becomes
    the image's) of a connected graph of genus ``total``.  Returns one
    validated Graph, checked to be stable and to keep the genus (which also
    checks connectivity) and the leaves."""
    leaves = set(leaves)
    if 2 * total - 2 + len(leaves) <= 0:
        raise Unstabilizable(f"type {(total, len(leaves))} has no stable model")
    owner: dict[Flag, int] | None = None
    i = 0
    while i < len(parts):
        part = parts[i]
        if part is None or labels[i] or not 0 < len(part) < 3:
            i += 1
            continue
        if owner is None:
            owner = _owner(parts)
        parts[i] = None
        if len(part) == 1:
            (f,) = part
            p = sigma[f]
            if p == f:
                raise Unstabilizable("graph reduces to a marked point")
            del sigma[f], sigma[p]
            parts[owner[p]].remove(p)
            # The vertex that lost a flag may be the lowest unstable one now.
            i = min(i + 1, owner[p])
            continue
        f1, f2 = sorted(part)
        if sigma[f1] == f2:
            raise Unstabilizable("graph reduces to an unmarked cycle")
        leaf1, leaf2 = sigma[f1] == f1, sigma[f2] == f2
        if leaf1 and leaf2:
            raise Unstabilizable("graph reduces to a twice-marked point")
        if leaf1 or leaf2:
            f_leaf, f_edge = (f1, f2) if leaf1 else (f2, f1)
            q = sigma[f_edge]
            far = owner[q]
            del sigma[f_edge], sigma[q]
            parts[far].remove(q)
            parts[far].append(f_leaf)
            owner[f_leaf] = far
        else:
            a1, a2 = sigma[f1], sigma[f2]
            del sigma[f1], sigma[f2]
            sigma[a1], sigma[a2] = a2, a1
        i += 1

    kept = [i for i, p in enumerate(parts) if p is not None]
    result = Graph._stored(sigma,
                           tuple([tuple(sorted(parts[i])) for i in kept]),
                           tuple([labels[i] for i in kept]))
    if not is_stable(result):
        raise Unstabilizable("residual positive-genus vertex with too few flags")
    if genus(result) != total or set(result.leaves) != leaves:
        raise InvalidGraph("stabilization broke a conserved quantity")
    return result


def contract_edges(g: GraphLike, edges_to_contract) -> GraphLike:
    """Contract a subset of the edges.

    Every cluster of vertices joined by contracted edges becomes a single
    vertex whose genus is the genus of the contracted subgraph (label sum
    plus its internal first Betti number).  Leaves are untouched.
    """
    numbered = isinstance(g, NumberedGraph)
    graph = _as_graph(g)
    chosen = {frozenset(e) for e in edges_to_contract}
    edges = graph.edges
    for e in chosen:
        if e not in edges:
            raise UnknownEdge(f"{sorted(e)} is not an edge of the graph")

    # The chosen edges' vertex adjacency: its components are the clusters,
    # and each edge is listed at both ends (a loop twice at its vertex).
    owner = _owner(graph.vertices)
    dropped = {f for e in chosen for f in e}
    inner: list[list[int]] = [[] for _ in graph.vertices]
    for f in dropped:
        inner[owner[f]].append(owner[graph.sigma[f]])
    new_parts, new_labels = [], []
    for members in _components(inner):
        flags = set().union(*(graph.vertices[i] for i in members)) - dropped
        b1 = sum(len(inner[i]) for i in members) // 2 - len(members) + 1
        new_parts.append(flags)
        new_labels.append(sum(graph.genus_labels[i] for i in members) + b1)
    sigma = {f: p for f, p in graph.sigma.items() if f not in dropped}
    result = Graph(sigma.keys(), sigma, new_parts, new_labels)
    return NumberedGraph(result, g.numbering) if numbered else result


# --------------------------------------------------------------------------
# Canonical forms and automorphisms.
#
# One search per connected component returns both answers: its encoding and
# the order of its automorphism group.  A component is searched from its
# vertex adjacency and vertex colours (genus, anonymous-leaf count, numbered
# or pinned leaf labels), so a pinned leaf never moves.  The order is the
# number of vertex maps preserving colours and edge multiplicities times
# the flag lift, the number of flag maps over each: the product of
# (anonymous-leaf count)! per vertex, (parallel-edge count)! per vertex
# pair, and (loop count)! * 2^(loop count) per vertex.  Components with
# equal encodings permute, which multiplies the order by m! for each class
# of m.
#
# Trees are rooted at their (1- or 2-vertex) centre and walked bottom-up
# once: a vertex's encoding is its colour and its children's sorted
# encodings, and its count permutes anonymous leaves and each run of k
# equal child encodings (k!), times every child's count (Colbourn & Booth,
# SIAM J. Comput. 10, 1981).  General multigraphs go through one
# individualization-refinement search.  Its invariant: the least leaf
# encoding is the canonical form, and the number of leaves reaching it is
# the number of vertex automorphisms (Aut acts freely on the discrete
# leaves, and two leaves with equal encodings differ by an automorphism).
# Twins, vertices of one cell with the same multiplicity to every third
# vertex, are branched on once and weighted by their class size: swapping
# two twins is an automorphism fixing everything else, so their subtrees
# give the same encodings.  Interchangeable pendants therefore cost no k!.
# --------------------------------------------------------------------------

def _vertex_colors(g: Graph, numbering: Mapping[Flag, int] | None,
                   pinned: frozenset[Flag]) -> list[tuple]:
    colors = []
    for part, gl in zip(g.vertices, g.genus_labels):
        labels = []
        anon = 0
        for f in part:
            if g.sigma[f] != f:
                continue
            if numbering is not None:
                labels.append(numbering[f])
            elif f in pinned:
                labels.append(f)
            else:
                anon += 1
        colors.append((gl, anon, tuple(sorted(labels))))
    return colors


def _tree_centers(adj: list[list[int]]) -> list[int]:
    nv = len(adj)
    if nv <= 2:
        return list(range(nv))
    degree = [len(a) for a in adj]
    layer = [v for v in range(nv) if degree[v] == 1]
    removed = len(layer)
    while removed < nv:
        nxt = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        if not nxt:
            break
        removed += len(nxt)
        layer = nxt
    return sorted(layer)


def _rooted(adj, colors, root: int, parent: int | None) -> tuple[tuple, int]:
    """The encoding of the subtree at root, away from parent, and the order
    of its automorphism group fixing root."""
    kids = sorted([_rooted(adj, colors, u, root)
                   for u in adj[root] if u != parent])
    count = factorial(colors[root][1])  # permute anonymous leaves
    prev, run = None, 0
    for enc, c in kids:
        run = run + 1 if enc == prev else 1
        prev = enc
        count *= c * run    # a run of k equal subtrees permutes: k!
    return (colors[root], tuple([enc for enc, _ in kids])), count


def _tree_search(adj, colors, centers: list[int] | None = None
                 ) -> tuple[tuple, int]:
    """A tree's encoding, rooted at its centre, and its automorphism order;
    two equal halves of a bicentral tree may also swap.  The centres depend
    only on the shape, so a caller may pass them in."""
    centers = _tree_centers(adj) if centers is None else centers
    if len(centers) == 1:
        enc, count = _rooted(adj, colors, centers[0], None)
        return ("c1", enc), count
    a, b = centers
    (enc_a, cnt_a), (enc_b, cnt_b) = sorted((_rooted(adj, colors, a, b),
                                             _rooted(adj, colors, b, a)))
    return ("c2", (enc_a, enc_b)), cnt_a * cnt_b * (2 if enc_a == enc_b else 1)


def _refine(colors: list[int], rows, loops) -> list[int]:
    # Colour refinement only ever splits classes, so it stabilizes once the
    # class count stops growing.
    while True:
        sigs = [(colors[v], loops[v],
                 tuple(sorted((m, colors[u]) for u, m in row.items())))
                for v, row in enumerate(rows)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _twin_classes(cell: list[int], rows) -> list[list[int]]:
    """Split a refined colour cell, whose members already agree on colour
    and loop count, into twin classes.  Twinship is an equivalence
    relation, so each vertex is compared with one member per class."""
    classes: list[list[int]] = []
    for v in cell:
        for cls in classes:
            u = cls[0]
            if {w: m for w, m in rows[u].items() if w != v} == \
                    {w: m for w, m in rows[v].items() if w != u}:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def _generic_search(adj, base_colors) -> tuple[tuple, int]:
    """The least leaf encoding of the individualization-refinement tree and
    the automorphism order (leaves reaching it, times the flag lift)."""
    nv = len(adj)
    rows = [Counter(a) for a in adj]    # neighbour -> edge multiplicity
    loops = [row.pop(v, 0) // 2 for v, row in enumerate(rows)]
    edges = [(a, b, m) for a, row in enumerate(rows)
             for b, m in row.items() if a < b]

    def search(colors: list[int]) -> tuple[tuple, int]:
        colors = _refine(colors, rows, loops)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells)
                       if len(cells[c]) > 1), None)
        if target is None:
            pos = sorted(range(nv), key=colors.__getitem__)
            at = {v: i for i, v in enumerate(pos)}
            return ((tuple(base_colors[v] for v in pos),
                     tuple(loops[v] for v in pos),
                     tuple(sorted((min(at[a], at[b]), max(at[a], at[b]), m)
                                  for a, b, m in edges))), 1)
        best, count = None, 0
        fresh = max(colors) + 1
        for cls in _twin_classes(target, rows):
            branch = list(colors)
            branch[cls[0]] = fresh
            enc, leaves = search(branch)
            if best is None or enc < best:
                best, count = enc, leaves * len(cls)
            elif enc == best:
                count += leaves * len(cls)
        return best, count

    init = {c: i for i, c in enumerate(sorted(set(base_colors)))}
    best, count = search([init[c] for c in base_colors])
    for _, _, m in edges:
        count *= factorial(m)
    for v in range(nv):
        count *= factorial(loops[v]) * 2 ** loops[v]
        count *= factorial(base_colors[v][1])
    return best, count


def _searches(g: Graph, numbering: Mapping[Flag, int] | None,
              pinned: frozenset[Flag]) -> list[tuple[tuple, int]]:
    """Each connected component's (("t" | "m", encoding), automorphism
    order).  One adjacency and one colour list of the whole graph are
    re-indexed per component; a connected graph is its own component."""
    adj = _vertex_adjacency(g)
    colors = _vertex_colors(g, numbering, pinned)
    components = [(adj, colors)]
    if len(_spanning_tree(adj)[0]) != len(adj):
        components = []
        for idx in _components(adj):
            new = {v: i for i, v in enumerate(idx)}
            components.append(([[new[u] for u in adj[v]] for v in idx],
                               [colors[v] for v in idx]))
    out = []
    for a, c in components:
        tree = sum(map(len, a)) == 2 * (len(a) - 1)
        enc, count = (_tree_search if tree else _generic_search)(a, c)
        out.append((("t" if tree else "m", enc), count))
    return out


def canonical_form(g: GraphLike) -> bytes:
    """Canonical byte string: equal iff the graphs are isomorphic.

    Isomorphism preserves genus labels and, for NumberedGraph input, the
    leaf numbering.  Deterministic across runs (no hashing involved).
    """
    numbered = isinstance(g, NumberedGraph)
    searches = _searches(_as_graph(g), g.numbering if numbered else None,
                         frozenset())
    return _form_bytes(numbered, [enc for enc, _ in searches])


def _form_bytes(numbered: bool, comp_encodings) -> bytes:
    """The bytes of canonical_form, given each component's encoding."""
    payload = ("NG" if numbered else "G", tuple(sorted(comp_encodings)))
    return repr(payload).encode("ascii")


def automorphism_count(g: GraphLike, fixed_leaves: Iterable[Flag] = ()) -> int:
    """Order of the automorphism group.

    Leaves are interchangeable except for those in ``fixed_leaves``, which
    every automorphism must fix pointwise.  Genus labels are preserved, and
    isomorphic components may be permuted.
    """
    graph = _as_graph(g)
    pinned = frozenset(int(f) for f in fixed_leaves)
    if not pinned <= set(graph.leaves):
        raise InvalidGraph("fixed_leaves must be leaves of the graph")
    searches = _searches(graph, None, pinned)
    total = 1
    for _, count in searches:
        total *= count
    for m in Counter(enc for enc, _ in searches).values():
        total *= factorial(m)
    return total


def leq(g1: GraphLike, g2: GraphLike) -> bool:
    """True iff g2 arises from a graph isomorphic to g1 by contracting a
    subset of its edges (so the g1-stratum lies in the closure of the
    g2-stratum)."""
    if graph_type(g1) != graph_type(g2):
        raise TypeMismatch(f"{graph_type(g1)} vs {graph_type(g2)}")
    target = canonical_form(g2)
    edges = _edge_pairs(_as_graph(g1))
    need = len(edges) - _as_graph(g2).edge_count
    if need < 0:
        return False
    return any(canonical_form(contract_edges(g1, [frozenset(e) for e in s]))
               == target for s in itertools.combinations(edges, need))
