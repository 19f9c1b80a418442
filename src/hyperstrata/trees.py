"""Stable pointed trees of genus zero.

Enumeration of the isomorphism classes of stable numbered trees with n
leaves, their orbits under leaf renumbering, the parity annotation (even and
odd edges, ramification and edge-valence counts), the star trees used by the
spectral certificate, and stratum dimensions.

Numbered trees are generated through nested families of leaf splits: a tree
with k edges corresponds to a laminar family of k proper subsets of the leaf
set, and two numbered trees are isomorphic exactly when their split families
agree.  So listing the trees in family order lists each class once.

Unnumbered classes are generated separately, from unlabelled tree shapes
with leaf weights, so the two routes cross-check each other.  A shape grows
its next vertex at every vertex, and sizes are taken in increasing order
until no shape of a size carries the leaves, with or without an edge count.
Weight vectors are walked orderly (McKay, J. Algorithms 26, 1998): from
vertex 0 in lexicographic order, never entering a vector that swapping two
equal sibling subtrees makes smaller, nor a branch that cannot complete to
a stable (or good) tree.  One dynamic programme states that rule and gives
each shape's fewest leaves, so every vector walked is a stable (or good)
weighting.  The duplicates left come from automorphisms that move vertex 0 or
that these swaps do not reach.  One tree walk per vector gives the key they
are dropped on and the orbit size, before any graph is built, so each class
costs one Graph.  A class keeps the first vector that reaches it, the least
of its orbit, which no rule skips, so its representative is the one the
full walk would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from math import factorial
from typing import Iterator, Optional

from .errors import (
    InvalidGraph,
    NotATree,
    OddLeafTotal,
    OutOfRange,
    TooLarge,
    TypeMismatch,
)
from .graphs import (
    Graph,
    NumberedGraph,
    _edge_pairs,
    _form_bytes,
    _owner,
    _spanning_tree,
    _tree_centers,
    _tree_search,
    _vertex_adjacency,
    automorphism_count,
    canonical_form,
    graph_type,
)

# enumerate_trees grows like n!: n = 8 takes 1.3 s and 29 MB max RSS, n = 9
# 21 s and 221 MB (660,032 trees), and `enumerate --n 9`, which writes each
# tree as it is made, 93 s and 18 MB; n = 10 would build 12,818,912.
MAX_LEAVES_NUMBERED = 9
MAX_LEAVES = 12
# The goodness-pruned search stays small far beyond the full enumeration
# bound; 22 leaves covers certificates and F1 tables up to genus 10.
MAX_LEAVES_GOOD = 22
# A star tree has 2g + 2 leaves, and `pushforward --tlg g,g` is linear in g:
# 0.20 s at g = 4000, and 1.8 s, 249 MB max RSS and 20 MB of JSON at
# g = 10^5 (one process each); g = 10^12 would run out of memory.  Both
# comments time cold processes on a shared 2-CPU machine.
MAX_GENUS_STAR = 10 ** 5


@dataclass(frozen=True, eq=False, slots=True)
class AnnotatedTree:
    """A numbered genus-0 tree with cached parity and vertex counts.

    parity holds one entry per edge, 0 (even) or 1 (odd), in the lower-flag
    order of ``graphs._edge_pairs``.  rho counts the odd flags at each
    vertex: its leaves, which are all odd, and its odd edges.  nu counts
    the non-leaf flags; a vertex is internal when it has more than one edge.
    """

    tree: NumberedGraph
    parity: tuple[int, ...]
    rho: tuple[int, ...]
    nu: tuple[int, ...]

    @property
    def internal(self) -> tuple[bool, ...]:
        return tuple(k > 1 for k in self.nu)

    @property
    def graph(self) -> Graph:
        return self.tree.graph

    @property
    def edge_count(self) -> int:
        return self.tree.graph.edge_count

    @property
    def leaf_count(self) -> int:
        return len(self.tree.graph.leaves)

    def __repr__(self) -> str:
        return (f"AnnotatedTree(n={self.leaf_count}, "
                f"edges={self.edge_count}, rho={self.rho})")


@dataclass(frozen=True, eq=False)
class StratumClass:
    """One unnumbered isomorphism class of stable trees.

    representative carries an arbitrary but deterministic numbering;
    orbit_size is the number of numbered classes in its renumbering orbit,
    computed by orbit-stabilizer rather than by listing the orbit.
    """

    representative: NumberedGraph
    edge_count: int
    orbit_size: int
    canonical_key: bytes

    def annotated(self) -> AnnotatedTree:
        return annotate(self.representative)

    def profile(self) -> tuple[int, ...]:
        """Sorted flag counts of the vertices (sizes of the stratum factors)."""
        return tuple(sorted(len(p) for p in self.representative.graph.vertices))

    def __repr__(self) -> str:
        return (f"StratumClass(edges={self.edge_count}, "
                f"orbit={self.orbit_size}, profile={self.profile()})")


def annotate(t: NumberedGraph) -> AnnotatedTree:
    """Attach edge parities and the rho/nu counts to a tree.

    The parity of an edge is the parity of the number of leaves on either
    side of its removal, which is well defined only when the total number of
    leaves is even.  rho starts from each vertex's leaf count, and each edge,
    in lower-flag order, adds its parity at both ends.  Every vertex must
    have genus 0: the cover's genus rule reads only the parities.
    """
    g = t.graph
    if any(g.genus_labels):
        raise NotATree("annotation requires genus 0 at every vertex")
    owner = _owner(g.vertices)
    adj = _vertex_adjacency(g, owner)
    order, parent = _spanning_tree(adj)
    nv = len(g.vertices)
    if len(order) != nv or g.edge_count != nv - 1:
        raise NotATree("annotation requires a connected tree")
    n = len(g.leaves)
    if n % 2:
        raise OddLeafTotal(f"edge parity is undefined for {n} leaves")

    # A tree vertex's adjacency lists its edges; its other flags are leaves.
    nu = [len(a) for a in adj]
    rho = [len(part) - k for part, k in zip(g.vertices, nu)]
    subtree = list(rho)
    for v in reversed(order[1:]):
        subtree[parent[v]] += subtree[v]

    # An edge takes the parity of the leaf count below its child end.
    parity = []
    for f, p in _edge_pairs(g):
        u, v = owner[f], owner[p]
        x = subtree[v if parent[v] == u else u] % 2
        parity.append(x)
        rho[u] += x
        rho[v] += x
    return AnnotatedTree(t, tuple(parity), tuple(rho), tuple(nu))


def is_good(t: AnnotatedTree) -> bool:
    """True iff every internal vertex has at least four odd flags."""
    return all(r >= 4 for r, k in zip(t.rho, t.nu) if k > 1)


def stratum_dimension(t) -> int:
    """Dimension n - 3 - r of the stratum of a stable tree with r edges."""
    g = t.graph if isinstance(t, (NumberedGraph, AnnotatedTree)) else t
    return len(g.leaves) - 3 - g.edge_count


# --------------------------------------------------------------------------
# Numbered enumeration through laminar split families.
#
# An edge of a stable (0, n) tree is recorded as the set of leaves on the
# side away from leaf 1, a subset of {2..n} of size 2..n-2 stored as a
# bitmask (bit b <-> leaf b+2).  A family of such splits comes from a tree
# exactly when it is laminar (pairwise nested or disjoint), and the
# resulting tree is automatically stable.
# --------------------------------------------------------------------------

def _split_candidates(n: int) -> list[int]:
    lo, hi = 2, n - 2
    return [m for m in range(1, 1 << (n - 1))
            if lo <= m.bit_count() <= hi]


def _laminar_families(n: int, edge_count: Optional[int] = None
                      ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each laminar family of splits, in increasing mask order, with each
    split's parent: 1 + the index of the smallest split containing it, or
    0 (the root) for a maximal split.

    Candidates come in increasing mask order, so a new split cannot lie
    inside a chosen one: it contains or misses each of them, and testing it
    against the current maximal splits suffices.  The maximal splits it
    contains become its children.
    """
    cands = _split_candidates(n)
    kmax = n - 3 if edge_count is None else edge_count
    chosen: list[int] = []
    parents: list[int] = []

    def rec(start: int, tops: list[int]
            ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if edge_count is None or len(chosen) == edge_count:
            yield tuple(chosen), tuple(parents)
        if len(chosen) >= kmax:
            return
        for i in range(start, len(cands)):
            m = cands[i]
            inside, outside = [], []
            for j in tops:
                inter = m & chosen[j]
                if inter == chosen[j]:
                    inside.append(j)
                elif inter:
                    break
                else:
                    outside.append(j)
            else:
                k = len(chosen)
                chosen.append(m)
                parents.append(0)
                for j in inside:
                    parents[j] = k + 1
                outside.append(k)
                yield from rec(i + 1, outside)
                for j in inside:
                    parents[j] = 0
                parents.pop()
                chosen.pop()

    yield from rec(0, [])


def _tree_frame(n: int, ends) -> tuple:
    """What a tree's shape fixes: the involution keyed 1, 2, ... (leaves
    1..n fixed, an edge per (u, v) pair of ends on the next two flags, the
    lower at u), the vertices' edge flags, zero labels, identity numbering."""
    sigma = {k: k for k in range(1, n + 1)}
    flags: list[list[int]] = [[] for _ in range(len(ends) + 1)]
    for f, (u, v) in zip(count(n + 1, 2), ends):
        sigma[f], sigma[f + 1] = f + 1, f
        flags[u].append(f)
        flags[v].append(f + 1)
    return (sigma, tuple(map(tuple, flags)), (0,) * len(flags),
            {k: k for k in range(1, n + 1)})


def _numbered_tree(leaves, frame, pool: dict) -> NumberedGraph:
    """The tree of a frame with leaves on its vertices, each vertex's in
    increasing order: they precede its edge flags, so the parts are sorted
    (the stored form).  Equal parts come from pool, one object each."""
    sigma, flags, labels, numbering = frame
    parts = tuple([pool.setdefault(p, p) for p in
                   [(*a, *b) for a, b in zip(leaves, flags)]])
    return NumberedGraph._stored(Graph._stored(sigma, parts, labels),
                                 numbering)


def _numbered_trees(n: int, edge_count: Optional[int] = None
                    ) -> Iterator[NumberedGraph]:
    """enumerate_trees one tree at a time, range-checked at the call.

    In the tree of a family, vertex 0 is the root (the side of leaf 1) and
    vertex i+1 realizes split i, hung on its parent by edge i.  A leaf goes
    to the smallest split containing it, so a vertex takes the leaves of its
    split less its children's, read from a table of every mask's leaves.
    The trees of one parent-link tuple share one frame (involution, edge
    flags, labels, numbering), and those of a call each distinct part.
    """
    if not 3 <= n <= MAX_LEAVES_NUMBERED:
        raise OutOfRange(f"leaf count {n} outside 3..{MAX_LEAVES_NUMBERED}")
    if edge_count is not None and not 0 <= edge_count <= n - 3:
        raise OutOfRange(f"edge count {edge_count} outside 0..{n - 3}")
    leaves = [tuple(b + 2 for b in range(n - 1) if m >> b & 1)
              for m in range(1 << (n - 1))]

    def trees() -> Iterator[NumberedGraph]:
        frames: dict[tuple[int, ...], tuple] = {}
        pool: dict[tuple[int, ...], tuple[int, ...]] = {}
        for family, parents in _laminar_families(n, edge_count):
            if parents not in frames:
                frames[parents] = _tree_frame(n, list(zip(parents, count(1))))
            own = [len(leaves) - 1, *family]
            for i, p in enumerate(parents):
                own[p] ^= family[i]
            parts = [leaves[m] for m in own]
            parts[0] = (1,) + parts[0]
            yield _numbered_tree(parts, frames[parents], pool)

    return trees()


def enumerate_trees(n: int, edge_count: Optional[int] = None
                    ) -> list[NumberedGraph]:
    """All isomorphism classes of stable numbered trees of type (0, n).

    One representative per class, in the order _laminar_families yields the
    families: by their increasing mask tuples, lexicographically.  n <=
    MAX_LEAVES_NUMBERED, as the count grows like n!.
    """
    return list(_numbered_trees(n, edge_count))


def orbit_representatives(trees: list[NumberedGraph]) -> list[StratumClass]:
    """Group numbered trees into leaf-renumbering orbits.

    orbit_size comes from orbit-stabilizer: n! over the order of the
    automorphism group with leaves unlabelled.
    """
    if not trees:
        return []
    t0 = graph_type(trees[0])
    groups: dict[bytes, list[NumberedGraph]] = {}
    for t in trees:
        if graph_type(t) != t0:
            raise TypeMismatch("orbit grouping requires one graph type")
        groups.setdefault(canonical_form(t.graph), []).append(t)
    n = t0.leaf_count
    out = []
    for key, members in groups.items():
        rep = min(members, key=canonical_form)
        aut = automorphism_count(rep.graph)
        orbit, rem = divmod(factorial(n), aut)
        if rem:
            raise InvalidGraph("automorphism order must divide n!")
        out.append(StratumClass(rep, rep.graph.edge_count, orbit, key))
    return sorted(out, key=lambda c: (c.edge_count, c.canonical_key))


# --------------------------------------------------------------------------
# Unnumbered enumeration from unlabelled tree shapes with leaf weights.
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tree_shapes(nv: int) -> tuple:
    """All unlabelled trees on nv vertices, as adjacency tuples: each
    smaller shape grows a vertex at each of its vertices in turn, and the
    first adjacency that reaches a shape is kept."""
    if nv == 1:
        return (((),),)
    out: dict[tuple, tuple] = {}
    for adj in _tree_shapes(nv - 1):
        for attach in range(nv - 1):
            grown = [list(a) for a in adj] + [[attach]]
            grown[attach].append(nv - 1)
            # With one colour on every vertex the tree encoding is a shape
            # key; its sort order is the shape order, which fixes the class
            # representatives.
            key = _tree_search(grown, [(0, 0, ())] * nv)[0]
            if key not in out:
                out[key] = tuple(tuple(sorted(a)) for a in grown)
    return tuple(out[k] for k in sorted(out))


def _postorder(adj):
    """Children-first vertex order from vertex 0 (the reverse of a preorder
    that takes neighbours in adjacency order), and each vertex's parent."""
    parent, stack, preorder = [-1] * len(adj), [0], []
    while stack:
        v = stack.pop()
        preorder.append(v)
        for u in reversed(adj[v]):
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    return preorder[::-1], parent


def _min_weight(deg: int, only_good: bool) -> int:
    """Fewest leaves on a vertex of the given degree: three flags for
    stability and, with only_good, rho >= 4 at an internal vertex."""
    return max(0, (4 if only_good and deg >= 2 else 3) - deg)


def _least_weight(deg: int, only_good: bool, odd: int,
                  p: Optional[int]) -> int:
    """Least weight of a vertex of the given degree over `odd` odd children.

    It needs _min_weight and, with only_good and more than one edge,
    rho >= 4: its leaves, its odd child edges and its parent edge when its
    subtree's leaf count is odd.  Off the root the weight also makes that
    parity p; the root (p None) has no parent edge.
    """
    low = _min_weight(deg, only_good)
    if only_good and deg > 1:
        low = max(low, 4 - odd - (p or 0))
    return low if p is None else low + ((low + odd + p) & 1)


def _walk_dp(adj, only_good: bool) -> tuple:
    """The weight walk's one feasibility rule for a shape: its postorder
    from vertex 0 (the root, last), parents, memoized `step` and start.

    step(i, state) gives the fewest leaves positions i.. can take when the
    state counts the odd finished children of each vertex from the root
    down to order[i], all that _least_weight reads.  So step(0, start)[0]
    is the shape's fewest leaves; extra leaves on the root break no check.
    """
    order, parent = _postorder(adj)
    nv = len(order)
    deg = [len(adj[v]) for v in order]
    depth = [0] * nv
    for v in reversed(order[:-1]):
        depth[v] = depth[parent[v]] + 1
    # How many entries the state gains on stepping from i to i + 1.
    grow = [depth[order[i + 1]] - depth[order[i]] + 1 for i in range(nv - 1)]
    # Without only_good no check reads a parity, and the state stays 0.
    parity = int(only_good)

    @lru_cache(maxsize=None)
    def step(i: int, state: tuple) -> tuple:
        """The fewest leaves on positions i.. in the given state, and for
        each parity of order[i]'s subtree the least weight of order[i], the
        state after it and the fewest leaves after it."""
        odd = state[-1]
        if i == nv - 1:
            return _least_weight(deg[i], only_good, odd, None), ()
        options = []
        for p in (0, 1):
            nxt = state[:-2] + (state[-2] + p * parity,) + (0,) * grow[i]
            options.append((_least_weight(deg[i], only_good, odd, p), nxt,
                            step(i + 1, nxt)[0]))
        return min(wv + rest for wv, _, rest in options), tuple(options)

    return order, parent, step, (0,) * (depth[order[0]] + 1)


@lru_cache(maxsize=None)
def _shape_leasts(nv: int, only_good: bool) -> tuple[int, ...]:
    """The fewest leaves of a stable (with only_good, good) weighting of
    each shape on nv vertices, in shape order, by the walk's own rule."""
    dps = (_walk_dp(adj, only_good) for adj in _tree_shapes(nv))
    return tuple(step(0, start)[0] for _, _, step, start in dps)


def _weight_assignments(adj, total: int, only_good: bool
                        ) -> list[tuple[int, ...]]:
    """Leaf-weight vectors making the shape a stable (0, total) tree (with
    only_good, a good one), without those that a swap of two equal sibling
    subtrees makes lexicographically smaller.

    Vectors come in lexicographic order along the postorder from vertex 0,
    the root, which comes last and takes the remainder.  Each position is
    bounded by _walk_dp's `step`, the one rule for stability and goodness,
    so no branch lacks a completion and every vector is a stable (good)
    weighting.

    Two sibling subtrees with equal plane encodings (children in adjacency
    order) hold aligned blocks of positions, and swapping them is an
    automorphism; so in the least vector of an orbit the earlier block
    does not exceed the later one, and the walk skips every vector where
    it does.  With the blocks starting at a and b, it refuses a weight at
    position i of the later block exactly when it is below the weight at
    the aligned position j = a + i - b and the blocks agree before j and
    i.  For two sibling shape leaves this is w[earlier] <= w[later].  The
    first vector of each class is the least of its orbit, so it always
    survives.
    """
    order, parent, step, start = _walk_dp(adj, only_good)
    nv = len(order)
    pos, size = [0] * nv, [1] * nv
    plane: list = [()] * nv
    for i, v in enumerate(order):
        pos[v] = i
        kids = [u for u in adj[v] if u != parent[v]]
        plane[v] = tuple(plane[u] for u in kids)
        size[v] += sum(size[u] for u in kids)
    # twins[i]: (a, b) for each later twin block holding position i, where
    # a and b are the start positions of the earlier and the later block.
    twins: list[list] = [[] for _ in range(nv)]
    for v in order:
        latest: dict = {}
        for u in sorted((u for u in adj[v] if u != parent[v]),
                        key=pos.__getitem__):
            twin = latest.get(plane[u])
            latest[plane[u]] = u
            if twin is not None:
                a, b = pos[twin] - size[u] + 1, pos[u] - size[u] + 1
                for i in range(b, b + size[u]):
                    twins[i].append((a, b))
    # The weights by vertex (the vector) and by position (for the rule).
    w, at = [0] * nv, [0] * nv
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, state: tuple) -> None:
        v = order[i]
        if i == nv - 1:
            w[v] = remaining
            out.append(tuple(w))
            return
        options = step(i, state)[1]
        odd = state[-1]
        top = remaining - min(rest for _, _, rest in options)
        for wv in range(min(lo for lo, _, _ in options), top + 1):
            lo, nxt, rest = options[(wv + odd) & 1]
            if wv < lo or wv > remaining - rest:
                continue
            for a, b in twins[i]:
                j = a + i - b
                if wv < at[j] and at[a:j] == at[b:i]:
                    break
            else:
                w[v] = at[i] = wv
                rec(i + 1, remaining - wv, nxt)

    if step(0, start)[0] <= total:
        rec(0, total, start)
    return out


def _shape_to_tree(adj, weights) -> NumberedGraph:
    """Leaves 1..n vertex by vertex, then a flag pair per edge."""
    starts = accumulate(weights, initial=1)
    ends = [(v, u) for v, nbrs in enumerate(adj) for u in nbrs if u > v]
    return _numbered_tree([range(a, a + wv) for a, wv in zip(starts, weights)],
                          _tree_frame(sum(weights), ends), {})


def unnumbered_classes(n: int, edge_count: Optional[int] = None,
                       only_good: bool = False) -> list[StratumClass]:
    """Isomorphism classes of stable (0, n) trees with leaves unlabelled.

    Each class carries the size of its renumbering orbit, so sums over all
    numbered classes can be taken as orbit-weighted sums over this list.
    With only_good (n even), only classes whose internal vertices all have
    rho >= 4 are returned: the walk generates no other vector.

    Shape sizes are taken in increasing order, up to the requested one (or
    every size when no edge count is given), and generation stops at the
    first size whose shapes all have _shape_leasts above n.  A shape is
    rejected whole when its least exceeds n; otherwise
    _weight_assignments walks it, never generating a vector that swapping
    two equal sibling subtrees makes smaller.  One walk of the weighted
    shape per vector gives its encoding, hence the key (the built tree's
    canonical form), and its automorphism order, hence the orbit.  Vectors
    related by other automorphisms, such as those moving vertex 0, still
    arrive, and are dropped on the key before any graph is built.  A class
    keeps the first vector that reaches it: the lexicographically least of
    its orbit, which the walk never skips, so pruning changes no
    representative.
    """
    bound = MAX_LEAVES_GOOD if only_good else MAX_LEAVES
    if not 3 <= n <= bound:
        raise OutOfRange(f"leaf count {n} outside 3..{bound}")
    if only_good and n % 2:
        raise OddLeafTotal("good trees need an even leaf count")
    if edge_count is not None and not 0 <= edge_count <= n - 3:
        raise OutOfRange(f"edge count {edge_count} outside 0..{n - 3}")
    top = n - 3 if edge_count is None else edge_count
    found: dict[bytes, StratumClass] = {}
    for k in range(top + 1):
        # Contracting a shape leaf into its neighbour keeps a stable (or
        # good) weighting and its leaf count, so once no shape of a size
        # carries n leaves, no larger shape does.
        leasts = _shape_leasts(k + 1, only_good)
        if min(leasts) > n:
            break
        if edge_count is not None and k != edge_count:
            continue
        for adj, least in zip(_tree_shapes(k + 1), leasts):
            if least > n:
                continue
            centers = _tree_centers(adj)
            for weights in _weight_assignments(adj, n, only_good):
                enc, aut = _tree_search(adj, [(0, wv, ()) for wv in weights],
                                        centers)
                key = _form_bytes(False, [("t", enc)])
                if key in found:
                    continue
                found[key] = StratumClass(_shape_to_tree(adj, weights), k,
                                          factorial(n) // aut, key)
    return sorted(found.values(), key=lambda c: (c.edge_count, c.canonical_key))


def good_classes(g: int, edge_count: Optional[int] = None) -> list[StratumClass]:
    """Good-tree classes of type (0, 2g+2)."""
    return unnumbered_classes(2 * g + 2, edge_count, only_good=True)


def build_T_lg(l: int, g: int) -> AnnotatedTree:
    """The star tree with a central vertex and l two-leaf satellites.

    The central vertex carries the leaves numbered 2l+1 .. 2g+2; satellite i
    carries the leaves 2i-1, 2i.  For l = 0 this is the edgeless tree with
    2g+2 leaves.
    """
    if g < 2 or not 0 <= l <= g:
        raise OutOfRange(f"need g >= 2 and 0 <= l <= g, got l={l}, g={g}")
    if g > MAX_GENUS_STAR:
        raise TooLarge(f"star tree genus {g} exceeds {MAX_GENUS_STAR}")
    n = 2 * g + 2
    leaves = [range(2 * l + 1, n + 1)]
    leaves += [(2 * i - 1, 2 * i) for i in range(1, l + 1)]
    frame = _tree_frame(n, [(0, i) for i in range(1, l + 1)])
    return annotate(_numbered_tree(leaves, frame, {}))
