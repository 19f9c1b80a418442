"""From pointed rational trees to stable genus-g dual graphs.

A stable tree with 2g+2 leaves is the dual graph of a pointed rational curve
whose branched double cover is a genus-g curve.  The cover's dual graph is
built vertex by vertex (one vertex of genus (rho-2)/2 over each tree vertex,
or two rational vertices where rho = 0), with one edge over each odd edge
and two over each even edge, and then stabilized.  Leaves of the tree are
branch points and contribute no flags.  In a stable tree only the cover
vertices over cherries (two leaves, one edge) are unstable, so the
pushforward lifts with them spliced out, and the image is the only Graph
it builds.  It keeps no trace of its steps; the CLI rebuilds one from the
annotated tree and the image with ``pushforward_trace``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraph, OddLeafTotal, OutOfRange
from .graphs import (
    Graph,
    _edge_pairs,
    _owner,
    _splice,
    canonical_form,
    genus,
    is_stable,
)
from .trees import AnnotatedTree, unnumbered_classes


def admissible_cover_graph(t: AnnotatedTree) -> Graph:
    """The dual graph of the double cover, before stabilization.

    A tree vertex with rho >= 2 lifts to one vertex of genus (rho-2)/2; a
    vertex with rho = 0 lifts to two rational vertices.  Odd edges are
    ramified and lift to a single edge; even edges lift to a pair of edges,
    routed to keep the cover connected.
    """
    parts, sigma, labels = _lift(t, False)
    return Graph(sigma.keys(), sigma, parts, labels)


def _lift(t: AnnotatedTree, cherries: bool
          ) -> tuple[list[list[int]], dict[int, int], list[int]]:
    """The cover's vertex parts, involution and genus labels, unvalidated;
    every flag is half of an edge.  With ``cherries``, a cherry (two leaves,
    one even edge) comes spliced out: the two lifts of its edge become one
    edge between the far cover vertices, with the flag ids and vertex order
    the splice would leave.  Two cherries meet only in a four-leaf tree,
    which has no stable image, so ``pushforward`` lifts that whole."""
    g = t.graph
    if len(g.leaves) % 2:
        raise OddLeafTotal("the double cover needs an even number of leaves")
    parts: list[list[int]] = []
    labels: list[int] = []
    covers: list[tuple[int, ...]] = []  # the cover vertices over each vertex
    for rho, nu, part in zip(t.rho, t.nu, g.vertices):
        if cherries and nu == 1 and len(part) == 3:
            covers.append(())
        elif rho:
            covers.append((len(parts),))
            parts.append([])
            labels.append((rho - 2) // 2)
        else:
            covers.append((len(parts), len(parts) + 1))
            parts += [], []
            labels += 0, 0
    sigma: dict[int, int] = {}
    # Edges in order of their lower flag; this order numbers the cover's flags.
    f, owner = 1, _owner(g.vertices)
    for (f1, f2), odd in zip(_edge_pairs(g), t.parity):
        cu, cv = covers[owner[f1]], covers[owner[f2]]
        if not (cu and cv):
            # A cherry's two lifts, spliced: their far flags join.
            a, far = (f, cu) if cu else (f + 1, cv)
            sigma[a], sigma[a + 2] = a + 2, a
            parts[far[0]].append(a)
            parts[far[-1]].append(a + 2)
            f += 4
            continue
        # An even edge lifts twice: the lifts leave the first and the last
        # vertex above each end, the same vertex when only one lies above it.
        for x, y in ((cu[0], cv[0]), (cu[-1], cv[-1]))[:2 - odd]:
            sigma[f], sigma[f + 1] = f + 1, f
            parts[x].append(f)
            parts[y].append(f + 1)
            f += 2
    return parts, sigma, labels


def pushforward(t: AnnotatedTree) -> Graph:
    """Stabilized cover graph: the genus-g dual graph of the image curve.

    Equal to ``stabilize(admissible_cover_graph(t))``: the splice loop of
    ``stabilize`` runs on the lift with its cherries spliced out, and checks
    the image (stable, connected, genus g = n/2 - 1, no leaves).  Both
    refuse a leafless tree, whose cover is two disjoint sheets, with
    DisconnectedGraph.  It keeps no trace; see ``pushforward_trace``."""
    if not t.graph.leaves:
        raise DisconnectedGraph("a leafless tree's cover is two sheets")
    parts, sigma, labels = _lift(t, len(t.graph.leaves) > 4)
    return _splice(sigma, parts, labels, len(t.graph.leaves) // 2 - 1, ())


def pushforward_trace(t: AnnotatedTree, image: Graph) -> list[str]:
    """The steps of ``pushforward(t)``, rebuilt from t and its image: how
    each tree vertex and each edge, in lower-flag order, lifts; how many
    rational vertices (each with one edge) stabilization removed, if any,
    which over a stable tree are the two-flag ones over cherries; and the
    image."""
    lines = [f"vertex {i}: rho=0, lifts to two rational vertices" if rho == 0
             else f"vertex {i}: rho={rho}, lifts to one vertex of genus "
             f"{(rho - 2) // 2}" for i, rho in enumerate(t.rho)]
    lifted = 0      # an odd edge lifts to one edge, an even edge to two
    for edge, odd in zip(_edge_pairs(t.graph), t.parity):
        lifted += 2 - odd
        kind = "odd, one edge" if odd else "even, two edges"
        lines.append(f"edge {list(edge)}: {kind} over it")
    removed = lifted - image.edge_count
    if removed and is_stable(t.graph):
        lines.append(f"stabilize: spliced out {removed} two-flag "
                     "rational vertices")
    elif removed:
        lines.append(f"stabilize: removed {removed} unstable rational "
                     "vertices")
    lines.append(f"image: genus {genus(image)}, {len(image.vertices)} "
                 f"vertices, {image.edge_count} edges")
    return lines


def rational_component_count(t: AnnotatedTree) -> int:
    """Number of rational components of the image curve.

    Twice the number of rho = 0 vertices plus the number of internal
    vertices with rho = 2; external rho = 2 vertices lift to two-flag
    vertices that disappear under stabilization.
    """
    if len(t.graph.leaves) % 2:
        raise OddLeafTotal("rational components need an even leaf count")
    zero = sum(1 for r in t.rho if r == 0)
    two = sum(1 for r, k in zip(t.rho, t.nu) if k > 1 and r == 2)
    return 2 * zero + two


def in_filtration(t: AnnotatedTree, k: int) -> bool:
    """True iff the image curve has at most k rational components."""
    if k < 0:
        raise OutOfRange("filtration level must be nonnegative")
    return rational_component_count(t) <= k


@dataclass(frozen=True)
class NodeBoundReport:
    """Exhaustive audit of the node bound over one filtration level."""

    g: int
    k: int
    bound: int                      # g + k - 1
    classes_by_edges: dict[int, int]
    max_edges: int
    edge_growth_ok: bool            # image never has fewer edges than the tree
    ok: bool


def node_bound_report(g: int, k: int) -> NodeBoundReport:
    """Check that trees mapping into filtration level k have few nodes.

    Enumerates the unnumbered classes of type (0, 2g+2), g <= 5 by MAX_LEAVES,
    keeps those whose image has at most k rational components, and checks
    the edge bound g + k - 1 and edge growth under the pushforward.
    """
    if g < 2:
        raise OutOfRange("need g >= 2")
    if k < 0:
        raise OutOfRange("filtration level must be nonnegative")
    bound = g + k - 1
    by_edges: dict[int, int] = {}
    growth_ok = True
    for cls in unnumbered_classes(2 * g + 2):
        t = cls.annotated()
        if not in_filtration(t, k):
            continue
        by_edges[cls.edge_count] = by_edges.get(cls.edge_count, 0) + 1
        if pushforward(t).edge_count < cls.edge_count:
            growth_ok = False
    max_edges = max(by_edges, default=0)
    return NodeBoundReport(g, k, bound, by_edges, max_edges,
                           growth_ok, growth_ok and max_edges <= bound)


def verify_injectivity(g: int) -> bool:
    """Distinct unnumbered tree classes have distinct image dual graphs,
    checked over all classes of type (0, 2g+2): g <= 5 by MAX_LEAVES."""
    if g < 2:
        raise OutOfRange("need g >= 2")
    classes = unnumbered_classes(2 * g + 2)
    forms = {canonical_form(pushforward(c.annotated())) for c in classes}
    return len(forms) == len(classes)
