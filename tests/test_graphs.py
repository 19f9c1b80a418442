from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from math import factorial

import pytest

from hyperstrata.errors import (
    DisconnectedGraph,
    HyperstrataError,
    InvalidGraph,
    TypeMismatch,
    UnknownEdge,
    Unstabilizable,
)
from hyperstrata.graphs import (
    Graph,
    GraphType,
    NumberedGraph,
    _edge_pairs,
    automorphism_count,
    betti1,
    canonical_form,
    contract_edges,
    genus,
    graph_type,
    is_connected,
    is_stable,
    leq,
    stabilize,
)
from hyperstrata.covers import (
    admissible_cover_graph,
    pushforward,
    pushforward_trace,
)
from hyperstrata.serialize import annotated_to_json, graph_to_json
from hyperstrata.trees import (
    annotate,
    build_T_lg,
    enumerate_trees,
    good_classes,
    unnumbered_classes,
)


def two_vertex_triple_edge():
    # two vertices joined by three parallel edges, three extra leaves
    return Graph(range(1, 10), {4: 5, 5: 4, 6: 7, 7: 6, 8: 9, 9: 8},
                 [{1, 4, 6, 8}, {2, 3, 5, 7, 9}], [0, 0])


def test_betti1_two_vertices_three_edges():
    assert betti1(two_vertex_triple_edge()) == 2


def test_betti1_tree_and_loop():
    assert betti1(Graph([1], {}, [{1}], [0])) == 0
    assert betti1(Graph([1, 2], {1: 2, 2: 1}, [{1, 2}], [0])) == 1


def test_betti1_rejects_disconnected():
    g = Graph([1, 2], {}, [{1}, {2}], [0, 0])
    # connectivity is computed once and kept; repeated calls must agree
    for _ in range(3):
        assert not is_connected(g)
        with pytest.raises(DisconnectedGraph):
            betti1(g)


def test_genus_examples():
    assert genus(two_vertex_triple_edge()) == 2
    assert genus(Graph([1], {}, [{1}], [3])) == 3
    # genus-0 vertex with g loops
    for g in (1, 2, 3):
        flags = list(range(2 * g))
        sigma = {2 * i: 2 * i + 1 for i in range(g)}
        sigma.update({v: k for k, v in sigma.items()})
        assert genus(Graph(flags, sigma, [set(flags)], [0])) == g


def test_graph_type():
    assert graph_type(two_vertex_triple_edge()) == GraphType(2, 3)


def test_is_stable():
    assert is_stable(two_vertex_triple_edge())
    assert not is_stable(Graph([1, 2], {}, [{1, 2}], [0]))
    assert is_stable(Graph([1], {}, [{1}], [1]))


def test_stabilize_fixpoint_on_stable_graph():
    g = two_vertex_triple_edge()
    assert canonical_form(stabilize(g)) == canonical_form(g)


def test_stabilize_splices_two_flag_vertex():
    # v1 - v2 - v3 with the middle vertex rational and bare
    g = Graph(range(1, 9), {3: 4, 4: 3, 5: 6, 6: 5},
              [{1, 2, 3}, {4, 5}, {6, 7, 8}], [1, 0, 1])
    s = stabilize(g)
    assert len(s.vertices) == 2 and len(s.edges) == 1
    assert genus(s) == genus(g) and is_stable(s)


def test_stabilize_parallel_edges_become_loop():
    # rational vertex tied to a stable vertex by two parallel edges
    g = Graph([1, 2, 3, 4, 5, 6], {2: 5, 5: 2, 3: 6, 6: 3},
              [{1, 2, 3, 4}, {5, 6}], [1, 0])
    s = stabilize(g)
    assert len(s.vertices) == 1
    assert len(s.edges) == 1 and genus(s) == 2 and is_stable(s)


def test_stabilize_passes_leaf_through():
    # middle vertex carries one leaf and one edge plus nothing else
    g = Graph([1, 2, 3, 4, 5, 6], {4: 5, 5: 4},
              [{1, 2, 3, 4}, {5, 6}], [1, 0])
    ng = NumberedGraph(g, {1: 1, 2: 2, 3: 3, 6: 4})
    s = stabilize(ng)
    assert set(s.graph.leaves) == {1, 2, 3, 6}
    assert s.numbering == ng.numbering
    assert is_stable(s.graph) and genus(s.graph) == 1


def test_stabilize_drops_one_flag_vertex():
    g = Graph([1, 2, 3, 4], {3: 4, 4: 3}, [{1, 2, 3}, {4}], [1, 0])
    s = stabilize(g)
    assert len(s.vertices) == 1 and not s.edges
    assert genus(s) == 1 and set(s.leaves) == {1, 2}


def test_stabilize_unstabilizable():
    with pytest.raises(Unstabilizable):
        stabilize(Graph([1, 2], {}, [{1, 2}], [0]))      # (0,2)
    with pytest.raises(Unstabilizable):
        stabilize(Graph([1, 2], {1: 2, 2: 1}, [{1, 2}], [0]))  # bare cycle


def test_contract_nothing_is_isomorphic():
    g = two_vertex_triple_edge()
    assert canonical_form(contract_edges(g, [])) == canonical_form(g)


def test_contract_one_edge_of_triple_bond():
    g = two_vertex_triple_edge()
    e = next(iter(g.edges))
    c = contract_edges(g, [e])
    # the merged vertex keeps label 0 and the remaining edges become loops
    assert len(c.vertices) == 1 and c.genus_labels == (0,)
    assert len(c.edges) == 2 and genus(c) == 2


def test_contract_everything_keeps_genus():
    g = two_vertex_triple_edge()
    c = contract_edges(g, g.edges)
    assert len(c.vertices) == 1 and not c.edges
    assert c.genus_labels == (2,) and genus(c) == 2


def test_contract_unknown_edge():
    g = two_vertex_triple_edge()
    with pytest.raises(UnknownEdge):
        contract_edges(g, [frozenset({1, 2})])


def _eager_edges(g: Graph) -> frozenset:
    return frozenset(frozenset((f, p)) for f, p in g.sigma.items() if p != f)


def test_lazy_edges_match_the_involution():
    from hyperstrata.covers import pushforward
    from hyperstrata.trees import enumerate_trees, unnumbered_classes

    trees = [t.graph for t in enumerate_trees(6)]
    images = [pushforward(c.annotated()) for c in unnumbered_classes(8)]
    contracted = [contract_edges(g, [e]) for g in trees[:50] + images[:50]
                  for e in sorted(_eager_edges(g), key=sorted)[:1]]
    for g in trees + images + contracted:
        assert g.edges == _eager_edges(g)
        assert len(g.edges) == g.edge_count


def test_contract_genus_invariance_exhaustive(numbered):
    # every edge subset of every stable (0,6) and (0,7) tree, plus loop
    # graphs arising from double covers
    from hyperstrata.covers import pushforward
    from hyperstrata.trees import unnumbered_classes

    pool = [t.graph for t in numbered(6)] + [t.graph for t in numbered(7)]
    pool += [pushforward(c.annotated()) for c in unnumbered_classes(6)]
    for g in pool:
        expected = genus(g)
        edges = sorted(tuple(sorted(e)) for e in g.edges)
        assert len(edges) <= 4
        for r in range(len(edges) + 1):
            for subset in itertools.combinations(edges, r):
                c = contract_edges(g, [frozenset(e) for e in subset])
                assert genus(c) == expected


def _contracted_labels(g: Graph, edges) -> dict:
    # Each cluster of vertices that the edges join, keyed by its flags left
    # after contraction, with the genus of the subgraph the edges span on
    # it: the label sum, plus the edge count, less the vertex count, plus 1.
    owner = {f: v for v, part in enumerate(g.vertices) for f in part}
    root = list(range(len(g.vertices)))
    for f, p in edges:
        a, b = root[owner[f]], root[owner[p]]
        root = [a if r == b else r for r in root]
    dropped = {f for e in edges for f in e}
    out = {}
    for c in set(root):
        members = [v for v, r in enumerate(root) if r == c]
        inner = sum(1 for f, _ in edges if root[owner[f]] == c)
        flags = frozenset().union(*(g.vertices[v] for v in members))
        out[flags - dropped] = (sum(g.genus_labels[v] for v in members)
                                + inner - len(members) + 1)
    return out


def test_contraction_composes(numbered):
    # Contracting S1 and then S2 gives the graph that contracting S1 | S2
    # at once gives, for every split of every subset of at most three
    # edges.  The vertex labels carry the contracted genus, so a label on
    # the wrong merged vertex shows here though the total genus does not
    # change; and each label of the one-step contraction is the genus of
    # its cluster's contracted subgraph, read from the input graph, which
    # catches a fault that is wrong the same way at every step.  The (0, 6)
    # trees are the 60 with the least canonical forms.
    pool = sorted(numbered(6), key=canonical_form)[:60]
    pool += [pushforward(c.annotated()) for c in unnumbered_classes(8)]
    # Two components: a triple bond, and a vertex with a loop joined to one
    # more vertex.
    pool.append(Graph(range(1, 14), {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5,
                                     7: 8, 8: 7, 9: 10, 10: 9},
                      [{1, 3, 5, 11}, {2, 4, 6, 12}, {7, 8, 9}, {10, 13}],
                      [0, 1, 0, 2]))
    splits = 0
    for g in pool:
        graph = g.graph if isinstance(g, NumberedGraph) else g
        edges = _edge_pairs(graph)
        for r in range(min(3, len(edges)) + 1):
            for subset in itertools.combinations(edges, r):
                once = contract_edges(graph, subset)
                assert dict(zip(map(frozenset, once.vertices),
                                once.genus_labels)) == \
                    _contracted_labels(graph, subset), (g, subset)
                whole = canonical_form(contract_edges(g, subset))
                for mask in range(1 << r):
                    s1 = [e for i, e in enumerate(subset) if mask >> i & 1]
                    s2 = [e for i, e in enumerate(subset)
                          if not mask >> i & 1]
                    assert canonical_form(contract_edges(
                        contract_edges(g, s1), s2)) == whole, (g, s1, s2)
                    splits += 1
    assert splits == 3113


def _relabel(g: Graph, rng: random.Random) -> Graph:
    flags = sorted(g.flags)
    images = flags[:]
    rng.shuffle(images)
    m = dict(zip(flags, images))
    sigma = {m[f]: m[p] for f, p in g.sigma.items()}
    order = list(range(len(g.vertices)))
    rng.shuffle(order)
    vertices = [{m[f] for f in g.vertices[i]} for i in order]
    labels = [g.genus_labels[i] for i in order]
    return Graph(m.values(), sigma, vertices, labels)


def _random_connected_graph(rng: random.Random) -> Graph:
    while True:
        n_flags = rng.randint(2, 8)
        flags = list(range(1, n_flags + 1))
        rng.shuffle(flags)
        n_pairs = rng.randint(0, n_flags // 2)
        sigma = {}
        pool = flags[:]
        for _ in range(n_pairs):
            a, b = pool.pop(), pool.pop()
            sigma[a], sigma[b] = b, a
        n_vertices = rng.randint(1, max(1, n_flags // 2))
        parts = [set() for _ in range(n_vertices)]
        for f in flags:
            parts[rng.randrange(n_vertices)].add(f)
        parts = [p for p in parts if p]
        labels = [rng.randint(0, 2) for _ in parts]
        g = Graph(flags, sigma, parts, labels)
        if is_connected(g):
            return g


def test_canonical_form_relabeling_invariance():
    rng = random.Random(20240117)
    for _ in range(1000):
        g = _random_connected_graph(rng)
        assert canonical_form(_relabel(g, rng)) == canonical_form(g)


def test_stabilize_does_not_depend_on_vertex_order():
    # Splicing a vertex out can leave an earlier one unstable, so the loop
    # goes back to it: every vertex and flag order gives the same image, or
    # the same refusal.
    def outcome(g):
        try:
            return canonical_form(stabilize(g))
        except Unstabilizable as e:
            return str(e)

    rng = random.Random(20261020)
    for _ in range(1000):
        g = _random_connected_graph(rng)
        want = outcome(g)
        for _ in range(3):
            assert outcome(_relabel(g, rng)) == want


def _pendant_tree(k: int) -> NumberedGraph:
    # a centre with k three-leaf satellites, one two-leaf satellite and
    # k mod 2 leaves of its own; the image has k interchangeable pendants
    sizes = [3] * k + [2]
    n = sum(sizes) + k % 2
    centre = set(range(n - k % 2 + 1, n + 1))
    parts, sigma = [centre], {}
    leaf, flag = 1, n + 1
    for size in sizes:
        sigma[flag], sigma[flag + 1] = flag + 1, flag
        centre.add(flag)
        parts.append(set(range(leaf, leaf + size)) | {flag + 1})
        leaf, flag = leaf + size, flag + 2
    graph = Graph(set().union(*parts), sigma, parts, [0] * len(parts))
    return NumberedGraph(graph, {i: i for i in range(1, n + 1)})


# SHA-256 of the concatenated canonical bytes of four graph families.  The
# bytes order the CLI's class listings and key stored classes, so a faster
# kernel must reproduce them exactly.
PINNED_CANONICAL_SHA = {
    "trees6": "91add1421ced7e8d1bd383bd70a74ed2db953185ca487ad732b1483284e302d9",
    "trees7": "67be0f8299fa9cb250438f0078cf0846f5e5bfa18bb7493905f184831bedcfbe",
    "images10": "bb5b54b5e92e62f96ea01949984cd9f5c15414d0d9a7f8ab8c1accba6ca93609",
    "pendants": "7d86d1104ee119c926391fcfec524bd4c1c7db8f06bab8ba60efe7e180454c18",
}


def test_canonical_bytes_are_pinned(numbered):
    from hyperstrata.covers import pushforward
    from hyperstrata.trees import annotate, unnumbered_classes

    # The numbered trees come in family order; the digests were recorded
    # over them in canonical-form order.
    families = {
        "trees6": sorted(numbered(6), key=canonical_form),
        "trees7": sorted(numbered(7), key=canonical_form),
        "images10": [pushforward(c.annotated())
                     for c in unnumbered_classes(10)],
        "pendants": [pushforward(annotate(_pendant_tree(k)))
                     for k in range(4, 7)],
    }
    digests = {name: hashlib.sha256(b"".join(map(canonical_form, graphs)))
               .hexdigest() for name, graphs in families.items()}
    assert digests == PINNED_CANONICAL_SHA


def _random_multigraph(rng: random.Random) -> Graph:
    # few flags and vertices, so independent draws are often isomorphic
    n_flags = rng.randint(0, 7)
    flags = list(range(1, n_flags + 1))
    rng.shuffle(flags)
    sigma = {}
    for _ in range(rng.randint(0, n_flags // 2)):
        a, b = flags.pop(), flags.pop()
        sigma[a], sigma[b] = b, a
    parts = [set() for _ in range(rng.randint(1, 3))]
    for f in range(1, n_flags + 1):
        parts[rng.randrange(len(parts))].add(f)
    return Graph(range(1, n_flags + 1), sigma, parts,
                 [rng.randint(0, 1) for _ in parts])


def _from_edges(labels, leaves, edges) -> Graph:
    # vertex v has genus labels[v] and leaves[v] leaves; an edge (u, u) is
    # a loop
    parts = [set() for _ in labels]
    flag = itertools.count(1)
    sigma = {}
    for v, k in enumerate(leaves):
        parts[v].update(next(flag) for _ in range(k))
    for u, v in edges:
        a, b = next(flag), next(flag)
        sigma[a], sigma[b] = b, a
        parts[u].add(a)
        parts[v].add(b)
    return Graph(set().union(*parts), sigma, parts, labels)


def _as_edges(g: Graph):
    leaves = [sum(1 for f in part if g.sigma[f] == f) for part in g.vertices]
    edges = [(g.vertex_of(f), g.vertex_of(p))
             for f, p in sorted(g.sigma.items()) if f < p]
    return list(g.genus_labels), leaves, edges


def _with_twin(g: Graph, v: int, bond: int) -> Graph:
    # a copy of vertex v with the same genus, leaves, loops and edges to
    # every other vertex, joined to v by `bond` parallel edges
    labels, leaves, edges = _as_edges(g)
    w = len(labels)
    twin = [(w if a == v else a, w if b == v else b) for a, b in edges
            if v in (a, b) and a != b] + [(w, w)] * edges.count((v, v))
    return _from_edges(labels + [labels[v]], leaves + [leaves[v]],
                       edges + twin + [(v, w)] * bond)


def _copies(g: Graph, k: int) -> Graph:
    labels, leaves, edges = _as_edges(g)
    n = len(labels)
    return _from_edges(labels * k, leaves * k,
                       [(a + i * n, b + i * n) for i in range(k)
                        for a, b in edges])


def _twin_rich_graphs(rng: random.Random) -> list[Graph]:
    # planted twins: open, joined by parallel edges, carrying loops, in
    # classes of two and three, and disjoint isomorphic components
    out = []
    for _ in range(40):
        g = _random_multigraph(rng)
        for _ in range(rng.randint(1, 2)):
            g = _with_twin(g, rng.randrange(len(g.vertices)),
                           rng.choice((0, 0, 1, 2)))
        out.append(g)
    out += [_copies(_random_multigraph(rng), rng.randint(2, 3))
            for _ in range(15)]
    looped_star = _from_edges([0] + [1] * 4, [0] * 5,
                              [(0, 0)] + [(0, v) for v in range(1, 5)] +
                              [(v, v) for v in range(1, 5)])
    return out + [looped_star, _copies(looped_star, 2)]


def _to_networkx(g: Graph, nx, pinned=frozenset()):
    m = nx.MultiGraph()
    for v, (part, label) in enumerate(zip(g.vertices, g.genus_labels)):
        leaves = [f for f in part if g.sigma[f] == f]
        m.add_node(v, colour=(label, sum(f not in pinned for f in leaves),
                              tuple(sorted(pinned.intersection(leaves)))))
    for f, p in g.sigma.items():
        if f < p:
            m.add_edge(g.vertex_of(f), g.vertex_of(p))
    return m


def test_canonical_form_agrees_with_networkx_isomorphism():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)
    pool = [_random_multigraph(rng) for _ in range(90)]
    pool += _twin_rich_graphs(rng)
    pool += [_relabel(g, rng) for g in pool[:30] + pool[90:120]]
    forms = [canonical_form(g) for g in pool]
    nets = [_to_networkx(g, nx) for g in pool]
    assert any(not is_connected(g) for g in pool)
    assert any(nx.number_of_selfloops(m) for m in nets)
    assert any(m.number_of_edges() > nx.Graph(m).number_of_edges()
               for m in nets if not nx.number_of_selfloops(m))
    same_colour = nx.algorithms.isomorphism.categorical_node_match("colour",
                                                                     None)
    equal_pairs = 0
    for i, j in itertools.combinations(range(len(pool)), 2):
        iso = nx.is_isomorphic(nets[i], nets[j], node_match=same_colour)
        assert (forms[i] == forms[j]) == iso, (pool[i], pool[j])
        equal_pairs += iso
    assert equal_pairs > 30


def test_canonical_form_distinguishes_shapes():
    # path of three vertices vs star, both with four leaves
    path = Graph(range(1, 9), {3: 4, 4: 3, 5: 6, 6: 5},
                 [{1, 2, 3}, {4, 5}, {6, 7, 8}], [0, 1, 0])
    star = Graph(range(1, 9), {3: 4, 4: 3, 5: 6, 6: 5},
                 [{1, 2, 3, 5}, {4}, {6, 7, 8}], [0, 1, 0])
    assert canonical_form(path) != canonical_form(star)


def test_canonical_form_numbered_vs_plain_differ():
    t = build_T_lg(2, 4).tree
    assert canonical_form(t) != canonical_form(t.graph)


def test_canonical_form_star_tree_block_swap():
    t = build_T_lg(2, 4).tree
    # renumber by swapping the two satellite pairs: (1 2)(3 4) -> (3 4)(1 2)
    swap = {1: 3, 2: 4, 3: 1, 4: 2}
    renumbered = NumberedGraph(t.graph,
                               {f: swap.get(n, n)
                                for f, n in t.numbering.items()})
    assert canonical_form(renumbered) == canonical_form(t)
    # an asymmetric renumbering lands in a different class
    other = NumberedGraph(t.graph,
                          {f: {1: 5, 5: 1}.get(n, n)
                           for f, n in t.numbering.items()})
    assert canonical_form(other) != canonical_form(t)


def test_automorphism_counts():
    tri = Graph([1, 2, 3], {}, [{1, 2, 3}], [0])
    assert automorphism_count(tri) == 6
    assert automorphism_count(tri, fixed_leaves=[1]) == 2
    assert automorphism_count(tri, fixed_leaves=[1, 2, 3]) == 1

    t = build_T_lg(2, 4)
    root = next(f for f, n in t.tree.numbering.items() if n == 10)
    assert automorphism_count(t.graph, [root]) == 960  # 5! * 2! * 2^2

    # isomorphic components may be permuted, unless they hold a fixed leaf
    two_tri = Graph(range(1, 7), {}, [{1, 2, 3}, {4, 5, 6}], [0, 0])
    assert automorphism_count(two_tri) == 72
    assert automorphism_count(two_tri, fixed_leaves=[1]) == 12
    assert automorphism_count(Graph([], {}, [set(), set()], [1, 1])) == 2
    two_loops = Graph([1, 2, 3, 4], {1: 2, 2: 1, 3: 4, 4: 3},
                      [{1, 2}, {3, 4}], [0, 0])
    assert automorphism_count(two_loops) == 8


def test_automorphism_count_loops():
    # single vertex with two loops: swap loops, flip each
    g = Graph([1, 2, 3, 4], {1: 2, 2: 1, 3: 4, 4: 3}, [{1, 2, 3, 4}], [0])
    assert automorphism_count(g) == 8


def test_automorphism_tree_vs_backtracking_agree(numbered):
    from hyperstrata.graphs import (_generic_search, _tree_search,
                                    _vertex_adjacency, _vertex_colors)
    from hyperstrata.trees import good_classes

    # every (0, 6) tree with no, one and two pinned leaves, and the good
    # representatives to g = 5, whose one-edge trees are bicentral
    cases = [(t.graph, t.graph.leaves[:k])
             for t in numbered(6) for k in range(3)]
    cases += [(c.representative.graph, ())
              for g in range(2, 6) for c in good_classes(g)]
    assert any(len(g.vertices) == 2 for g, _ in cases)
    for g, pinned in cases:
        adj = _vertex_adjacency(g)
        colors = _vertex_colors(g, None, frozenset(pinned))
        assert _tree_search(adj, colors)[1] == \
            _generic_search(adj, colors)[1]


def _flag_lift(g: Graph, pinned) -> int:
    # flag maps over one vertex map: anonymous leaves, parallel edges and
    # loops (each loop may also be flipped)
    lift = 1
    pairs = Counter(tuple(sorted((g.vertex_of(f), g.vertex_of(p))))
                    for f, p in g.sigma.items() if f < p)
    for (u, v), m in pairs.items():
        lift *= factorial(m) * (2 ** m if u == v else 1)
    for part in g.vertices:
        lift *= factorial(sum(1 for f in part
                              if g.sigma[f] == f and f not in pinned))
    return lift


def test_automorphism_count_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import (MultiGraphMatcher,
                                                 categorical_node_match)

    rng = random.Random(20261019)
    pool = [_random_multigraph(rng) for _ in range(90)]
    pool += _twin_rich_graphs(rng)
    cases = [(g, frozenset()) for g in pool]
    cases += [(g, frozenset(rng.sample(g.leaves, rng.randint(1, len(g.leaves)))))
              for g in pool[::3] if g.leaves]
    same_colour = categorical_node_match("colour", None)
    for g, pinned in cases:
        m = _to_networkx(g, nx, pinned)
        vertex_maps = sum(1 for _ in MultiGraphMatcher(
            m, m, node_match=same_colour).isomorphisms_iter())
        assert automorphism_count(g, pinned) == \
            vertex_maps * _flag_lift(g, pinned), (g, sorted(pinned))
    assert sum(1 for g, pinned in cases if pinned) > 20


def test_pendant_family_stays_polynomial():
    # one loop with k interchangeable genus-1 pendants: k! leaves of a
    # search without twin collapse
    from hyperstrata.covers import pushforward
    from hyperstrata.trees import annotate

    rng = random.Random(12)
    for k in range(2, 13):
        img = pushforward(annotate(_pendant_tree(k)))
        assert automorphism_count(img) == 2 * factorial(k)
        assert canonical_form(_relabel(img, rng)) == canonical_form(img)


def test_leq_basics(numbered):
    smooth = numbered(5, 0)[0]
    one_edge = numbered(5, 1)
    assert leq(smooth, smooth)
    assert leq(one_edge[0], smooth)
    assert not leq(smooth, one_edge[0])
    # two different one-edge splits are incomparable
    a, b = one_edge[0], one_edge[1]
    assert not leq(a, b) and not leq(b, a)


def test_leq_type_mismatch(numbered):
    with pytest.raises(TypeMismatch):
        leq(numbered(4)[0], numbered(5)[0])


def test_leq_reflexive_transitive_on_gamma06(numbered):
    trees = numbered(6)
    assert len(trees) == 236
    canon = [canonical_form(t) for t in trees]
    index = {c: i for i, c in enumerate(canon)}
    # contraction closure of each class, by canonical form
    reach = []
    for t in trees:
        edges = sorted(tuple(sorted(e)) for e in t.graph.edges)
        closure = set()
        for r in range(len(edges) + 1):
            for subset in itertools.combinations(edges, r):
                c = contract_edges(t, [frozenset(e) for e in subset])
                closure.add(canonical_form(c))
        reach.append({index[c] for c in closure})
    for i in range(len(trees)):
        assert i in reach[i]                      # reflexive
        for j in reach[i]:
            assert reach[j] <= reach[i]           # transitive
    # the leq operation agrees with the closure relation on a sample
    rng = random.Random(7)
    for _ in range(300):
        i, j = rng.randrange(236), rng.randrange(236)
        assert leq(trees[i], trees[j]) == (j in reach[i])


def test_graph_validation_errors():
    with pytest.raises(InvalidGraph, match="self-inverse"):
        Graph([1, 2], {1: 2}, [{1}, {2}], [0, 0])       # not an involution
    with pytest.raises(InvalidGraph, match="align"):
        Graph([1, 2], {1: 2, 2: 1}, [{1}, {2}], [0])    # labels misaligned
    with pytest.raises(InvalidGraph):
        Graph([1, 2], {}, [{1}], [0])                   # not a partition
    with pytest.raises(InvalidGraph):
        Graph([1], {}, [{1}], [-1])                     # negative genus
    with pytest.raises(InvalidGraph):
        NumberedGraph(Graph([1, 2], {}, [{1, 2}], [1]), {1: 1})
    with pytest.raises(InvalidGraph):
        NumberedGraph(Graph([1, 2], {}, [{1, 2}], [1]), {1: 1, 2: 3})


def test_vertex_parts_are_sorted_tuples():
    # A repeated flag in one part is merged, as in a set; across parts it
    # is still an overlap.
    g = Graph([4, 3, 2, 1], {2: 4, 4: 2}, [[3, 1, 3, 2], (4,)], [1, 0])
    assert g.vertices == ((1, 2, 3), (4,))
    assert g.vertex_of(3) == 0 and g.vertex_of(4) == 1
    with pytest.raises(InvalidGraph, match="disjoint"):
        Graph([1, 2], {}, [[1, 2], [2]], [0, 0])


def test_flag_set_is_derived_once_on_demand():
    # A (0, 6) tree with two edges: its flag set is the involution's keys.
    g = Graph(range(1, 11), {7: 8, 8: 7, 9: 10, 10: 9},
              [{1, 2, 7}, {3, 4, 8, 9}, {5, 6, 10}], [0, 0, 0])
    tree = NumberedGraph(g, {k: k for k in range(1, 7)})
    assert g.edge_count == 2 and "flags=10" in repr(g)
    canonical_form(g)
    canonical_form(tree)
    pushforward(annotate(tree))
    flags = g.flags
    assert type(flags) is frozenset and flags == frozenset(g.sigma)


def test_graph_holds_only_what_its_constructor_sets():
    assert Graph.__slots__ == ("sigma", "vertices", "genus_labels", "_leaves")
    t = build_T_lg(2, 4)
    disconnected = Graph(range(1, 5), {1: 2, 2: 1}, [{1, 2}, {3}, {4}],
                         [0, 1, 1])
    calls = [canonical_form, automorphism_count, is_connected, genus,
             lambda g: g.flags, lambda g: g.edges, graph_to_json,
             lambda g: contract_edges(g, sorted(g.edges, key=sorted)[:1])]
    for g, graph_calls in [
            (t.graph, calls + [lambda g: pushforward(t)]),
            (pushforward(t), calls),
            (admissible_cover_graph(t), calls + [stabilize]),
            (disconnected, [f for f in calls if f is not genus])]:
        for call in graph_calls:
            before = [getattr(g, s) for s in Graph.__slots__]
            sigma = dict(g.sigma)
            call(g)
            assert all(x is getattr(g, s)
                       for x, s in zip(before, Graph.__slots__))
            assert g.sigma == sigma
        # no per-flag map besides the involution itself
        assert not any(isinstance(getattr(g, s), dict)
                       for s in Graph.__slots__ if s != "sigma")
    before = [getattr(t.graph, s) for s in Graph.__slots__]
    canonical_form(t.tree)
    assert all(x is getattr(t.graph, s)
               for x, s in zip(before, Graph.__slots__))


def test_vertex_of_names_the_part_holding_each_flag(numbered):
    trees = numbered(6)
    pool = [t.graph for t in trees]
    pool += [pushforward(annotate(t)) for t in trees]
    pool += [pushforward(annotate(_pendant_tree(k))) for k in range(4, 7)]
    pool.append(Graph(range(1, 5), {1: 2, 2: 1}, [{1, 2}, {3}, {4}],
                      [0, 1, 1]))
    for g in pool:
        for f in g.sigma:
            assert g.vertex_of(f) == next(i for i, part in
                                          enumerate(g.vertices) if f in part)
        with pytest.raises(KeyError):
            g.vertex_of(max(g.sigma, default=0) + 1)


def test_annotate_and_pushforward_build_the_vertex_map_once(numbered,
                                                            monkeypatch):
    from hyperstrata import covers, graphs, trees

    builds = []
    owner = graphs._owner

    def counted(parts):
        builds.append(parts)
        return owner(parts)

    for module in (graphs, trees, covers):
        monkeypatch.setattr(module, "_owner", counted)
    # pushforward maps the tree once, in the lift, and the image at most
    # once, in the splice's connectivity postcondition
    for t in numbered(6) + [_pendant_tree(k) for k in range(2, 7)]:
        builds.clear()
        a = annotate(t)
        assert builds == [t.graph.vertices]
        builds.clear()
        pushforward(a)
        assert builds[0] is t.graph.vertices
        assert len({id(g) for g in builds}) == len(builds) <= 2


def test_stabilize_searches_connectivity_once(monkeypatch):
    from hyperstrata import graphs

    g = admissible_cover_graph(build_T_lg(2, 4))
    calls = []
    search = graphs._spanning_tree

    def counted(adj, root=0):
        calls.append(root)
        return search(adj, root)

    monkeypatch.setattr(graphs, "_spanning_tree", counted)
    stabilize(g)
    assert calls == [0]


def _assert_normalized(g):
    # The public constructor, given a graph's own data, leaves it as it is:
    # the involution as a mapping (its key order carries no meaning), parts,
    # labels, leaves and numbering.
    graph = g.graph if isinstance(g, NumberedGraph) else g
    ref = Graph(graph.sigma, graph.sigma, graph.vertices, graph.genus_labels)
    assert graph.sigma == ref.sigma
    assert graph.vertices == ref.vertices
    assert graph.genus_labels == ref.genus_labels
    assert graph.leaves == ref.leaves
    if isinstance(g, NumberedGraph):
        assert list(g.numbering.items()) == \
            list(NumberedGraph(ref, g.numbering).numbering.items())


def test_stored_form_matches_the_constructor(monkeypatch):
    # Oracle for the stored-form entry: every graph the library hands to
    # _stored, from each producer, is what the public constructor makes of
    # the same data.
    built = []
    for cls in (Graph, NumberedGraph):
        def record(cls, *data, stored=cls._stored):
            built.append(stored(*data))
            return built[-1]
        monkeypatch.setattr(cls, "_stored", classmethod(record))
    for n in range(3, 8):
        for t in enumerate_trees(n):
            if n % 2 == 0 and n > 4:
                pushforward(annotate(t))
    for n in range(3, 13):
        unnumbered_classes(n)
    for g in range(2, 9):
        for c in good_classes(g):
            pushforward(c.annotated())
    for g in (2, 3, 4, 10, 50):
        for l in sorted({0, 1, g // 2, g}):
            pushforward(build_T_lg(l, g))
    stabilize(admissible_cover_graph(build_T_lg(3, 4)))
    # a numbered path whose middle vertex holds only its two edge flags
    path = NumberedGraph(Graph(range(1, 9), {5: 6, 6: 5, 7: 8, 8: 7},
                               [{1, 2, 5}, {6, 7}, {3, 4, 8}], [0, 0, 0]),
                         {k: k for k in range(1, 5)})
    assert isinstance(stabilize(path), NumberedGraph)
    kinds = Counter(type(g) for g in built)
    assert kinds[NumberedGraph] > 7000 and kinds[Graph] > 10000
    for g in built:
        _assert_normalized(g)


@pytest.mark.parametrize("sigma, parts, labels, message", [
    ({}, (), (), "at least one vertex"),
    ({1: 1, 2: 2}, ((1, 2),), (0, 0), "align"),
    ({1: 1, 2: 2}, ((1, 2),), (-1,), "nonnegative"),
    ({1: 1, 2: 2, 3: 3}, ((1, 2), (2, 3)), (0, 0), "disjoint"),
    ({1: 1, 2: 2, 3: 3}, ((1, 2),), (0,), "partition"),
    ({1: 2, 2: 3, 3: 1}, ((1, 2, 3),), (0,), "self-inverse"),
    ({1: 2, 2: 2}, ((1, 2),), (0,), "self-inverse"),
    ({1: 5, 2: 2}, ((1, 2),), (0,), "self-inverse"),
])
def test_stored_form_runs_every_check(sigma, parts, labels, message):
    # A planted fault in stored-form data fails as the public constructor
    # fails on the same data, with the same message.
    with pytest.raises(InvalidGraph, match=message) as public:
        Graph(sigma, sigma, parts, labels)
    with pytest.raises(InvalidGraph, match=message) as stored:
        Graph._stored(sigma, parts, labels)
    assert str(stored.value) == str(public.value)


def test_stored_form_refuses_a_repeated_flag():
    # The constructor merges a flag repeated within a part; the stored form
    # is taken as it is, so there the repeat is an overlap.
    sigma = {1: 1, 2: 2, 3: 3}
    assert Graph(sigma, sigma, ((1, 1, 2, 3),), (0,)).vertices == ((1, 2, 3),)
    with pytest.raises(InvalidGraph, match="disjoint"):
        Graph._stored(sigma, ((1, 1, 2, 3),), (0,))


@pytest.mark.parametrize("numbering, message", [
    ({1: 1, 2: 2}, "exactly the leaves"),
    ({1: 1, 2: 2, 3: 1}, "bijection"),
    ({1: 1, 2: 2, 3: 4}, "bijection"),
])
def test_stored_numbering_runs_every_check(numbering, message):
    g = Graph._stored({1: 1, 2: 2, 3: 3}, ((1, 2, 3),), (0,))
    with pytest.raises(InvalidGraph, match=message) as public:
        NumberedGraph(g, numbering)
    with pytest.raises(InvalidGraph, match=message) as stored:
        NumberedGraph._stored(g, numbering)
    assert str(stored.value) == str(public.value)


@pytest.mark.parametrize("flags, sigma, parts, message", [
    ([1], {}, [{1, 2}], "partition"),                    # vertex flag unknown
    ([1, 2], {}, [{1}], "partition"),                    # flag in no vertex
    ([1, 2], {1: 3}, [{1, 2}], "self-inverse"),          # sigma leaves flags
    ([1, 2], {1: 2}, [{1, 2}], "self-inverse"),          # one-sided pair
    ([1, 2, 3], {1: 2, 2: 3, 3: 1}, [{1, 2, 3}], "self-inverse"),
])
def test_graph_validation_messages(flags, sigma, parts, message):
    with pytest.raises(InvalidGraph, match=message):
        Graph(flags, sigma, parts, [0])


def _rekeyed(g, keys):
    # the same graph through the stored-form entry, its involution keyed in
    # the given order
    graph = g.graph if isinstance(g, NumberedGraph) else g
    copy = Graph._stored({f: graph.sigma[f] for f in keys}, graph.vertices,
                         graph.genus_labels)
    if isinstance(g, NumberedGraph):
        return NumberedGraph._stored(copy, g.numbering)
    return copy


def _key_order_readings(g) -> list:
    # every output a graph feeds: forms, orders with and without pinned
    # leaves, JSON, a contraction, stabilization and, for a tree, its
    # annotation, image and trace
    graph = g.graph if isinstance(g, NumberedGraph) else g
    half = [frozenset(e) for e in _edge_pairs(graph)[::2]]
    out = [canonical_form(g), automorphism_count(g),
           automorphism_count(g, graph.leaves[:2]), graph_to_json(g),
           graph_to_json(contract_edges(g, half))]
    try:
        out.append(graph_to_json(stabilize(g)))
    except HyperstrataError as e:
        out.append((type(e), str(e)))
    if isinstance(g, NumberedGraph):
        a = annotate(g)
        image = pushforward(a)
        out += [annotated_to_json(a), graph_to_json(image),
                pushforward_trace(a, image)]
    return out


def test_no_output_reads_the_involutions_key_order(numbered):
    # The stored form promises no key order for the involution, so copies
    # keyed in reverse and in a seeded shuffle give every output the
    # original gives.
    rng = random.Random(2026)
    trees = numbered(6)
    pool = trees + [pushforward(annotate(t)) for t in trees]
    pool += [admissible_cover_graph(annotate(t)) for t in trees[::10]]
    pool += [pushforward(annotate(_pendant_tree(k))) for k in range(2, 6)]
    pool.append(Graph(range(1, 12), {1: 2, 2: 1, 5: 6, 6: 5, 9: 10, 10: 9},
                      [{1, 2, 3}, {4, 5}, {6, 7, 8}, {9, 10, 11}],
                      [1, 0, 0, 1]))
    pool.append(_from_edges([0, 1, 0], [1, 0, 2],
                            [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 2)]))
    moved = 0
    for g in pool:
        keys = list((g.graph if isinstance(g, NumberedGraph) else g).sigma)
        want = _key_order_readings(g)
        for order in (keys[::-1], rng.sample(keys, len(keys))):
            copy = _rekeyed(g, order)
            moved += order != keys
            assert _key_order_readings(copy) == want
    assert moved > len(pool)
