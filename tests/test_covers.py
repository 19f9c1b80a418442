from __future__ import annotations

import hashlib
import json
import random
import sys

import pytest

from hyperstrata.covers import (
    admissible_cover_graph,
    in_filtration,
    node_bound_report,
    pushforward,
    pushforward_trace,
    rational_component_count,
    verify_injectivity,
)
from hyperstrata.errors import (
    DisconnectedGraph,
    HyperstrataError,
    OutOfRange,
    Unstabilizable,
)
from hyperstrata.graphs import (
    Graph,
    NumberedGraph,
    canonical_form,
    genus,
    graph_type,
    is_stable,
    stabilize,
)
from hyperstrata.serialize import graph_to_json
from hyperstrata.trees import annotate, build_T_lg, is_good


def test_edgeless_tree_maps_to_smooth_vertex():
    for g in (2, 3, 4):
        img = pushforward(build_T_lg(0, g))
        assert len(img.vertices) == 1 and not img.edges
        assert img.genus_labels == (g,) and graph_type(img) == (g, 0)


def test_star_with_all_pairs_maps_to_loops():
    for g in (2, 3, 4):
        img = pushforward(build_T_lg(g, g))
        assert len(img.vertices) == 1 and img.genus_labels == (0,)
        assert len(img.edges) == g          # g loops
        assert genus(img) == g and is_stable(img)


def test_odd_three_three_split():
    # one edge, three leaves on each side (genus 2): two elliptic vertices
    g = Graph(range(1, 9), {4: 8, 8: 4},
              [{1, 2, 3, 4}, {5, 6, 7, 8}], [0, 0])
    t = annotate(NumberedGraph(g, {f: i + 1 for i, f in
                                   enumerate((1, 2, 3, 5, 6, 7))}))
    assert t.rho == (4, 4)
    img = pushforward(t)
    assert sorted(img.genus_labels) == [1, 1]
    assert len(img.edges) == 1 and genus(img) == 2


def test_trace_of_a_cover_that_needs_no_splice():
    # the odd 3|3 split lifts to two elliptic vertices joined by one edge,
    # already stable: the trace has no stabilize line
    g = Graph(range(1, 9), {7: 8, 8: 7}, [{1, 2, 3, 7}, {4, 5, 6, 8}], [0, 0])
    t = annotate(NumberedGraph(g, {k: k for k in range(1, 7)}))
    assert pushforward_trace(t, pushforward(t)) == [
        "vertex 0: rho=4, lifts to one vertex of genus 1",
        "vertex 1: rho=4, lifts to one vertex of genus 1",
        "edge [7, 8]: odd, one edge over it",
        "image: genus 2, 2 vertices, 1 edges",
    ]


def test_even_two_and_rest_split():
    # one even edge splitting off two leaves: spliced into a loop on a
    # vertex of genus g-1
    for g in (2, 3, 4):
        n = 2 * g + 2
        flags = list(range(1, n + 3))
        sigma = {n + 1: n + 2, n + 2: n + 1}
        small = {1, 2, n + 1}
        big = set(range(3, n + 1)) | {n + 2}
        t = annotate(NumberedGraph(Graph(flags, sigma, [small, big], [0, 0]),
                                   {k: k for k in range(1, n + 1)}))
        img = pushforward(t)
        assert len(img.vertices) == 1
        assert img.genus_labels == (g - 1,)
        assert len(img.edges) == 1 and genus(img) == g


def test_cover_vertex_genus_rule():
    t = build_T_lg(2, 4)
    cover = admissible_cover_graph(t)
    assert sorted(cover.genus_labels) == [0, 0, 2]   # (rho-2)/2 per vertex
    assert len(cover.edges) == 4                      # each even edge doubled


def test_rho_zero_vertex_gives_two_rational_components():
    # central vertex with no leaves joined to three two-leaf satellites
    # (type (0,6)); all edges even, central rho = 0
    flags = list(range(1, 13))
    sigma = {7: 8, 8: 7, 9: 10, 10: 9, 11: 12, 12: 11}
    parts = [{7, 9, 11}, {1, 2, 8}, {3, 4, 10}, {5, 6, 12}]
    t = annotate(NumberedGraph(Graph(flags, sigma, parts, [0] * 4),
                               {k: k for k in range(1, 7)}))
    assert t.rho[0] == 0
    assert rational_component_count(t) == 2
    img = pushforward(t)
    assert sum(1 for x in img.genus_labels if x == 0) == 2
    assert genus(img) == 2


def test_rational_component_examples():
    assert rational_component_count(build_T_lg(0, 3)) == 0
    for g in (2, 3, 4):
        assert rational_component_count(build_T_lg(g, g)) == 1
        assert rational_component_count(build_T_lg(g - 1, g)) == 0


def test_in_filtration_examples():
    assert in_filtration(build_T_lg(0, 2), 0)
    for g in (2, 3, 4):
        assert in_filtration(build_T_lg(g - 1, g), 0)
        assert not in_filtration(build_T_lg(g, g), 0)
        assert in_filtration(build_T_lg(g, g), 1)


def test_filtration_matches_goodness_exhaustive(orbits):
    for g in (2, 3):
        for cls in orbits(2 * g + 2):
            t = cls.annotated()
            assert in_filtration(t, 0) == is_good(t)


def test_rational_count_matches_pushforward_exhaustive(orbits):
    for g in (2, 3):
        for cls in orbits(2 * g + 2):
            t = cls.annotated()
            img = pushforward(t)
            assert rational_component_count(t) == \
                sum(1 for x in img.genus_labels if x == 0)


def test_genus_preserved_exhaustive(orbits):
    for g in (2, 3):
        for cls in orbits(2 * g + 2):
            img = pushforward(cls.annotated())
            assert genus(img) == g and is_stable(img)
            assert not img.leaves


def test_edge_count_identity(orbits):
    for g in (2, 3):
        for cls in orbits(2 * g + 2):
            t = cls.annotated()
            gph = t.graph
            odd = sum(t.parity)
            even = len(gph.edges) - odd
            spliced = sum(1 for r, inner in zip(t.rho, t.internal)
                          if r == 2 and not inner)
            img = pushforward(t)
            assert len(img.edges) == odd + 2 * even - spliced
            assert len(img.edges) >= len(gph.edges)


def test_node_bound_reports():
    rep = node_bound_report(2, 0)
    assert rep.ok and rep.max_edges <= 1
    assert rep.classes_by_edges == {0: 1, 1: 2}
    rep = node_bound_report(3, 0)
    assert rep.ok and rep.max_edges <= 2
    rep = node_bound_report(4, 0)
    assert rep.ok and rep.max_edges <= 3
    # a slack bound never binds: trees have at most 2g-1 edges
    rep = node_bound_report(2, 6)
    assert rep.ok and rep.max_edges <= 2 * 2 - 1
    with pytest.raises(OutOfRange):
        node_bound_report(6, 0)


def test_node_bound_at_genus_five():
    # the largest genus the class generator reaches (2g + 2 = 12 leaves);
    # the bound g + k - 1 is attained until trees run out at 2g - 1 edges
    for k in range(6):
        rep = node_bound_report(5, k)
        assert rep.ok and rep.max_edges == min(5 + k - 1, 2 * 5 - 1), k


def test_injectivity():
    assert verify_injectivity(2)
    assert verify_injectivity(3)
    assert verify_injectivity(4)
    assert verify_injectivity(5)
    with pytest.raises(OutOfRange):
        verify_injectivity(6)


def test_pushforward_constant_on_orbits(numbered):
    # two trees in one renumbering orbit have the same image
    trees = numbered(6, 1)
    by_class: dict[bytes, set[bytes]] = {}
    for t in trees:
        key = canonical_form(t.graph)
        img = canonical_form(pushforward(annotate(t)))
        by_class.setdefault(key, set()).add(img)
    for images in by_class.values():
        assert len(images) == 1


def _pushforward_pool(numbered, orbits):
    # Every numbered (0, 6) tree, every class for even n = 6..12 and the
    # star trees to genus 6.
    pool = [annotate(t) for t in numbered(6)]
    for n in range(6, 13, 2):
        pool += [c.annotated() for c in orbits(n)]
    pool += [build_T_lg(l, g) for g in range(2, 7) for l in range(g + 1)]
    return pool


def _random_tree(rng: random.Random) -> NumberedGraph:
    # A seeded genus-0 tree that need not be stable: 1 to 9 vertices with 0
    # to 3 leaves each and an even total of at least two, so vertices with
    # one leaf and one edge, two edges and no leaf, or one edge and no leaf
    # all occur.  Flag ids, vertex order and numbering are shuffled.  (With
    # no leaves the cover is two disjoint sheets, which stabilize refuses.)
    nv = rng.randint(1, 9)
    weights = [rng.randint(0, 3) for _ in range(nv)]
    while sum(weights) < 2 or sum(weights) % 2:
        weights[rng.randrange(nv)] += 1
    ends = [(rng.randrange(v), v) for v in range(1, nv)]
    ids = iter(rng.sample(range(1, 1000), sum(weights) + 2 * len(ends)))
    parts = [[next(ids) for _ in range(w)] for w in weights]
    leaves = [f for part in parts for f in part]
    sigma = {}
    for u, v in ends:
        a, b = next(ids), next(ids)
        sigma[a], sigma[b] = b, a
        parts[u].append(a)
        parts[v].append(b)
    rng.shuffle(parts)
    rng.shuffle(leaves)
    graph = Graph([f for part in parts for f in part], sigma, parts,
                  [0] * nv)
    return NumberedGraph(graph, {f: i + 1 for i, f in enumerate(leaves)})


def _relabelled(t: NumberedGraph, rng: random.Random) -> NumberedGraph:
    g = t.graph
    new = dict(zip(sorted(g.sigma), rng.sample(range(1, 1000), len(g.sigma))))
    graph = Graph(new.values(), {new[f]: new[p] for f, p in g.sigma.items()},
                  [[new[f] for f in part] for part in g.vertices],
                  g.genus_labels)
    return NumberedGraph(graph, {new[f]: i for f, i in t.numbering.items()})


def _outcome(build, t):
    try:
        img = build(t)
    except HyperstrataError as e:
        return type(e), str(e)
    return img.sigma, img.vertices, img.genus_labels


def test_pushforward_matches_stabilized_cover(numbered, orbits):
    # Oracle: the lift with its cherries spliced, then the splice loop, gives
    # what stabilize gives on the validated, unspliced cover Graph, error
    # type and message included.  Beyond the pinned pool: seeded unstable
    # trees, stable trees with shuffled flag ids, and large star trees.
    rng = random.Random(20261020)
    pool = _pushforward_pool(numbered, orbits)
    pool += [annotate(_random_tree(rng)) for _ in range(3000)]
    pool += [annotate(_relabelled(c.representative, rng))
             for n in (6, 8, 10) for c in orbits(n)]
    pool += [build_T_lg(g, g) for g in (50, 500, 4000)]
    raised = 0
    for t in pool:
        img = _outcome(pushforward, t)
        assert img == _outcome(lambda t: stabilize(admissible_cover_graph(t)),
                               t)
        raised += isinstance(img[0], type)
    assert 0 < raised < len(pool)


def test_splice_maps_flags_only_for_an_unstable_vertex(numbered,
                                                       monkeypatch):
    # The lift of a stable tree comes with its cherries spliced, so the
    # splice loop finds no unstable vertex in it and builds no flag-to-vertex
    # map; stabilize on the unspliced cover builds one, at its first cherry.
    from hyperstrata import graphs

    maps = []
    owner = graphs._owner

    def counted(parts):
        if sys._getframe(1).f_code is graphs._splice.__code__:
            maps.append(len(parts))
        return owner(parts)

    monkeypatch.setattr(graphs, "_owner", counted)
    trees = numbered(8)
    for t in trees:
        pushforward(annotate(t))
    assert len(trees) == 39208 and maps == []
    # the cover of T_{3,4}: the centre's vertex and three cherries
    stabilize(admissible_cover_graph(build_T_lg(3, 4)))
    assert maps == [4]


def test_pushforward_images_are_pinned(numbered, orbits):
    # Recorded when pushforward was stabilize(admissible_cover_graph(t));
    # CLI JSON is built from these images, so they must not drift.
    h = hashlib.sha256()
    for t in _pushforward_pool(numbered, orbits):
        h.update(json.dumps(graph_to_json(pushforward(t)),
                            sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == \
        "0c35634ae98adc14afddd382e956eeca9503b3d945ae363ebc941923b61eec78"


def _leafless_tree(nv: int) -> NumberedGraph:
    # A path on nv vertices with no leaves: edge i joins vertex i, by flag
    # 2i + 1, to vertex i + 1, by flag 2i + 2.
    parts: list[list[int]] = [[] for _ in range(nv)]
    sigma = {}
    for i in range(nv - 1):
        sigma[2 * i + 1], sigma[2 * i + 2] = 2 * i + 2, 2 * i + 1
        parts[i].append(2 * i + 1)
        parts[i + 1].append(2 * i + 2)
    return NumberedGraph(Graph(sigma, sigma, parts, [0] * nv), {})


def test_leafless_trees_have_disconnected_covers():
    # With no leaves the cover is unramified: two disjoint sheets.  Both
    # routes refuse it with the same error type.
    for nv in (1, 2, 4):
        t = annotate(_leafless_tree(nv))
        assert t.rho == (0,) * nv
        with pytest.raises(DisconnectedGraph):
            pushforward(t)
        with pytest.raises(DisconnectedGraph):
            stabilize(admissible_cover_graph(t))


def test_four_leaf_trees_have_no_stable_image(numbered):
    for tree in numbered(4):
        with pytest.raises(Unstabilizable,
                           match=r"^type \(1, 0\) has no stable model$"):
            pushforward(annotate(tree))
