from __future__ import annotations

import gc
import hashlib
import itertools
import json
import sys
from collections import Counter
from math import factorial

import pytest

from hyperstrata.covers import pushforward
from hyperstrata.errors import NotATree, OddLeafTotal, OutOfRange, TooLarge
from hyperstrata.graphs import (
    Graph,
    NumberedGraph,
    _form_bytes,
    _owner,
    _tree_search,
    automorphism_count,
    betti1,
    canonical_form,
    contract_edges,
    genus,
    graph_type,
    is_stable,
    stabilize,
)
from hyperstrata.serialize import graph_to_json
from hyperstrata.trees import (
    MAX_GENUS_STAR,
    StratumClass,
    _laminar_families,
    _min_weight,
    _postorder,
    _shape_leasts,
    _shape_to_tree,
    _tree_shapes,
    _weight_assignments,
    annotate,
    build_T_lg,
    enumerate_trees,
    good_classes,
    is_good,
    orbit_representatives,
    stratum_dimension,
    unnumbered_classes,
)


# --------------------------------------------------------------------------
# Reference class route: every shape, every stable (or good) weight vector
# walked, duplicates dropped on the key bytes.  The pruned route in trees
# must give the same classes and representatives.
# --------------------------------------------------------------------------

def reference_weight_assignments(adj, total: int, only_good: bool):
    """Every stable (and, with only_good, good) leaf-weight vector, in
    lexicographic order along the postorder from vertex 0."""
    nv = len(adj)
    order, parent = _postorder(adj)
    children = [[u for u in adj[v] if u != parent[v]] for v in order]
    min_w = [_min_weight(len(adj[v]), only_good) for v in order]
    check = [only_good and len(adj[v]) > 1 for v in order]
    suffix = [sum(min_w[i:]) for i in range(nv + 1)]
    w, subtree = [0] * nv, [0] * nv

    def rec(i: int, remaining: int):
        v = order[i]
        child_sum = odd_children = 0
        for u in children[i]:
            child_sum += subtree[u]
            odd_children += subtree[u] & 1
        if i == nv - 1:  # the root: its parity term is 0
            if remaining >= min_w[i] and not (
                    check[i] and remaining + odd_children < 4):
                w[v] = remaining
                yield tuple(w)
            return
        for wv in range(min_w[i], remaining - suffix[i + 1] + 1):
            sub = wv + child_sum
            if check[i] and wv + odd_children + (sub & 1) < 4:
                continue
            w[v] = wv
            subtree[v] = sub
            yield from rec(i + 1, remaining - wv)

    yield from rec(0, total)


def reference_classes(n: int, edge_count=None, only_good=False):
    # Without an edge count, stop at the first size where no shape has a
    # vector: no larger shape has one either.
    ks = range(n - 2) if edge_count is None else [edge_count]
    found: dict[bytes, StratumClass] = {}
    for k in ks:
        walked = False
        for adj in _tree_shapes(k + 1):
            for weights in reference_weight_assignments(adj, n, only_good):
                walked = True
                enc, aut = _tree_search(adj, [(0, wv, ()) for wv in weights])
                key = _form_bytes(False, [("t", enc)])
                if key in found:
                    continue
                tree = _shape_to_tree(adj, weights)
                if only_good and not is_good(annotate(tree)):
                    continue
                found[key] = StratumClass(tree, k, factorial(n) // aut, key)
        if not walked:
            break
    return sorted(found.values(), key=lambda c: (c.edge_count, c.canonical_key))


# --------------------------------------------------------------------------
# Independent generator: grow trees by splitting a vertex, deduplicate by
# canonical form.  Used as the enumeration oracle for n <= 7.
# --------------------------------------------------------------------------

def _split_vertex(t: NumberedGraph, v_index: int, moved: frozenset):
    g = t.graph
    part = g.vertices[v_index]
    stay = set(part) - moved
    if len(stay) < 2 or len(moved) < 2:
        return None
    top = max(g.flags)
    f_old, f_new = top + 1, top + 2
    sigma = dict(g.sigma)
    sigma[f_old], sigma[f_new] = f_new, f_old
    parts = [set(p) for p in g.vertices]
    parts[v_index] = set(stay) | {f_old}
    parts.append(set(moved) | {f_new})
    graph = Graph(set(g.flags) | {f_old, f_new}, sigma, parts,
                  list(g.genus_labels) + [0])
    return NumberedGraph(graph, t.numbering)


def brute_force_tree_classes(n: int) -> dict[int, int]:
    """Class counts by edge number, from the vertex-splitting generator."""
    start = NumberedGraph(Graph(range(1, n + 1), {}, [set(range(1, n + 1))],
                                [0]),
                          {k: k for k in range(1, n + 1)})
    levels = {0: {canonical_form(start): start}}
    k = 0
    while True:
        nxt: dict[bytes, NumberedGraph] = {}
        for t in levels[k].values():
            for v_index, part in enumerate(t.graph.vertices):
                flags = sorted(part)
                for r in range(2, len(flags) - 1):
                    for moved in itertools.combinations(flags, r):
                        s = _split_vertex(t, v_index, frozenset(moved))
                        if s is not None:
                            nxt.setdefault(canonical_form(s), s)
        if not nxt:
            break
        k += 1
        levels[k] = nxt
    return {k: len(v) for k, v in levels.items()}


@pytest.mark.parametrize("n,expected", [
    (4, {0: 1, 1: 3}),
    (5, {0: 1, 1: 10, 2: 15}),
    (6, {0: 1, 1: 25, 2: 105, 3: 105}),
    (7, {0: 1, 1: 56, 2: 490, 3: 1260, 4: 945}),
])
def test_enumeration_agrees_with_independent_generator(n, expected, numbered):
    assert brute_force_tree_classes(n) == expected
    for k, count in expected.items():
        assert len(numbered(n, k)) == count
    assert len(numbered(n)) == sum(expected.values())


def test_single_class_for_three_leaves(numbered):
    assert len(numbered(3)) == 1
    t = numbered(3)[0]
    assert not t.graph.edges and len(t.graph.vertices) == 1


def test_enumeration_is_deterministic_and_stable(numbered):
    again = enumerate_trees(5)
    assert [canonical_form(t) for t in again] == \
        [canonical_form(t) for t in numbered(5)]
    for t in again:
        assert graph_type(t) == (0, 5)
        assert is_stable(t) and betti1(t) == 0


def test_enumeration_range_errors():
    with pytest.raises(OutOfRange):
        enumerate_trees(2)
    with pytest.raises(OutOfRange):
        enumerate_trees(10)
    with pytest.raises(OutOfRange):
        enumerate_trees(13)
    with pytest.raises(OutOfRange):
        enumerate_trees(5, 3)


def test_family_parents_are_the_smallest_supersets():
    # Oracle: each family is pairwise laminar, and a direct scan finds each
    # split's smallest superset (the supersets of a split form a chain).
    for n in range(3, 9):
        for family, parents in _laminar_families(n):
            want = []
            for m in family:
                others = [j for j, c in enumerate(family) if c != m]
                assert all(m & family[j] in (0, m, family[j]) for j in others)
                supers = [j for j in others if family[j] & m == m]
                want.append(1 + min(supers, key=lambda j: family[j].bit_count())
                            if supers else 0)
            assert parents == tuple(want)


def _cut_masks(t: NumberedGraph) -> list[int]:
    """Each edge's leaves on the side away from leaf 1, as split masks."""
    g = t.graph
    out = []
    for f, p in g.sigma.items():
        if f >= p:
            continue
        near = {g.vertex_of(1)}
        stack = list(near)
        while stack:
            v = stack.pop()
            for x in g.vertices[v]:
                y = g.sigma[x]
                if y != x and x not in (f, p) and g.vertex_of(y) not in near:
                    near.add(g.vertex_of(y))
                    stack.append(g.vertex_of(y))
        out.append(sum(1 << (t.numbering[leaf] - 2) for leaf in g.leaves
                       if g.vertex_of(leaf) not in near))
    return sorted(out)


def test_family_trees_cut_their_splits_and_key_on_their_form(numbered):
    # The canonical forms of the enumerated trees strictly increase (n <= 8),
    # so the key the enumeration sorts on is the canonical form and no class
    # comes twice; and the edges of the trees cut off exactly the laminar
    # families' splits (n <= 7).
    for n in range(3, 9):
        forms = [canonical_form(t) for t in numbered(n)]
        assert all(a < b for a, b in zip(forms, forms[1:]))
        if n <= 7:
            assert {tuple(_cut_masks(t)) for t in numbered(n)} == \
                {tuple(sorted(family)) for family, _ in _laminar_families(n)}


def test_enumeration_finds_centres_once_per_parent_links(numbered):
    # The 39,208 families of n = 8 have 85 distinct parent-link tuples, and
    # the centres (with the adjacency and edge ends) depend only on those.
    # The session build counts its centre calls.
    assert len(numbered(8)) == 39208
    assert numbered.centre_calls[(8, None)] == 85


def test_enumerated_vertex_parts_are_untracked():
    # Sorted int tuples leave the collector's lists at the first pass that
    # sees them, and a tuple of them at the next, so a large enumeration is
    # not rescanned by every full collection.  Automatic passes are held
    # off during the build: whether one ran after a given tree depends on
    # the allocation counts that earlier tests left.
    gc.disable()
    try:
        trees = enumerate_trees(6)
    finally:
        gc.enable()
    gc.collect()
    assert not any(gc.is_tracked(p) for t in trees for p in t.graph.vertices)
    gc.collect()
    assert not any(gc.is_tracked(t.graph.vertices) for t in trees)
    assert all(type(p) is tuple and list(p) == sorted(p)
               for t in trees for p in t.graph.vertices)


def test_trees_of_one_shape_share_a_frame_that_no_call_writes(numbered):
    # The trees of one parent-link tuple (read back from the edge flags:
    # edge i joins flag n+1+2i at the parent to n+2+2i at vertex i+1) share
    # one involution, label tuple and numbering, and equal vertex parts are
    # one object within a call.  Sharing is safe only while nothing writes
    # stored-form data: a sample of trees through the graph operations
    # leaves every shared object equal to its snapshot.
    frames, sample = {}, []
    for n in range(3, 9):
        parts: dict = {}
        for t in numbered(n):
            g = t.graph
            owner = _owner(g.vertices)
            assert all(owner[f + 1] == i for i, f in
                       enumerate(range(n + 1, len(g.sigma), 2), start=1))
            parents = tuple(owner[f] for f in range(n + 1, len(g.sigma), 2))
            frame = (g.sigma, g.genus_labels, t.numbering)
            first = frames.setdefault((n, parents), frame)
            if first is frame:
                sample.append(t)
            assert all(a is b for a, b in zip(first, frame))
            assert all(parts.setdefault(p, p) is p for p in g.vertices)
    assert Counter(n for n, _ in frames) == \
        {3: 1, 4: 2, 5: 4, 6: 9, 7: 25, 8: 85}
    before = [(list(sigma.items()), labels, list(numbering.items()))
              for sigma, labels, numbering in frames.values()]
    for t in sample:
        g = t.graph
        if len(g.leaves) in (6, 8):
            pushforward(annotate(t))
        stabilize(t)
        if g.edge_count:
            contract_edges(t, [next(iter(g.edges))])
        canonical_form(t)
        automorphism_count(g)
        graph_to_json(t)
    assert before == [(list(sigma.items()), labels, list(numbering.items()))
                      for sigma, labels, numbering in frames.values()]


def test_annotate_one_edge_parities(numbered):
    seen = set()
    for t in numbered(6, 1):
        a = annotate(t)
        (e,) = t.graph.edges
        f = sorted(e)[0]
        profile = tuple(sorted(len(p) for p in t.graph.vertices))
        seen.add((profile, a.parity[f]))
        if profile == (4, 4):     # 3|3 split: odd edge, rho = 4 on each side
            assert a.rho == (4, 4)
    assert seen == {((3, 5), 0), ((4, 4), 1)}


def test_annotate_edgeless():
    a = build_T_lg(0, 3)
    assert a.rho == (8,) and a.nu == (0,) and a.internal == (False,)


def test_annotate_rejects_odd_totals_and_nontrees(numbered):
    with pytest.raises(OddLeafTotal):
        annotate(numbered(5)[0])
    loop = Graph([1, 2, 3, 4, 5], {1: 2, 2: 1}, [{1, 2, 3, 4, 5}], [0])
    with pytest.raises(NotATree):
        annotate(NumberedGraph(loop, {3: 1, 4: 2, 5: 3}))


def test_annotate_rejects_positive_genus_labels():
    # The cover's genus rule reads only the parities, so a positive label
    # would give a wrong image (genus 2 here instead of a refusal).
    for labels in ([1, 0], [0, 2]):
        g = Graph(range(1, 9), {7: 8, 8: 7},
                  [{1, 2, 3, 7}, {4, 5, 6, 8}], labels)
        with pytest.raises(NotATree, match="genus 0"):
            annotate(NumberedGraph(g, {k: k for k in range(1, 7)}))


def test_parity_and_rho_invariants(numbered, orbits):
    pools = [annotate(t) for t in numbered(6)]
    pools += [c.annotated() for c in orbits(8)] + \
             [c.annotated() for c in orbits(10)]
    for a in pools:
        g = a.graph
        n_leaves = len(g.leaves)
        odd_edges = sum(1 for e in g.edges if a.parity[sorted(e)[0]] == 1)
        assert sum(a.rho) == n_leaves + 2 * odd_edges
        assert all(r % 2 == 0 for r in a.rho)
        for e in g.edges:
            f1, f2 = sorted(e)
            assert a.parity[f1] == a.parity[f2]
        for f in g.leaves:
            assert a.parity[f] == 1


def test_is_good_on_star_trees():
    assert is_good(build_T_lg(0, 4))
    for g in (2, 3, 4, 5):
        for l in range(0, g):
            assert is_good(build_T_lg(l, g)), (l, g)
        assert not is_good(build_T_lg(g, g))


def test_good_tree_edge_bound_exhaustive(orbits):
    for g in (2, 3, 4):
        for cls in orbits(2 * g + 2):
            if is_good(cls.annotated()):
                assert cls.edge_count <= g - 1


def test_orbit_representatives_small(numbered):
    classes = orbit_representatives(numbered(4, 1))
    assert len(classes) == 1 and classes[0].orbit_size == 3
    classes = orbit_representatives(numbered(5, 1))
    assert len(classes) == 1 and classes[0].orbit_size == 10
    classes = orbit_representatives(numbered(5, 0))
    assert len(classes) == 1 and classes[0].orbit_size == 1


def test_orbit_sizes_match_explicit_grouping(numbered):
    for n in (4, 5, 6):
        classes = orbit_representatives(numbered(n))
        groups: dict[bytes, int] = {}
        for t in numbered(n):
            key = canonical_form(t.graph)
            groups[key] = groups.get(key, 0) + 1
        assert len(groups) == len(classes)
        for cls in classes:
            assert groups[cls.canonical_key] == cls.orbit_size
            aut = automorphism_count(cls.representative.graph)
            assert cls.orbit_size * aut == factorial(n)
            assert factorial(n) % cls.orbit_size == 0


def test_unnumbered_route_matches_orbit_route(numbered, orbits):
    for n in (4, 5, 6, 7):
        via_shapes = orbits(n)
        via_groups = orbit_representatives(numbered(n))
        assert [c.canonical_key for c in via_shapes] == \
            [c.canonical_key for c in via_groups]
        assert [c.orbit_size for c in via_shapes] == \
            [c.orbit_size for c in via_groups]
        assert sum(c.orbit_size for c in via_shapes) == len(numbered(n))


def test_stratum_dimension(numbered):
    assert stratum_dimension(numbered(5, 0)[0]) == 2
    for t in numbered(6, 3):
        assert stratum_dimension(t) == 0
        assert all(len(p) == 3 for p in t.graph.vertices)
    for l, g in [(0, 2), (2, 4), (3, 4), (4, 4)]:
        assert stratum_dimension(build_T_lg(l, g)) == 2 * g - l - 1


def test_build_T_lg_layout():
    t = build_T_lg(2, 4)
    g = t.graph
    assert graph_type(g) == (0, 10)
    assert len(g.vertices) == 3 and len(g.edges) == 2
    sizes = sorted(len(p) for p in g.vertices)
    assert sizes == [3, 3, 8]
    # satellite i carries leaves 2i-1, 2i
    for i in (1, 2):
        v = g.vertex_of(next(f for f, n in t.tree.numbering.items()
                             if n == 2 * i))
        nums = sorted(t.tree.numbering[f] for f in g.vertices[v]
                      if g.sigma[f] == f)
        assert nums == [2 * i - 1, 2 * i]
    assert t.rho == (6, 2, 2)

    edgeless = build_T_lg(0, 3)
    assert not edgeless.graph.edges and len(edgeless.graph.leaves) == 8

    with pytest.raises(OutOfRange):
        build_T_lg(3, 2)
    with pytest.raises(OutOfRange):
        build_T_lg(0, 1)
    with pytest.raises(TooLarge, match=f"genus {MAX_GENUS_STAR + 1} exceeds"):
        build_T_lg(1, MAX_GENUS_STAR + 1)


def test_good_classes_search_empty_at_g_edges():
    for g in (2, 3, 4, 5, 6):
        assert good_classes(g, edge_count=g) == []
        assert good_classes(g, edge_count=g - 1)


def test_explicit_edge_counts_stop_at_the_first_empty_shape_size(monkeypatch):
    # No good (0, 22) tree has more than 9 edges, and no 11-vertex shape
    # carries 22 leaves; so a larger edge count must stop there, before
    # building the shapes of its own size.
    from hyperstrata import trees

    sizes = []
    for name in ("_tree_shapes", "_shape_leasts"):
        def spy(nv, *rest, real=getattr(trees, name)):
            sizes.append(nv)
            return real(nv, *rest)

        monkeypatch.setattr(trees, name, spy)
    for e in range(10, 20):
        assert good_classes(10, edge_count=e) == []
    assert max(sizes) <= 11


def test_good_classes_edge_histogram_at_genus_7():
    classes = good_classes(7)
    assert len(classes) == 595
    assert sorted(Counter(c.edge_count for c in classes).items()) == [
        (0, 1), (1, 7), (2, 33), (3, 102), (4, 186), (5, 185), (6, 81)]


def test_shape_key_is_the_canonical_form(orbits):
    # The classes are keyed on the weighted shape before any graph is
    # built; the key must be the built tree's canonical form and the orbit
    # must come from its automorphism group.
    lists = [(n, orbits(n)) for n in range(4, 13)]
    lists += [(2 * g + 2, orbits(2 * g + 2, None, True)) for g in range(2, 8)]
    lists.append((22, orbits(22, 9, True)))   # good_classes(10, 9 edges)
    for n, classes in lists:
        for cls in classes:
            graph = cls.representative.graph
            assert cls.canonical_key == canonical_form(graph)
            assert cls.orbit_size * automorphism_count(graph) == factorial(n)
        assert len({c.canonical_key for c in classes}) == len(classes)


def _representative_digest(families) -> str:
    h = hashlib.sha256()
    for classes in families:
        for c in classes:
            h.update(json.dumps([graph_to_json(c.representative), c.edge_count,
                                 c.orbit_size], sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_class_representatives_are_pinned(orbits):
    # Each class is represented by the first weight vector that reaches it;
    # CLI JSON depends on that choice, so it must not drift.
    full = [orbits(n) for n in range(4, 13)]
    good = [orbits(2 * g + 2, None, True) for g in range(2, 8)]
    assert _representative_digest(full) == \
        "213f10ea1ee0996d6db20d712e016cafb6169950080d94a5697e76a45ea49be3"
    assert _representative_digest(good) == \
        "bb7faace6364e2767a7aaef4c94754bf33a51125ce73991a72aecc0374727e05"


def test_tree_centres_are_found_once_per_shape(monkeypatch):
    # The centres depend only on the shape, not on its weight vectors.
    from hyperstrata import graphs, trees

    runs = [(n, None, False) for n in range(4, 13)]
    runs += [(2 * g + 2, None, True) for g in range(2, 8)] + [(22, 9, True)]
    # Shapes that carry no weighting are rejected before their centres.
    shapes = 0
    for n, edge_count, good in runs:
        ks = range(n - 2) if edge_count is None else [edge_count]
        for k in ks:
            walked = sum(next(reference_weight_assignments(adj, n, good), None)
                         is not None for adj in _tree_shapes(k + 1))
            if not walked:
                break
            shapes += walked
    calls = []
    centers = graphs._tree_centers

    def counted(adj):
        calls.append(len(adj))
        return centers(adj)

    monkeypatch.setattr(graphs, "_tree_centers", counted)
    monkeypatch.setattr(trees, "_tree_centers", counted)
    for n, edge_count, good in runs:
        trees.unnumbered_classes(n, edge_count, good)
    assert len(calls) == shapes


def _assert_walk_keeps_first_of_orbit(adj, n, only_good, every):
    # The pruned walk yields a subsequence of every feasible vector, and it
    # holds the first vector of each class on the shape.
    kept = _weight_assignments(adj, n, only_good)
    rest = iter(every)
    assert all(w in rest for w in kept)
    firsts: dict[tuple, tuple] = {}
    for w in every:
        firsts.setdefault(_tree_search(adj, [(0, wv, ()) for wv in w])[0], w)
    assert set(firsts.values()) <= set(kept)


def test_weight_assignments_match_brute_force():
    # Oracle: every vector of per-vertex weights, stable at each vertex and
    # with the right total, in lexicographic order along the postorder
    # (the root last), and good when asked for (good needs n even).  A
    # vertex takes at most what the other vertices' minimums leave.  The
    # reference walk must give exactly these vectors, and the pruned walk
    # the first of each class among them.
    for nv in range(1, 8):
        for adj in _tree_shapes(nv):
            order, _ = _postorder(adj)
            lows = [max(0, 3 - len(adj[v])) for v in order]
            for n in range(13):
                ranges = [range(lo, n - sum(lows) + lo + 1) for lo in lows]
                stable = []
                for ws in itertools.product(*ranges):
                    if sum(ws) == n:
                        w = [0] * nv
                        for v, wv in zip(order, ws):
                            w[v] = wv
                        stable.append(tuple(w))
                assert list(reference_weight_assignments(adj, n, False)) \
                    == stable
                _assert_walk_keeps_first_of_orbit(adj, n, False, stable)
                if n % 2:
                    continue
                good = [w for w in stable
                        if is_good(annotate(_shape_to_tree(adj, w)))]
                assert list(reference_weight_assignments(adj, n, True)) == good
                _assert_walk_keeps_first_of_orbit(adj, n, True, good)


def test_pruned_class_route_matches_the_reference(orbits):
    jobs = [(n, None, False) for n in range(3, 13)]
    jobs += [(2 * g + 2, None, True) for g in range(1, 9)]
    jobs += [(22, 9, True), (22, 10, True)]
    for job in jobs:
        assert [(c.canonical_key, c.orbit_size, c.edge_count,
                 graph_to_json(c.representative)) for c in orbits(*job)] == \
            [(c.canonical_key, c.orbit_size, c.edge_count,
              graph_to_json(c.representative))
             for c in reference_classes(*job)], job


def test_least_leaves_decides_whether_a_shape_has_a_weighting():
    # The walk's dynamic programme is exact: a shape carries a stable (or
    # good) weighting with n leaves exactly when n reaches its least.
    # Below it the walk, which bounds its positions the same way, yields
    # nothing.  The sizes that carry n leaves run from one vertex up to a
    # largest, which unnumbered_classes relies on to stop.
    for only_good in (False, True):
        for n in range(4, 23, 2):
            sizes = [nv for nv in range(1, 12)
                     if min(_shape_leasts(nv, only_good)) <= n]
            assert sizes == list(range(1, len(sizes) + 1)), (n, only_good)
        for nv in range(1, 11):
            for adj, least in zip(_tree_shapes(nv),
                                  _shape_leasts(nv, only_good)):
                for n in range(4, 23, 2):
                    found = next(reference_weight_assignments(adj, n,
                                                              only_good), None)
                    assert (least <= n) == (found is not None), \
                        (adj, n, only_good)
                    if found is None:
                        assert _weight_assignments(adj, n, only_good) == []


def _walk_counts(monkeypatch, *job) -> Counter:
    """Shapes walked, vectors kept and walk steps (calls of the walk's
    recursion) of one class call."""
    from hyperstrata import trees

    rec = next(c for c in _weight_assignments.__code__.co_consts
               if getattr(c, "co_name", None) == "rec")
    counts: Counter = Counter()

    def counted(adj, total, only_good):
        out = _weight_assignments(adj, total, only_good)
        counts["shapes"] += 1
        counts["vectors"] += len(out)
        return out

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is rec:
            counts["steps"] += 1

    with monkeypatch.context() as m:
        m.setattr(trees, "_weight_assignments", counted)
        sys.setprofile(profile)
        try:
            unnumbered_classes(*job)
        finally:
            sys.setprofile(None)
    return counts


def test_class_walk_counts_are_pinned(monkeypatch):
    # Walking every feasible vector, good_classes(10, edge_count=9) took
    # 136,039 steps over 5,231 vectors for its 1,656 classes, and
    # good_classes(10, edge_count=10) 68,460 steps over 235 shapes for no
    # class at all.
    assert _walk_counts(monkeypatch, 22, 9, True) == \
        {"shapes": 106, "vectors": 1717, "steps": 8297}
    assert _walk_counts(monkeypatch, 22, 10, True) == {}


def test_betti1_zero_for_all_enumerated(numbered):
    for n in (4, 5, 6):
        for t in numbered(n):
            assert betti1(t) == 0


def test_genus_zero_for_all_enumerated(numbered):
    for t in numbered(6):
        assert genus(t) == 0
