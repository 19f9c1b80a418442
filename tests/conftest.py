from __future__ import annotations

import pytest

from hyperstrata import graphs, trees
from hyperstrata.trees import enumerate_trees, unnumbered_classes


@pytest.fixture(scope="session")
def numbered():
    # Each build also counts the tree centres it finds, in get.centre_calls.
    cache, centre_calls = {}, {}

    def get(n, edge_count=None):
        key = (n, edge_count)
        if key not in cache:
            calls = []
            centers = graphs._tree_centers

            def counted(adj):
                calls.append(len(adj))
                return centers(adj)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graphs, "_tree_centers", counted)
                mp.setattr(trees, "_tree_centers", counted)
                cache[key] = enumerate_trees(n, edge_count)
            centre_calls[key] = len(calls)
        return cache[key]

    get.centre_calls = centre_calls
    return get


@pytest.fixture(scope="session")
def orbits():
    cache = {}

    def get(n, edge_count=None, only_good=False):
        key = (n, edge_count, only_good)
        if key not in cache:
            cache[key] = unnumbered_classes(n, edge_count, only_good)
        return cache[key]

    return get
