from __future__ import annotations

import pytest

from hyperstrata.trees import enumerate_trees, unnumbered_classes


@pytest.fixture(scope="session")
def numbered():
    cache = {}

    def get(n, edge_count=None):
        key = (n, edge_count)
        if key not in cache:
            cache[key] = enumerate_trees(n, edge_count)
        return cache[key]

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
