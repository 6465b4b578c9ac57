import random

import pytest

from critgraph.graph import Multigraph


def _random_multigraph(rng: random.Random, vertices: int, extra: int, max_mult: int) -> Multigraph:
    """Connected multigraph on ``vertices`` vertices: a random tree of
    simple edges, then ``extra`` edges more (new pairs or thicker old
    ones), no pair thicker than ``max_mult``."""
    order = list(range(vertices))
    rng.shuffle(order)
    edges = {}
    for i in range(1, vertices):
        u, v = order[i], order[rng.randrange(i)]
        edges[(min(u, v), max(u, v))] = 1
    for _ in range(extra if vertices > 1 else 0):
        u, v = rng.sample(range(vertices), 2)
        key = (min(u, v), max(u, v))
        edges[key] = min(max_mult, edges.get(key, 0) + 1)
    return Multigraph(vertices, edges)


@pytest.fixture
def random_multigraph():
    """Factory for seeded random connected multigraphs, see _random_multigraph."""
    return _random_multigraph
