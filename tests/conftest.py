import random

from hypothesis import strategies as st

from qhdecomp.families import FamilySpec, generate
from qhdecomp.graph import Graph, from_adjacency, validate


def cycle(n: int) -> Graph:
    return generate(FamilySpec("cycle", (n,)))


def path(n: int) -> Graph:
    return generate(FamilySpec("path", (n,)))


def torus(a: int, b: int) -> Graph:
    return generate(FamilySpec("grid_torus", (a, b)))


def complete(n: int) -> Graph:
    return validate([(i, j) for i in range(n) for j in range(i + 1, n)], n, n - 1)


def random_bounded_graph(n: int, d: int, rng: random.Random, tries=None) -> Graph:
    """Random simple graph with max degree <= d via seeded edge attempts."""
    edges = set()
    deg = [0] * n
    for _ in range(tries if tries is not None else 3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and deg[u] < d and deg[v] < d:
            key = (min(u, v), max(u, v))
            if key not in edges:
                edges.add(key)
                deg[u] += 1
                deg[v] += 1
    return validate(edges, n, d)


def disjoint_union(*parts: Graph) -> Graph:
    """Disjoint union of ``parts``, numbered in order."""
    adj: list[list[int]] = []
    for g in parts:
        offset = len(adj)
        adj += [[w + offset for w in nbrs] for nbrs in g.adjacency]
    return from_adjacency(adj, max(g.degree_bound for g in parts))


def double(g: Graph) -> Graph:
    """Disjoint union of g with a copy of itself."""
    return disjoint_union(g, g)


@st.composite
def graphs(draw, max_n: int = 16, max_d: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=max_d))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return random_bounded_graph(n, d, random.Random(seed))
