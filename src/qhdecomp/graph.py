"""Bounded-degree simple graphs and elementary operations on them.

Graphs are immutable after construction: vertices are 0-based contiguous
ids, adjacency is stored as sorted tuples, and every operation returns a
new object.  All ratios are exact ``fractions.Fraction`` values.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

from .errors import (
    DegreeExceededError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
    VertexSetMismatchError,
)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a certified degree bound.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``; the degree
    bound is an upper certificate, not necessarily attained.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    degree_bound: int

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if v > u:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v


def validate(edges: Iterable[tuple[int, int]], n: int, d: int) -> Graph:
    """Build a Graph from a raw edge list, checking simplicity and degrees.

    Raises SelfLoopError, DuplicateEdgeError, or DegreeExceededError; also
    rejects a negative n or d and vertex ids outside [0, n).
    """
    if n < 0 or d < 0:
        raise FormatError(f"negative vertex count or degree bound: n={n}, d={d}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u},{v}) outside vertex range [0,{n})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if v in adj[u]:
            raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
        adj[u].add(v)
        adj[v].add(u)
    for v in range(n):
        if len(adj[v]) > d:
            raise DegreeExceededError(v, len(adj[v]), d)
    return Graph(n, tuple(tuple(sorted(s)) for s in adj), d)


def from_adjacency(adjacency: Sequence[Sequence[int]], d: int) -> Graph:
    """Trusted constructor for internally-built adjacency lists."""
    return Graph(len(adjacency), tuple(tuple(sorted(a)) for a in adjacency), d)


def _check_subset(g: Graph, members: Collection[int]) -> None:
    """Refuse a vertex set with a member outside 0..n-1 (a negative id
    would otherwise alias a vertex from the end)."""
    if members and (min(members) < 0 or max(members) >= g.n):
        raise VertexSetMismatchError("subset vertex out of range")


def spanned_subgraph(g: Graph, subset: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``subset``, re-indexed contiguously.

    Returns the subgraph and the old->new index map.  The empty subset
    yields the empty graph.
    """
    members = sorted(set(subset))
    _check_subset(g, members)
    index = {old: new for new, old in enumerate(members)}
    adj: list[list[int]] = [[] for _ in members]
    for old in members:
        new = index[old]
        for w in g.adjacency[old]:
            if w in index:
                adj[new].append(index[w])
    return from_adjacency(adj, g.degree_bound), index


def boundary_edge_count(g: Graph, subset: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in ``subset``."""
    inside = set(subset)
    _check_subset(g, inside)
    count = 0
    for v in inside:
        for w in g.adjacency[v]:
            if w not in inside:
                count += 1
    return count


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, ordered by smallest contained id."""
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        components.append(sorted(comp))
    return components


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def square_graph(g: Graph) -> Graph:
    """Graph joining distinct vertices at distance 1 or 2 in ``g``.

    The returned degree bound is d^2: each vertex has at most d neighbors
    and at most d(d-1) vertices at distance exactly 2.
    """
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for v in range(g.n):
        for w in g.adjacency[v]:
            adj[v].add(w)
            for x in g.adjacency[w]:
                if x != v:
                    adj[v].add(x)
    return from_adjacency([sorted(s) for s in adj], g.degree_bound ** 2)


def edit_distance(g: Graph, h: Graph) -> Fraction:
    """|E(g) symmetric-difference E(h)| / n for graphs on the same vertex set."""
    if g.n != h.n:
        raise VertexSetMismatchError(f"vertex counts differ: {g.n} vs {h.n}")
    if g.n == 0:
        return Fraction(0)
    diff = 0
    for v in range(g.n):
        a, b = set(g.adjacency[v]), set(h.adjacency[v])
        diff += len(a ^ b)
    return Fraction(diff // 2, g.n)


def delete_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """Copy of ``g`` with the given edges removed (absent edges ignored)."""
    doomed = {(min(u, v), max(u, v)) for u, v in edges}
    adj = [
        [w for w in g.adjacency[v] if (min(v, w), max(v, w)) not in doomed]
        for v in range(g.n)
    ]
    return from_adjacency(adj, g.degree_bound)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of ``g`` under the permutation old-id -> perm[old-id]."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        adj[perm[v]] = sorted(perm[w] for w in g.adjacency[v])
    return from_adjacency(adj, g.degree_bound)


# Edge-list text format: first line "n d", then one "u v" pair per line in
# ascending lexicographic order, 0-based ids, newline-terminated ASCII.

def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.degree_bound}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _int_pair(line: str, what: str) -> tuple[int, int]:
    """The two integers of an edge-list line."""
    try:
        a, b = map(int, line.split())  # too few or many tokens raise too
    except ValueError:
        raise FormatError(f"bad {what} line: {line!r}") from None
    return a, b


def from_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge-list document")
    n, d = _int_pair(lines[0], "header")
    return validate([_int_pair(ln, "edge") for ln in lines[1:]], n, d)
