"""Independent brute-force oracles used by the test suite.

Nothing here touches the canonicalization or counting paths under test:
isomorphism is decided by exhaustive backtracking over vertex bijections,
and graph enumeration/deduplication relies on that backtracking only.
``agglomerate`` is the plain merge loop that the partition engine's cached
``_agglomerate`` must reproduce cluster for cluster, and ``evaluate`` the
whole-StatVector subset evaluation that ``quasihom``'s shared evaluator must
reproduce field for field.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

from qhdecomp.balls import RootedBall
from qhdecomp.graph import Graph, boundary_edge_count, from_adjacency, spanned_subgraph
from qhdecomp.quasihom import QuasihomParams, WitnessStats
from qhdecomp.stats import StatVector, d_s, stat_vector


def rooted_isomorphic(b1: RootedBall, b2: RootedBall) -> bool:
    """Root-preserving isomorphism via backtracking over all bijections.

    Candidates are pruned by degree and distance-from-root (both preserved
    by any rooted isomorphism), then extended one vertex at a time with
    full adjacency/label/color consistency checks.
    """
    g1, g2 = b1.graph, b2.graph
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if b1.radius != b2.radius:
        return False
    if (b1.labels is None) != (b2.labels is None):
        return False
    if b1.labels is not None and b1.label_width != b2.label_width:
        return False
    if (b1.edge_colors is None) != (b2.edge_colors is None):
        return False
    n = g1.n
    if n == 0:
        return True

    d1 = _distances(g1)
    d2 = _distances(g2)
    if sorted(d1) != sorted(d2):
        return False

    def label(b, v):
        return None if b.labels is None else b.labels[v]

    def color(b, u, v):
        if b.edge_colors is None:
            return None
        return b.edge_colors[(min(u, v), max(u, v))]

    if label(b1, 0) != label(b2, 0):
        return False

    # order g1 vertices by BFS from the root so each new vertex has a
    # mapped neighbor, keeping the partial-mapping checks tight
    order = _bfs_order(g1)
    mapping = {0: 0}
    _preimage = {0: 0}
    used = {0}

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if w in used:
                continue
            if g2.degree(w) != g1.degree(v) or d2[w] != d1[v] or label(b2, w) != label(b1, v):
                continue
            ok = True
            for u in g1.adjacency[v]:
                if u in mapping:
                    if not g2.has_edge(w, mapping[u]):
                        ok = False
                        break
                    if color(b1, v, u) != color(b2, w, mapping[u]):
                        ok = False
                        break
            if not ok:
                continue
            # no g2-edges from w back to mapped vertices that g1 lacks
            for u2 in g2.adjacency[w]:
                pre = _preimage.get(u2)
                if pre is not None and not g1.has_edge(v, pre):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            _preimage[w] = v
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            del _preimage[w]
            used.remove(w)
        return False

    return extend(1)


def _distances(g: Graph) -> list[int]:
    dist = [-1] * g.n
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _bfs_order(g: Graph) -> list[int]:
    seen = [False] * g.n
    order = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        i = len(order) - 1
        while i < len(order):
            for w in g.adjacency[order[i]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            i += 1
    return order


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Unrooted isomorphism: try every root image for vertex 0."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(map(len, g1.adjacency)) != sorted(map(len, g2.adjacency)):
        return False
    if g1.n == 0:
        return True
    b1 = RootedBall(g1, 0)
    for image in range(g2.n):
        swapped = _swap_to_front(g2, image)
        if g1.degree(0) != swapped.degree(0):
            continue
        if rooted_isomorphic(b1, RootedBall(swapped, 0)):
            return True
    return False


def _swap_to_front(g: Graph, v: int) -> Graph:
    if v == 0:
        return g
    perm = list(range(g.n))
    perm[0], perm[v] = perm[v], perm[0]
    adj = [[] for _ in range(g.n)]
    for a in range(g.n):
        adj[perm[a]] = sorted(perm[b] for b in g.adjacency[a])
    return from_adjacency(adj, g.degree_bound)


def enumerate_graphs_up_to_iso(max_n: int, max_degree: int) -> list[Graph]:
    """All graphs on 1..max_n vertices with degree <= max_degree, one per
    isomorphism class.

    Vertex-addition generation with dedup: bucket candidates by an
    isomorphism-invariant key, then decide equality inside each bucket by
    the brute-force search above.
    """
    levels: list[list[Graph]] = [[from_adjacency([[]], max_degree)]]
    out = list(levels[0])
    for n in range(2, max_n + 1):
        buckets: dict[tuple, list[Graph]] = {}
        fresh: list[Graph] = []
        for g in levels[-1]:
            open_slots = [v for v in range(g.n) if g.degree(v) < max_degree]
            for size in range(0, min(max_degree, len(open_slots)) + 1):
                for picks in itertools.combinations(open_slots, size):
                    adj = [list(a) for a in g.adjacency] + [list(picks)]
                    for p in picks:
                        adj[p].append(g.n)
                    cand = from_adjacency(adj, max_degree)
                    key = _invariant_key(cand)
                    group = buckets.setdefault(key, [])
                    if not any(graphs_isomorphic(cand, h) for h in group):
                        group.append(cand)
                        fresh.append(cand)
        levels.append(fresh)
        out.extend(fresh)
    return out


def connected_graphs_up_to_iso(max_n: int, max_degree: int) -> list[Graph]:
    from qhdecomp.graph import is_connected

    return [g for g in enumerate_graphs_up_to_iso(max_n, max_degree) if is_connected(g)]


def _invariant_key(g: Graph) -> tuple:
    # two rounds of neighborhood-degree refinement; isomorphism-invariant
    colors = [g.degree(v) for v in range(g.n)]
    for _ in range(2):
        colors = [
            hash((colors[v], tuple(sorted(colors[w] for w in g.adjacency[v]))))
            for v in range(g.n)
        ]
    return (g.n, g.edge_count(), tuple(sorted(colors)))


def count_subgraph_copies(pattern: Graph, host: Graph) -> int:
    """Number of subgraphs of ``host`` isomorphic to ``pattern``, counted by
    exhausting injective vertex maps and dividing by |Aut(pattern)|."""
    embeddings = _count_embeddings(pattern, host)
    auts = _count_embeddings(pattern, pattern)
    assert embeddings % auts == 0
    return embeddings // auts


def _count_embeddings(pattern: Graph, host: Graph) -> int:
    k = pattern.n
    count = 0
    for images in itertools.permutations(range(host.n), k):
        ok = True
        for u, v in pattern.edges():
            if not host.has_edge(images[u], images[v]):
                ok = False
                break
        if ok:
            count += 1
    return count


def agglomerate(g, codes, classes, K_max):
    """Merge signature classes, closest neighbor-code distributions first.

    Each class carries the multiset of codes seen across its members'
    neighbors; total-variation distance between the normalized multisets
    drives the merge order.  Ties break on smallest contained vertex id.

    Reference for ``decomposer._agglomerate``: every pairwise distance is
    recomputed, in ``Fraction`` arithmetic per code, on each merge.
    """
    clusters: list[list[int]] = []
    envs: list[dict[bytes, int]] = []
    for code in sorted(classes):
        members = classes[code]
        env: dict[bytes, int] = {}
        for v in members:
            for w in g.adjacency[v]:
                cw = codes[w]
                env[cw] = env.get(cw, 0) + 1
        clusters.append(list(members))
        envs.append(env)

    def tv(i, j):
        a, b = envs[i], envs[j]
        ta, tb = sum(a.values()), sum(b.values())
        if ta == 0 or tb == 0:
            return Fraction(1) if (ta or tb) else Fraction(0)
        acc = Fraction(0)
        for code in a.keys() | b.keys():
            acc += abs(Fraction(a.get(code, 0), ta) - Fraction(b.get(code, 0), tb))
        return acc / 2

    while len(clusters) > K_max:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                key = (tv(i, j), min(clusters[i]), min(clusters[j]))
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        clusters[i].extend(clusters[j])
        for code, cnt in envs[j].items():
            envs[i][code] = envs[i].get(code, 0) + cnt
        del clusters[j]
        del envs[j]
    return clusters


def evaluate(g: Graph, base: StatVector, subset, p: QuasihomParams) -> WitnessStats:
    sub, _ = spanned_subgraph(g, subset)
    value, tail = d_s(base, stat_vector(sub, p.R))
    return WitnessStats(
        size_fraction=Fraction(sub.n, g.n),
        boundary=boundary_edge_count(g, subset),
        ds_value=value,
        tail=tail,
        certified=value > p.delta + tail,
    )
