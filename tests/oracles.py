"""Independent brute-force oracles used by the test suite.

Nothing here touches the canonicalization or counting paths under test:
isomorphism is decided by exhaustive backtracking over vertex bijections,
and graph enumeration/deduplication relies on that backtracking only.
``agglomerate`` is the plain merge loop that the partition engine's cached
``_agglomerate`` must reproduce cluster for cluster, and ``evaluate`` the
whole-StatVector subset evaluation that ``quasihom``'s shared evaluator must
reproduce field for field.  ``anneal_chain`` is the annealing chain with
``Random.randrange`` draws and an ``energy`` helper that the inlined
``quasihom._anneal_chain`` must reproduce draw for draw.  ``total_variation``
and ``d_s`` add one ``Fraction`` per code, the distance that ``stats.d_s``
must reproduce over integer counts.  ``codes_at_radii`` is the per-radius ball
extraction (one ``Graph`` and one raw cache key per radius) that the one-probe
``balls.codes_at_radii`` must reproduce code for code and canonicalization
for canonicalization; it calls ``balls.canonical_code`` itself, since only
extraction and caching differ between the two.  ``canonical_code`` and
``refine`` are the canonicalizer that ``balls.canonical_code`` must reproduce
byte for byte, with every refinement round recomputing every cell.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from fractions import Fraction
from math import exp
from struct import pack

from qhdecomp import balls
from qhdecomp.balls import RootedBall
from qhdecomp.errors import FormatError, RadiusMismatchError
from qhdecomp.graph import Graph, boundary_edge_count, from_adjacency, spanned_subgraph
from qhdecomp.quasihom import QuasihomParams, WitnessStats
from qhdecomp.stats import StatVector, stat_vector


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


def total_variation(p: dict[bytes, Fraction], q: dict[bytes, Fraction]) -> Fraction:
    acc = Fraction(0)
    for code in p.keys() | q.keys():
        acc += abs(p.get(code, Fraction(0)) - q.get(code, Fraction(0)))
    return acc / 2


def d_s(a: StatVector, b: StatVector) -> tuple[Fraction, Fraction]:
    """Distance value and the tail bound covering all radii beyond R."""
    if a.R != b.R:
        raise RadiusMismatchError(f"mismatched radii: {a.R} vs {b.R}")
    value = Fraction(0)
    for r in range(1, a.R + 1):
        value += Fraction(1, 2 ** r) * total_variation(a.at(r), b.at(r))
    return value, Fraction(1, 2 ** a.R)


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


def anneal_chain(g, p, s_min, b_max, iterations, rng):
    n = g.n
    adj = g.adjacency
    member = [rng.random() < float(p.lam) + 0.1 for _ in range(n)]
    size = sum(member)
    # cut[v]: neighbours of v on the other side of the cut, kept up to date
    cut = [sum(member[w] != member[v] for w in adj[v]) for v in range(n)]
    boundary = sum(cut) // 2
    eval_stride = max(1, iterations // 25)

    def energy(sz, bd):
        return g.degree_bound * max(0, s_min - sz) + max(0, bd - b_max)

    current = energy(size, boundary)
    randrange, uniform = rng.randrange, rng.random
    temp0 = 2.0
    for it in range(iterations):
        # bias flips toward cut-adjacent vertices without rebuilding the cut
        v = randrange(n)
        for _ in range(5):
            if uniform() < 0.2 or cut[v]:
                break
            v = randrange(n)
        # flipping v moves its cut edges inside and its other edges onto the cut
        new_size = size - 1 if member[v] else size + 1
        new_boundary = boundary + len(adj[v]) - 2 * cut[v]
        new_energy = energy(new_size, new_boundary)
        delta_e = new_energy - current
        # only an uphill move draws: the RNG stream is part of every verdict
        if delta_e <= 0:
            accept = True
        else:
            temp = temp0 * (0.01 / temp0) ** (it / max(1, iterations - 1))
            accept = uniform() < exp(-delta_e / max(temp, 1e-9))
        if accept:
            side = member[v] = not member[v]
            cut[v] = len(adj[v]) - cut[v]
            for w in adj[v]:
                cut[w] += 1 if member[w] != side else -1
            size, boundary, current = new_size, new_boundary, new_energy
        if (
            it % eval_stride == 0
            and size >= s_min
            and boundary <= b_max
            and size < n
        ):
            yield [u for u in range(n) if member[u]]


def codes_at_radii(
    g: Graph,
    x: int,
    radii,
    labels=None,
    label_width: int = 0,
    edge_colors=None,
    cache: dict | None = None,
) -> dict[int, bytes]:
    """Canonical codes of the balls around ``x`` for several radii at once.

    One BFS to max(radii); smaller balls are prefixes of the member list.
    ``cache`` maps raw extraction keys to codes and may be shared across
    vertices of the same census.
    """
    rmax = max(radii)
    members, layer = _bfs_members(g, x, rmax)
    out = {}
    for r in sorted(set(radii)):
        cut = len(members)
        while cut > 0 and layer[members[cut - 1]] > r:
            cut -= 1
        ball = _ball_from_members(
            g, members[:cut], r, layer, labels, label_width, edge_colors
        )
        if cache is None:
            out[r] = balls.canonical_code(ball)
        else:
            key = _raw_key(ball)
            code = cache.get(key)
            if code is None:
                code = balls.canonical_code(ball)
                cache[key] = code
            out[r] = code
    return out


def _bfs_members(g: Graph, x: int, r: int):
    layer = {x: 0}
    order = [x]
    queue = deque([x])
    while queue:
        v = queue.popleft()
        dv = layer[v]
        if dv >= r:
            continue
        for w in g.adjacency[v]:
            if w not in layer:
                layer[w] = dv + 1
                order.append(w)
                queue.append(w)
    order.sort(key=lambda v: (layer[v], v))
    return order, layer


def _ball_from_members(g, members, r, layer, labels, label_width, edge_colors):
    index = {old: new for new, old in enumerate(members)}
    adj: list[list[int]] = [[] for _ in members]
    colors: dict[tuple[int, int], int] | None = None if edge_colors is None else {}
    for old in members:
        new = index[old]
        for w in g.adjacency[old]:
            if w in index:
                nw = index[w]
                adj[new].append(nw)
                if edge_colors is not None and new < nw:
                    key = (min(old, w), max(old, w))
                    colors[(new, nw)] = edge_colors[key]
    ball_labels = None
    if labels is not None:
        mask = (1 << label_width) - 1
        ball_labels = tuple(labels[old] & mask for old in members)
    return RootedBall(
        from_adjacency(adj, g.degree_bound), r, ball_labels, label_width, colors
    )


def _raw_key(ball: RootedBall):
    colors = ball.edge_colors
    return (
        ball.radius,
        ball.graph.adjacency,
        ball.labels,
        ball.label_width,
        None if colors is None else tuple(sorted(colors.items())),
    )


# --- the full-round canonicalizer --------------------------------------------
#
# ``canonical_code`` below recomputes every cell in every refinement round
# (``refine``), puts every ball, tree or not, in order with
# ``_expand_pendants`` and writes it with ``_serialize``.
# ``balls.canonical_code`` must reproduce its bytes.


def canonical_code(ball: RootedBall) -> bytes:
    if ball.graph.n > 0xFFFF:
        raise FormatError("ball too large to encode")
    if ball.radius > 0xFF:
        raise FormatError("radius too large to encode")
    return _serialize(ball, _canonical_order(ball))


# Pendant trees are stripped and folded into attachment-vertex labels via
# their AHU forms, so backtracking only ever runs on the 2-core (plus the
# root and its path to the core).  A tree ball strips down to the root and
# needs no search at all.

def _canonical_order(ball: RootedBall) -> list[int]:
    g = ball.graph
    n = g.n
    nbrs = g.adjacency
    labels = ball.labels
    colors = ball.edge_colors

    if colors is None:
        def ecol(u, v):
            return 0
    else:
        def ecol(u, v):
            return colors[(u, v) if u < v else (v, u)]

    dist = [n + 1] * n
    dist[0] = 0
    parent = [-1] * n
    bfs = [0]
    for v in bfs:
        for w in nbrs[v]:
            if dist[w] > n:
                dist[w] = dist[v] + 1
                parent[w] = v
                bfs.append(w)
    if len(bfs) < n:
        # unreachable vertices have no parent, so they stay in the core
        bfs += [v for v in range(n) if dist[v] > n]

    # A pendant vertex lies farther from the root than its attachment
    # vertex, so in reverse BFS order its own pendant children are already
    # stripped when it is reached.  hang[v] collects (edge color, form,
    # child) for the stripped children of v; the root is never stripped.
    # Sorting breaks ties by child id only between equal forms, i.e.
    # isomorphic subtrees, so the tie-break never reaches the code bytes.
    hang: list[list[tuple]] = [[] for _ in range(n)]
    form: list[tuple] = [()] * n
    stripped = [False] * n
    for v in reversed(bfs):
        kids = hang[v]
        kids.sort()
        form[v] = (
            labels[v] if labels is not None else 0,
            tuple((ec, f) for ec, f, _ in kids),
        )
        p = parent[v]
        if p >= 0 and len(nbrs[v]) - len(kids) == 1:
            hang[p].append((ecol(p, v), form[v], v))
            stripped[v] = True

    core = [v for v in range(n) if not stripped[v]]
    if len(core) == 1:
        return _expand_pendants(core, hang)
    core_pos = {v: i for i, v in enumerate(core)}
    k = len(core)
    core_nbrs: list[list[int]] = [[] for _ in range(k)]
    for v in core:
        for w in nbrs[v]:
            if not stripped[w]:
                core_nbrs[core_pos[v]].append(core_pos[w])

    # a core vertex's form is its label plus its sorted pendant forms
    init = [(dist[v], form[v]) for v in core]
    ranks = {key: i for i, key in enumerate(sorted(set(init)))}
    coloring = [ranks[init[i]] for i in range(k)]
    init_rank = tuple(coloring)

    core_ecol = None if colors is None else [
        [ecol(core[i], core[j]) for j in core_nbrs[i]] for i in range(k)
    ]

    def individualize(cols, i):
        out = [2 * c + 1 for c in cols]
        out[i] = 2 * cols[i]
        return refine(out, core_nbrs, core_ecol)

    def candidate_bytes(order):
        # core adjacency + edge colors + initial ranks under the order;
        # ties are exactly label/color-respecting core automorphisms
        pos = [0] * k
        for p, i in enumerate(order):
            pos[i] = p
        rows = []
        for p in range(k):
            i = order[p]
            ups = sorted(
                (pos[j], ecol(core[i], core[j]))
                for j in core_nbrs[i]
                if pos[j] > p
            )
            rows.append((init_rank[i], tuple(ups)))
        return tuple(rows)

    best: list = [None, None]
    autos: list[tuple[int, ...]] = []

    def search(cols, prefix):
        counts = Counter(cols)
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            order = sorted(range(k), key=cols.__getitem__)
            data = candidate_bytes(order)
            if best[0] is None or data < best[0]:
                best[0] = data
                best[1] = order
            elif data == best[0] and len(autos) < balls._MAX_AUTOMORPHISMS:
                ref = best[1]
                sigma = [0] * k
                for i in range(k):
                    sigma[ref[i]] = order[i]
                autos.append(tuple(sigma))
            return
        cell = [i for i in range(k) if cols[i] == target]
        tried: list[int] = []
        for v in cell:
            skip = False
            for sigma in autos:
                if any(sigma[p] != p for p in prefix):
                    continue
                if any(sigma[u] == v for u in tried):
                    skip = True
                    break
            if skip:
                continue
            tried.append(v)
            search(individualize(cols, v), prefix + (v,))

    search(refine(coloring, core_nbrs, core_ecol), ())
    return _expand_pendants([core[i] for i in best[1]], hang)


def _expand_pendants(heads: list[int], hang) -> list[int]:
    """``heads`` followed by their pendant trees, depth-first, in canonical
    attachment order."""
    order = list(heads)
    for h in heads:
        stack = [c for _, _, c in reversed(hang[h])]
        while stack:
            v = stack.pop()
            order.append(v)
            if hang[v]:
                stack.extend([c for _, _, c in reversed(hang[v])])
    return order


def _serialize(ball: RootedBall, order: list[int]) -> bytes:
    g = ball.graph
    n = g.n
    labels, colors = ball.labels, ball.edge_colors
    pos = [0] * n
    for p, old in enumerate(order):
        pos[old] = p
    flags = (labels is not None) | (colors is not None) << 1
    width = ball.label_width if labels is not None else 0
    out = bytearray((balls._TAG, ball.radius, n & 0xFF, n >> 8, flags, width))
    color_stream: list[int] = []
    for p, old in enumerate(order):
        ups = sorted([q for q in map(pos.__getitem__, g.adjacency[old]) if q > p])
        out.append(len(ups))
        out += pack(f"<{len(ups)}H", *ups)
        if colors is not None:
            for u in map(order.__getitem__, ups):
                color_stream.append(colors[(old, u) if old < u else (u, old)])
    if labels is not None:
        nbytes = (width + 7) // 8
        for old in order:
            out += (labels[old] << (nbytes * 8 - width)).to_bytes(nbytes, "big")
    out += pack(f"<{len(color_stream)}H", *color_stream)
    return bytes(out)


def refine(cols, core_nbrs, core_ecol):
    """Colour refinement with every cell recomputed in every round: ranks of
    (colour, sorted neighbour colours), to a fixed point."""
    k = len(cols)
    if core_ecol is None:
        ncls = len(set(cols))
        while True:
            keys = [
                (cols[i], tuple(sorted(cols[j] for j in core_nbrs[i])))
                for i in range(k)
            ]
            uniq = sorted(set(keys))
            if len(uniq) == ncls:
                return cols
            mapping = {key: i for i, key in enumerate(uniq)}
            cols = [mapping[key] for key in keys]
            ncls = len(uniq)
    ncls = len(set(cols))
    while True:
        keys = []
        for i in range(k):
            ec = core_ecol[i]
            sig = sorted(
                (ec[t], cols[j]) for t, j in enumerate(core_nbrs[i])
            )
            keys.append((cols[i], tuple(sig)))
        uniq = sorted(set(keys))
        if len(uniq) == ncls:
            return cols
        mapping = {key: i for i, key in enumerate(uniq)}
        cols = [mapping[key] for key in keys]
        ncls = len(uniq)
