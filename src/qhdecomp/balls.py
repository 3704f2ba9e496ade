"""Rooted balls and canonical codes.

A rooted ball is the induced subgraph on all vertices within distance r of
a root, re-indexed so the root is vertex 0.  ``canonical_code`` maps a ball
to a byte string that two balls share exactly when they are isomorphic by a
root-preserving (and label/color-preserving, when present) isomorphism.

Code byte layout (all integers little-endian):

    0      tag byte 0x51
    1      radius (<= 255)
    2-3    vertex count n (uint16)
    4      flags: bit0 = vertex labels present, bit1 = edge colors present
    5      label width in bits (0 when unlabeled)
    next   adjacency: for each vertex v in canonical order, one byte with
           the number of neighbors u > v, then those ids as uint16 ascending
    next   labels: per vertex, ceil(k/8) bytes, bits MSB-first (if present)
    next   colors: one uint16 per upper-adjacency entry, in emission order
           (if present)

The root is always canonical vertex 0.  The layout decodes uniquely, so
distinct structures always produce distinct codes; equal structures produce
equal codes by the canonicalization below.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .errors import FormatError
from .graph import Graph, from_adjacency

_TAG = 0x51
_MAX_AUTOMORPHISMS = 64


@dataclass
class RootedBall:
    """Local graph re-indexed with root = vertex 0."""

    graph: Graph
    radius: int
    labels: tuple[int, ...] | None = None
    label_width: int = 0
    edge_colors: dict[tuple[int, int], int] | None = None

    @property
    def n(self) -> int:
        return self.graph.n


def extract_ball(
    g: Graph,
    x: int,
    r: int,
    labels=None,
    label_width: int = 0,
    edge_colors=None,
) -> RootedBall:
    """Induced subgraph on {y : d_G(x,y) <= r}, rooted at x.

    Host labels are a per-vertex int sequence (width ``label_width`` bits);
    host edge colors map (u, v) with u < v to small ints.  Both are
    restricted to the ball.
    """
    members, layer = _bfs_members(g, x, r)
    return _ball_from_members(g, members, r, layer, labels, label_width, edge_colors)


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
            out[r] = canonical_code(ball)
        else:
            key = _raw_key(ball)
            code = cache.get(key)
            if code is None:
                code = canonical_code(ball)
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


def canonical_code(ball: RootedBall) -> bytes:
    g = ball.graph
    n = g.n
    if n > 0xFFFF:
        raise FormatError("ball too large to encode")
    if ball.radius > 0xFF:
        raise FormatError("radius too large to encode")
    return _serialize(ball, _canonical_order(ball))


def _raw_key(ball: RootedBall):
    colors = ball.edge_colors
    return (
        ball.radius,
        ball.graph.adjacency,
        ball.labels,
        ball.label_width,
        None if colors is None else tuple(sorted(colors.items())),
    )


# --- canonicalization -------------------------------------------------------
#
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
            return colors[(min(u, v), max(u, v))]

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

    if colors is None:
        def refine(cols):
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
    else:
        core_ecol = [
            [ecol(core[i], core[j]) for j in core_nbrs[i]] for i in range(k)
        ]

        def refine(cols):
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

    def individualize(cols, i):
        out = [2 * c + 1 for c in cols]
        out[i] = 2 * cols[i]
        return refine(out)

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
            elif data == best[0] and len(autos) < _MAX_AUTOMORPHISMS:
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

    search(refine(coloring), ())
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
            stack.extend(c for _, _, c in reversed(hang[v]))
    return order


# --- serialization -----------------------------------------------------------

def _serialize(ball: RootedBall, order: list[int]) -> bytes:
    g = ball.graph
    n = g.n
    pos = [0] * n
    for p, old in enumerate(order):
        pos[old] = p
    flags = 0
    if ball.labels is not None:
        flags |= 1
    if ball.edge_colors is not None:
        flags |= 2
    out = bytearray()
    out.append(_TAG)
    out.append(ball.radius)
    out += n.to_bytes(2, "little")
    out.append(flags)
    out.append(ball.label_width if ball.labels is not None else 0)

    color_stream: list[int] = []
    for p in range(n):
        old = order[p]
        ups = sorted(pos[w] for w in g.adjacency[old] if pos[w] > p)
        out.append(len(ups))
        for q in ups:
            out += q.to_bytes(2, "little")
            if ball.edge_colors is not None:
                a, b = order[p], order[q]
                color_stream.append(ball.edge_colors[(min(a, b), max(a, b))])
    if ball.labels is not None:
        k = ball.label_width
        nbytes = (k + 7) // 8
        for p in range(n):
            out += (ball.labels[order[p]] << (nbytes * 8 - k)).to_bytes(
                nbytes, "big"
            )
    for c in color_stream:
        out += c.to_bytes(2, "little")
    return bytes(out)


def decode_code(code: bytes) -> RootedBall:
    """Reconstruct a RootedBall from its canonical code bytes."""
    if len(code) < 6 or code[0] != _TAG:
        raise FormatError("not a ball code")
    radius = code[1]
    n = int.from_bytes(code[2:4], "little")
    flags = code[4]
    width = code[5]
    has_labels = bool(flags & 1)
    has_colors = bool(flags & 2)
    pos = 6
    adj: list[list[int]] = [[] for _ in range(n)]
    edge_order: list[tuple[int, int]] = []
    for v in range(n):
        cnt = code[pos]
        pos += 1
        for _ in range(cnt):
            u = int.from_bytes(code[pos : pos + 2], "little")
            pos += 2
            adj[v].append(u)
            adj[u].append(v)
            edge_order.append((v, u))
    labels = None
    if has_labels:
        nbytes = (width + 7) // 8
        vals = []
        for _ in range(n):
            raw = int.from_bytes(code[pos : pos + nbytes], "big")
            vals.append(raw >> (nbytes * 8 - width))
            pos += nbytes
        labels = tuple(vals)
    colors = None
    if has_colors:
        colors = {}
        for v, u in edge_order:
            c = int.from_bytes(code[pos : pos + 2], "little")
            pos += 2
            colors[(min(v, u), max(v, u))] = c
    if pos != len(code):
        raise FormatError("trailing bytes in ball code")
    # degree bound of the decoded local graph: actual max degree
    maxdeg = max((len(a) for a in adj), default=0)
    return RootedBall(
        from_adjacency(adj, maxdeg), radius, labels, width if has_labels else 0, colors
    )


def strip_decorations(code: bytes) -> bytes:
    """Canonical code of the same ball with labels and colors removed."""
    ball = decode_code(code)
    plain = RootedBall(ball.graph, ball.radius, None, 0, None)
    return canonical_code(plain)
