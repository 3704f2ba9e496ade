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

A census (``codes_at_radii`` over every vertex) canonicalizes each kind of
ball once.  A ball that is a tree is keyed by its root's AHU branch form
(``BranchForms``, one table per decorated graph), so isomorphic tree balls
share one entry however they are numbered; any other ball is keyed by the
raw numbered ball.  Either way the code bytes come from ``canonical_code``
run on the first ball of each key.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from struct import pack

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
    g: Graph, x: int, r: int, labels=None, label_width: int = 0, edge_colors=None
) -> RootedBall:
    """Induced subgraph on {y : d_G(x,y) <= r}, rooted at x.

    Host labels are a per-vertex int sequence (width ``label_width`` bits);
    host edge colors map (u, v) with u < v to small ints.  Both are
    restricted to the ball.
    """
    rows, _, ball_labels, ups = _reindex(g, x, r, labels, label_width, edge_colors)
    return _ball(g, rows, r, ball_labels, label_width, _color_map(rows, ups))


class BranchForms:
    """AHU branch forms of one graph under fixed labels and edge colours,
    interned as ints and filled lazily (Aho, Hopcroft and Ullman 1974).

    The form of the directed edge ``(u, w)`` at depth k is the id of the
    tuple ``(k, label of w, colour of uw, *sorted forms of (w, y) at depth
    k - 1 for y != u)``.  The radius-r form of a root x is the tuple ``(r,
    label of x, *sorted forms of (x, w) at depth r - 1)``.  Two roots share
    a radius-r form exactly when their depth-r unfoldings (non-backtracking
    walks from the root, as a rooted tree) are isomorphic, and a ball that
    is a tree is its unfolding.  ``codes`` maps the root form of a tree
    ball to its canonical code.
    """

    def __init__(self, g: Graph, labels=None, label_width: int = 0, edge_colors=None):
        self._adj = g.adjacency
        self._labels = labels
        self._mask = (1 << label_width) - 1
        self._colors = edge_colors
        self._ids: dict[tuple, int] = {}
        self._edges: dict[tuple[int, int, int], int] = {}
        self.codes: dict[tuple, bytes] = {}

    def _label(self, v: int) -> int:
        return 0 if self._labels is None else self._labels[v] & self._mask

    def root(self, x: int, r: int) -> tuple:
        if r == 0:
            return (0, self._label(x))
        return (r, self._label(x), *sorted([self._edge(x, w, r - 1) for w in self._adj[x]]))

    def _edge(self, u: int, w: int, k: int) -> int:
        key = (u, w, k)
        form = self._edges.get(key)
        if form is None:
            kids = sorted([self._edge(w, y, k - 1) for y in self._adj[w] if y != u]) if k else ()
            colors = self._colors
            color = 0 if colors is None else colors[(u, w) if u < w else (w, u)]
            ids = self._ids
            form = self._edges[key] = ids.setdefault((k, self._label(w), color, *kids), len(ids))
        return form


def codes_at_radii(
    g: Graph, x: int, radii, labels=None, label_width: int = 0, edge_colors=None,
    cache: dict | None = None, forms: BranchForms | None = None,
) -> dict[int, bytes]:
    """Canonical codes of the balls around ``x`` for several radii at once.

    One BFS and one reindexing to max(radii); smaller balls are prefixes
    of that ball.  ``cache`` may be shared across vertices and calls.  It
    maps a raw radius-r ball and the requested radii up to r to the codes
    at those radii (the ball determines every smaller ball), so one probe
    usually answers a call.  On a miss the radii are walked down to the
    largest hit, and only the balls above it are canonicalized and stored.

    ``forms``, built for ``g`` with the same labels and colours, keys tree
    balls by their root form instead: once the walk down reaches a tree
    ball, it and every smaller ball take their codes from ``forms.codes``
    and skip the raw cache.
    """
    rs = tuple(sorted(set(radii)))
    full = _reindex(g, x, rs[-1], labels, label_width, edge_colors)
    codes: list[bytes] = []
    missed = []
    trees = 0
    for i in range(len(rs) - 1, -1, -1):
        view = _prefix(full, rs[i])
        rows = view[0]
        if forms is not None and sum(map(len, rows)) == 2 * len(rows) - 2:
            # a connected ball with |B| - 1 edges is a tree, and so is
            # every smaller ball around the same root
            trees = i + 1
            break
        key = (rs[: i + 1], label_width) + view
        found = None if cache is None else cache.get(key)
        if found is not None:
            codes += found
            break
        missed.append((key, view))
    # the largest ball's colours serve every smaller ball: its ids are a
    # prefix, and canonicalization looks up only the ball's own edges
    colors = None
    for r in rs[:trees]:
        form = forms.root(x, r)
        code = forms.codes.get(form)
        if code is None:
            colors = colors or _color_map(full[0], full[3])
            rows, ball_labels, _ = _prefix(full, r)
            code = canonical_code(_ball(g, rows, r, ball_labels, label_width, colors))
            forms.codes[form] = code
        codes.append(code)
    if missed:
        colors = colors or _color_map(full[0], full[3])
        for key, (rows, ball_labels, _) in reversed(missed):
            ball = _ball(g, rows, rs[len(codes)], ball_labels, label_width, colors)
            codes.append(canonical_code(ball))
            if cache is not None:
                cache[key] = tuple(codes)
    return dict(zip(rs, codes))


def _bfs(g: Graph, x: int, r: int) -> tuple[dict[int, int], list[int]]:
    """Host -> ball index of the radius-r ball around ``x``, numbered by
    (distance, id), and ``ends``: ``ends[d]`` members lie at distance < d."""
    adj = g.adjacency
    index = {x: 0}
    ends = [0, 1]
    layer = (x,)
    for _ in range(r):
        layer = sorted({w for v in layer for w in adj[v]}.difference(index))
        for w in layer:
            index[w] = len(index)
        ends.append(len(index))
    return index, ends


def _reindex(g, x, r, labels, label_width, edge_colors):
    """Sorted neighbour-id rows of the radius-r ball around ``x``, the
    ``ends`` of ``_bfs``, the members' labels and, per row, the colours of
    its edges to higher ids (``None`` without labels or colours)."""
    index, ends = _bfs(g, x, r)
    adj = g.adjacency
    # visiting members in id order appends each row's ids in sorted order
    rows: list = [[] for _ in index]
    ups: list | None = None if edge_colors is None else [[] for _ in index]
    for j, v in enumerate(index):
        for w in adj[v]:
            i = index.get(w)
            if i is not None:
                rows[i].append(j)
                if ups is not None and i < j:
                    ups[i].append(edge_colors[(w, v) if w < v else (v, w)])
    mask = (1 << label_width) - 1
    ball_labels = None if labels is None else tuple(labels[v] & mask for v in index)
    colors = None if ups is None else tuple(map(tuple, ups))
    return tuple(map(tuple, rows)), ends, ball_labels, colors


def _prefix(full, s):
    """Rows, labels and upper-edge colours of the radius-s ball, the first
    ``ends[s + 1]`` members of the ``_reindex`` ball ``full``: only the
    rows at distance s change, losing their ids past the cut."""
    rows, ends, labels, colors = full
    lo, hi = ends[s], ends[s + 1]
    if hi == len(rows):
        return rows, labels, colors
    shell = rows[lo:hi]
    cut = tuple(row[: bisect_left(row, hi)] for row in shell)
    if colors is not None:
        # a row's upper colours go with the tail of its ids
        colors = colors[:lo] + tuple(
            cs[: len(cs) - len(row) + len(short)]
            for row, short, cs in zip(shell, cut, colors[lo:hi])
        )
    return rows[:lo] + cut, None if labels is None else labels[:hi], colors


def _color_map(rows, ups):
    """Ball edge (i, j), i < j -> colour, from rows and upper-edge colours."""
    return None if ups is None else {
        (i, j): c
        for i, (row, cs) in enumerate(zip(rows, ups))
        for j, c in zip(row[len(row) - len(cs):], cs)
    }


def _ball(g, rows, r, labels, label_width, colors) -> RootedBall:
    return RootedBall(Graph(len(rows), rows, g.degree_bound), r, labels, label_width, colors)


def canonical_code(ball: RootedBall) -> bytes:
    if ball.graph.n > 0xFFFF:
        raise FormatError("ball too large to encode")
    if ball.radius > 0xFF:
        raise FormatError("radius too large to encode")
    return _serialize(ball, _canonical_order(ball))


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
            if hang[v]:
                stack.extend([c for _, _, c in reversed(hang[v])])
    return order


# --- serialization -----------------------------------------------------------

def _serialize(ball: RootedBall, order: list[int]) -> bytes:
    g = ball.graph
    n = g.n
    labels, colors = ball.labels, ball.edge_colors
    pos = [0] * n
    for p, old in enumerate(order):
        pos[old] = p
    flags = (labels is not None) | (colors is not None) << 1
    width = ball.label_width if labels is not None else 0
    out = bytearray((_TAG, ball.radius, n & 0xFF, n >> 8, flags, width))
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
