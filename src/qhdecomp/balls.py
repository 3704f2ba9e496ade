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

``census`` gives every vertex's codes and canonicalizes each kind of ball
once; it is the one loop of ``codes_at_radii`` over a whole graph.  Each
ball is found in one BFS pass (``_bfs``) that numbers the members by
(distance, id) and, walking each member's adjacency once, fills every
member's sorted row of neighbour ids.  The same pass finds the largest
radius at which the ball is a tree from its per-layer degree sums.  A ball
that is a tree is keyed by its root's AHU branch form (``BranchForms``, one
table per census, built with the census's labels and colours), so
isomorphic tree balls share one entry however they are numbered, and a
tree ball whose form is known needs no rows: the walk of its last layer,
which only completes rows, is left to ``_reindex``, which runs when rows
are needed.  Any other ball is keyed by the raw numbered ball: its rows,
labels and colours as tuples.  Either way the code bytes come from
``canonical_code`` run on the first ball of each key.

The raw-ball cache also maps ball keys (``_ball_key``) to codes, and
``canonical_code`` probes them after the raw key or tree form has missed:
first the key of the ball in ball order, before any search, then the key
of the search's first leaf, and only then does the search run in full.  A
ball key (a tuple that starts with the radius, where a raw key starts with
a tuple of radii) holds a ball's core in some root-first order with each
core vertex's pendant AHU form.  It is exact, not a hash: equal keys map
core to core with the root, adjacency, labels and colours kept, and the
forms fix every pendant tree.  So two numberings of a ball that differ
only inside pendant trees share their ball-order key, and a class of
non-tree balls pays one full search however its copies are numbered.  The
search orders its leaves by the same key, so the least leaf's key is
stored with the code.

``canonical_code`` strips pendant trees into AHU forms that carry their
sizes, refines the remaining core by splitters (each round recomputes only
the cells next to a cell that split in the round before, which gives the
partitions a full round gives) and searches it.  The code is the least
leaf's ball key written out in one pass (``_serialize``): the core in the
key's order, then the pendant trees in preorder of their forms.  A tree
ball is its one-head key, the root's form alone.  The writer reads only the
key, so the key alone decides the layout above.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from struct import pack, unpack

from .errors import FormatError, RadiusMismatchError, VertexSetMismatchError
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

    Host labels are a per-vertex int sequence (width ``label_width`` bits,
    0..255), one per vertex; host edge colors map every edge (u, v) with
    u < v to a small int.  Both are restricted to the ball.  Anything else
    is refused before the BFS.
    """
    if r < 0:
        raise RadiusMismatchError(f"ball radius {r} is negative")
    if not 0 <= x < g.n:
        raise VertexSetMismatchError(f"root {x} is not a vertex of a graph on {g.n}")
    _check_decorations(g, labels, label_width, edge_colors)
    rows, _, ball_labels, ups = _reindex(g, _bfs(g, x, r), labels, label_width, edge_colors)
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
            try:
                color = 0 if colors is None else colors[(u, w) if u < w else (w, u)]
            except KeyError as missing:
                raise FormatError(f"edge {missing.args[0]} has no colour") from None
            ids = self._ids
            form = self._edges[key] = ids.setdefault((k, self._label(w), color, *kids), len(ids))
        return form


def codes_at_radii(
    g: Graph, x: int, radii, labels=None, label_width: int = 0, edge_colors=None,
    cache: dict | None = None, forms: BranchForms | None = None,
) -> dict[int, bytes]:
    """Canonical codes of the balls around ``x`` for several radii at once.

    One BFS pass to max(radii) numbers the ball and fills its rows, which
    are completed and become tuples at most once, when a raw key or a ball
    needs them; smaller balls are prefixes of that ball.  ``cache`` may be
    shared across vertices and calls.  It maps a raw radius-r ball and the
    requested radii up to r to the codes at those radii (the ball
    determines every smaller ball), so one probe usually answers a call.
    On a miss the radii are walked down to the largest hit, and only the
    balls above it are canonicalized and stored; ``canonical_code`` also
    reads and fills ``cache`` as its table of ball keys.

    ``forms``, built for ``g`` with the same labels and colours, keys tree
    balls by their root form instead: the balls up to the largest tree
    radius the BFS finds take their codes from ``forms.codes`` and skip the
    raw cache, and when they are all the balls asked for and every form is
    known, the rows are never completed.

    The label width and the label count are checked here; colour coverage
    is checked by ``census``, which calls this once per vertex.  Called
    alone, it raises ``FormatError`` naming the first ball edge whose
    colour it reads and does not find.
    """
    rs = tuple(sorted(set(radii)))
    if not rs or rs[0] < 0:
        raise RadiusMismatchError(f"radii {rs} are not a nonempty set of integers >= 0")
    # the code format holds radii up to 255; refuse before keying a ball
    # by every smaller radius
    if rs[-1] > 0xFF:
        raise FormatError("radius too large to encode")
    if not 0 <= x < g.n:
        raise VertexSetMismatchError(f"root {x} is not a vertex of a graph on {g.n}")
    _check_decorations(g, labels, label_width, None)
    scan = _bfs(g, x, rs[-1])
    trees = 0 if forms is None else bisect_right(rs, scan[2])
    full = None
    codes: list[bytes] = []
    missed = []
    for i in range(len(rs) - 1, trees - 1, -1):
        full = full or _reindex(g, scan, labels, label_width, edge_colors)
        view = _prefix(full, rs[i])
        key = (rs[: i + 1], label_width) + view
        found = None if cache is None else cache.get(key)
        if found is not None:
            codes += found
            break
        missed.append((key, view))
    # the largest ball's colours serve every smaller ball: its ids are a
    # prefix, and canonicalization looks up only the ball's own edges
    colors = None
    for r in rs[len(codes):trees]:
        form = forms.root(x, r)
        code = forms.codes.get(form)
        if code is None:
            full = full or _reindex(g, scan, labels, label_width, edge_colors)
            colors = colors or _color_map(full[0], full[3])
            rows, ball_labels, _ = _prefix(full, r)
            code = canonical_code(_ball(g, rows, r, ball_labels, label_width, colors))
            forms.codes[form] = code
        codes.append(code)
    if missed:
        colors = colors or _color_map(full[0], full[3])
        for key, (rows, ball_labels, _) in reversed(missed):
            ball = _ball(g, rows, rs[len(codes)], ball_labels, label_width, colors)
            codes.append(canonical_code(ball, cache))
            if cache is not None:
                cache[key] = tuple(codes)
    return dict(zip(rs, codes))


def census(
    g: Graph, radii, labels=None, label_width: int = 0, edge_colors=None,
    cache: dict | None = None,
) -> list[tuple[bytes, ...]]:
    """Every vertex's codes at the sorted ``radii``, from one raw-ball
    cache and one ``BranchForms`` table shared by all vertices.

    ``cache`` is that raw-ball cache, a fresh dict unless one is passed.
    Its keys hold the whole numbered ball with its radii, label width,
    labels and colours, and nothing of the graph, so one cache may serve
    censuses of different graphs, labellings and colourings: a vertex whose
    ball is numbered alike in two graphs, as in a spanned subgraph and its
    host when no edge leaves the subset, is canonicalized once.

    The label width lies in 0..255, labels, when given, number one per
    vertex, and colours, when given, cover every edge; anything else is
    refused before the first ball.
    """
    _check_decorations(g, labels, label_width, edge_colors)
    if cache is None:
        cache = {}
    forms = BranchForms(g, labels, label_width, edge_colors)
    return [
        tuple(codes_at_radii(g, x, radii, labels, label_width, edge_colors, cache, forms).values())
        for x in range(g.n)
    ]


def _check_decorations(g: Graph, labels, label_width: int, edge_colors) -> None:
    """Refuse a label width outside 0..255, labels that do not number one
    per vertex and colours that miss an edge of ``g``."""
    if not 0 <= label_width <= 0xFF:
        raise FormatError(f"label width {label_width} outside 0..255")
    if labels is not None and len(labels) != g.n:
        raise VertexSetMismatchError(f"{len(labels)} labels for {g.n} vertices")
    if edge_colors is not None:
        for edge in g.edges():
            if edge not in edge_colors:
                raise FormatError(f"edge {edge} has no colour")


def _bfs(g: Graph, x: int, r: int) -> tuple[list[int], list[int], int, dict[int, list[int]]]:
    """One pass over the radius-r ball around ``x``: its members numbered
    by (distance, id); ``ends``: ``ends[d]`` members lie at distance < d;
    the largest s <= r whose ball is a tree; and each member's row of
    neighbour ball ids, keyed by host id, still without the ids of the
    members at distance r.

    The pass visits the members below distance r in id order, the root and
    then each layer sorted by host id, and walks each one's adjacency
    once.  The first time it meets a vertex it opens the vertex's row with
    the member's id and puts the vertex in the next layer; each later
    meeting appends the member's id.  So every row fills in ascending
    order.  The last layer's walk, which only appends to rows already
    open, is left to ``_reindex``: a tree ball whose form is known never
    needs its rows.

    The degree sum of layer d >= 1 counts its edges to layer d - 1 (at
    least one per member), twice its inner edges, and its edges to layer
    d + 1 (at least one per member there).  It equals the two layers' sizes
    exactly when each member of layers d and d + 1 has one parent and layer
    d has no inner edge.  While that holds for layers 1..d - 1, the ball to
    d is a tree exactly when layer d has no inner edge either, which is
    checked once, on the last such layer.
    """
    adj = g.adjacency
    row_of = {x: []}
    members = [x]
    ends = [0, 1]
    layer = top = [x]
    known = 0
    j = 0
    for d in range(r):
        nxt = []
        for v in layer:
            for w in adj[v]:
                row = row_of.get(w)
                if row is None:
                    row_of[w] = [j]
                    nxt.append(w)
                else:
                    row.append(j)
            j += 1
        nxt.sort()
        if known == d and (
            d == 0 or sum(map(len, map(adj.__getitem__, layer))) == len(layer) + len(nxt)
        ):
            known = d + 1
            top = nxt
        members += nxt
        ends.append(len(members))
        layer = nxt
    inner = set(top)
    if any(not inner.isdisjoint(adj[v]) for v in top):
        known -= 1
    return members, ends, known, row_of


def _reindex(g, scan, labels, label_width, edge_colors):
    """The ball of the ``_bfs`` result ``scan`` as tuples: its rows in id
    order, its ``ends``, the members' labels and, per row, the colours of
    its edges to higher ids (``None`` without labels or colours).

    It first walks the last layer, as ``_bfs`` walks the others, to append
    its ids to the scan's rows, so it runs at most once per scan.  Colours
    are read in one pass after the rows, and only when given."""
    members, ends, _, row_of = scan
    adj = g.adjacency
    for j in range(ends[-2], ends[-1]):
        for w in adj[members[j]]:
            row = row_of.get(w)
            if row is not None:
                row.append(j)
    rows = tuple(map(tuple, map(row_of.__getitem__, members)))
    mask = (1 << label_width) - 1
    ball_labels = None if labels is None else tuple([labels[v] & mask for v in members])
    colors = None
    if edge_colors is not None:
        ups = []
        at = members.__getitem__
        try:
            for i, (v, row) in enumerate(zip(members, rows)):
                # a row's ids ascend, so one look at its last tells whether
                # it has an upper edge; most rows in the last layer do not
                if row and row[-1] > i:
                    cs = []
                    for w in map(at, row[bisect_right(row, i):]):
                        cs.append(edge_colors[(v, w) if v < w else (w, v)])
                    ups.append(tuple(cs))
                else:
                    ups.append(())
        except KeyError as missing:
            raise FormatError(f"edge {missing.args[0]} has no colour") from None
        colors = tuple(ups)
    return rows, ends, ball_labels, colors


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
        for i, (row, cs) in enumerate(zip(rows, ups)) if cs
        for j, c in zip(row[-len(cs):], cs)
    }


def _ball(g, rows, r, labels, label_width, colors) -> RootedBall:
    return RootedBall(Graph(len(rows), rows, g.degree_bound), r, labels, label_width, colors)


def canonical_code(ball: RootedBall, known: dict | None = None) -> bytes:
    """Code bytes of ``ball``.

    ``known``, when given, maps ball keys (``_ball_key``) to codes.  A tree
    ball is written out at once from its one-head key, the root's form.  A
    ball with pendant trees is looked up by its ball key in ball order
    before any search; then the search (``_search``) probes the key of its
    first leaf and, on a miss there too, runs in full.  The ball-order key is stored with the code
    the search returns.  A ball with nothing stripped skips the ball-order
    probe, whose key would only restate the numbered ball.
    """
    if ball.graph.n > 0xFFFF:
        raise FormatError("ball too large to encode")
    if ball.radius > 0xFF:
        raise FormatError("radius too large to encode")
    labels = ball.labels
    if labels is not None:
        if not 0 <= ball.label_width <= 0xFF:
            raise FormatError(f"label width {ball.label_width} outside 0..255")
        if labels and not 0 <= min(labels) <= max(labels) < 1 << ball.label_width:
            raise FormatError(f"ball labels must lie in 0..{(1 << ball.label_width) - 1} "
                              f"to encode at width {ball.label_width}")
    colors = ball.edge_colors
    if colors and not 0 <= min(colors.values()) <= max(colors.values()) <= 0xFFFF:
        raise FormatError("edge colours must lie in 0..65535 to encode")
    core, dist, form = _strip_pendants(ball)
    if len(core) == 1:
        return _serialize(_ball_key(ball, core, form))
    if known is None or len(core) == ball.graph.n:
        return _search(ball, core, dist, form, known)
    key = _ball_key(ball, core, form)
    code = known.get(key)
    if code is None:
        code = known[key] = _search(ball, core, dist, form, known)
    return code


def _ball_key(ball: RootedBall, heads, form) -> tuple:
    """The radius, label width and flags of ``ball``, then per head, in the
    order of ``heads`` (core vertices, root first), its form and its sorted
    later heads by position, each paired with the edge's colour when the
    ball has colours.

    Equal keys give isomorphic balls: the root is head 0 in both, matching
    positions preserve adjacency, labels and colours, and each form fixes
    the pendant trees hung on its head.  So a key may stand for the code,
    whichever root-first order of the core it was built in.  Its first item
    is an int, where a raw key's is a tuple of radii, so the two never meet.
    """
    nbrs = ball.graph.adjacency
    labels, colors = ball.labels, ball.edge_colors
    pos = {v: p for p, v in enumerate(heads)}
    key = [
        ball.radius,
        ball.label_width if labels is not None else 0,
        (labels is not None) | (colors is not None) << 1,
    ]
    for p, v in enumerate(heads):
        ups = [w for w in nbrs[v] if pos.get(w, -1) > p]
        key.append(form[v])
        key.append(tuple(sorted(
            [pos[w] for w in ups] if colors is None
            else [(pos[w], colors[(v, w) if v < w else (w, v)]) for w in ups]
        )))
    return tuple(key)


# --- canonicalization -------------------------------------------------------
#
# Pendant trees are stripped and folded into attachment-vertex labels via
# their AHU forms, so backtracking only ever runs on the 2-core (plus the
# root and its path to the core).  A tree ball strips down to the root and
# needs no search at all.  The canonical order is the core in the order of
# the least leaf's ball key, then each core vertex's pendant trees in
# preorder of its form, so the code is written from that key alone.
#
# The core is coloured by distance and pendant forms, then refined to an
# equitable partition.  Each refinement round ranks vertices by their old
# colour, then by their sorted neighbour colours, but recomputes the
# neighbour signatures only of cells next to a cell that split in the round
# before (McKay 1981; McKay and Piperno 2014): a cell with no such neighbour
# sees its neighbours' colours renamed in order, so it cannot split.  Each
# round therefore yields the same ordered partition as a full round.

def _strip_pendants(ball: RootedBall):
    """Core vertices, distances from the root, and AHU forms of ``ball``.

    A vertex's form is ``(label, ((edge colour, child form), ...), size)``
    over its stripped children in canonical order, ``size`` being the
    vertex count of its pendant subtree.  The size is fixed by the label
    and the children, so it never decides a comparison between forms.
    """
    g = ball.graph
    n = g.n
    nbrs = g.adjacency
    labels = ball.labels
    colors = ball.edge_colors

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
    # stripped when it is reached.  hang[v] collects (edge color, form) for
    # the stripped children of v; the root is never stripped.
    hang: list[list[tuple]] = [[] for _ in range(n)]
    form: list[tuple] = [()] * n
    stripped = [False] * n
    for v in reversed(bfs):
        kids = hang[v]
        size = 1
        if kids:
            kids.sort()
            for _, f in kids:
                size += f[2]
        form[v] = (labels[v] if labels is not None else 0, tuple(kids), size)
        p = parent[v]
        if p >= 0 and len(nbrs[v]) - len(kids) == 1:
            hang[p].append((0 if colors is None else colors[(p, v) if p < v else (v, p)], form[v]))
            stripped[v] = True
    return [v for v in range(n) if not stripped[v]], dist, form


def _search(ball: RootedBall, core, dist, form, known) -> bytes:
    """Code of ``ball``: the least ball key (``_ball_key``) over the
    leaves of the individualization-refinement search tree, written out by
    ``_serialize``.

    Each position of every leaf holds a vertex of the same initial
    (distance, form) cell, so forms never decide between leaves; keys
    compare by adjacency and colours alone.  With ``known``, the key of the
    first leaf the search reaches is probed, and a hit ends the search.
    After a full search ``known`` maps the first and the least leaf's keys
    to the code.  A first refinement that is already discrete has one leaf,
    so it is not probed.
    """
    nbrs = ball.graph.adjacency
    colors = ball.edge_colors
    core_pos = {v: i for i, v in enumerate(core)}
    k = len(core)
    core_nbrs = [[core_pos[w] for w in nbrs[v] if w in core_pos] for v in core]
    core_ecol = None if colors is None else [
        [colors[(v, w) if v < w else (w, v)] for w in nbrs[v] if w in core_pos] for v in core
    ]

    # a core vertex's form is its label plus its sorted pendant forms
    init = [(dist[v], form[v]) for v in core]
    ranks = {key: i for i, key in enumerate(sorted(set(init)))}
    coloring = [ranks[key] for key in init]

    # the least key and its order; the first leaf's key, when probed
    best: list = [None, None]
    first: list = [None]
    autos: list[tuple[int, ...]] = []

    def search(cols, prefix) -> bool:
        """Search below ``cols``; True once the first leaf's key is known."""
        counts = Counter(cols)
        target = None
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target is None:
            order = sorted(range(k), key=cols.__getitem__)
            key = _ball_key(ball, [core[i] for i in order], form)
            if best[0] is None:
                first[0] = key
                if known is not None and key in known:
                    return True
            if best[0] is None or key < best[0]:
                best[:] = key, order
            elif key == best[0] and len(autos) < _MAX_AUTOMORPHISMS:
                ref = best[1]
                sigma = [0] * k
                for i in range(k):
                    sigma[ref[i]] = order[i]
                autos.append(tuple(sigma))
            return False
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
            # individualize v: its cell is the only one that split
            out = [2 * c + 1 for c in cols]
            out[v] = 2 * target
            if search(_refine(out, core_nbrs, core_ecol, cell), prefix + (v,)):
                return True
        return False

    cols = _refine(coloring, core_nbrs, core_ecol)
    if len(set(cols)) == k:
        known = None  # a single leaf: nothing to save
    found = search(cols, ())
    # ``search`` refers to itself: unbinding it frees its closure, with the
    # ball and the cache it holds, now instead of at the next collection
    search = None
    if found:
        return known[first[0]]
    code = _serialize(best[0])
    if known is not None:
        known[first[0]] = known[best[0]] = code
    return code


def _refine(cols, nbrs, ecols=None, split=None) -> list[int]:
    """Equitable refinement of the colouring ``cols``.

    Every round gives each vertex the rank of (its colour, the sorted
    colours of its neighbours, each paired with the edge's colour when
    ``ecols`` holds them), until a round splits no cell.  Returns ``cols``
    itself when the first round splits nothing, else the ranks of the last
    round.  ``split`` lists the vertices of the cells that split just before
    this call (``None``: any cell may split); only cells next to them are
    recomputed in the first round, and only cells next to a cell that split
    in each later round.
    """
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(cols):
        groups.setdefault(c, []).append(i)
    cells = [groups[c] for c in sorted(groups)]
    cell = [0] * len(cols)
    for c, members in enumerate(cells):
        for i in members:
            cell[i] = c
    dirty = range(len(cells)) if split is None else {cell[j] for i in split for j in nbrs[i]}
    out = cols
    while True:
        parts = {}
        for c in dirty:
            members = cells[c]
            if len(members) == 1:
                continue
            sigs: dict[tuple, list[int]] = {}
            for i in members:
                if ecols is None:
                    sig = tuple(sorted([cell[j] for j in nbrs[i]]))
                else:
                    sig = tuple(sorted(zip(ecols[i], [cell[j] for j in nbrs[i]])))
                sigs.setdefault(sig, []).append(i)
            if len(sigs) > 1:
                parts[c] = [sigs[sig] for sig in sorted(sigs)]
        if not parts:
            return out
        # cells keep their order, a split cell's parts take its place, and
        # the cells from the first split on are renumbered
        lo = min(parts)
        renumbered = cells[:lo]
        for c in range(lo, len(cells)):
            renumbered += parts.get(c) or (cells[c],)
        cells = renumbered
        for c in range(lo, len(cells)):
            for i in cells[c]:
                cell[i] = c
        out = cell
        dirty = {cell[j] for c in parts for part in parts[c] for i in part for j in nbrs[i]}


# --- serialization -----------------------------------------------------------

def _serialize(key: tuple) -> bytes:
    """Code bytes of a ball key (``_ball_key``) written out: the heads in
    key order, then each head's pendant trees in preorder of their forms.
    A head's upper neighbours are its later heads, as the key lists them,
    then its pendant children; a pendant vertex's are its children.  Each
    child comes right after the subtree of the child before.  Every
    non-head vertex lies in a head's pendant tree, so the heads' form sizes
    sum to the vertex count."""
    radius, width, flags = key[:3]
    forms = key[3::2]
    n = sum([f[2] for f in forms])
    out = bytearray((_TAG, radius, n & 0xFF, n >> 8, flags, width))
    label_stream: list[int] = []
    color_stream: list[int] = []
    q = len(forms)
    pendants: list[tuple] = []
    for (label, kids, _), later in zip(forms, key[4::2]):
        label_stream.append(label)
        if flags & 2:
            ups = [u for u, _ in later]
            color_stream += [c for _, c in later]
        else:
            ups = list(later)
        for ec, f in kids:
            ups.append(q)
            q += f[2]
            color_stream.append(ec)
            pendants.append(f)
        out.append(len(ups))
        out += pack(f"<{len(ups)}H", *ups)
    pendants.reverse()
    p = len(forms)
    while pendants:
        label, kids, _ = pendants.pop()
        p += 1
        label_stream.append(label)
        out.append(len(kids))
        if kids:
            ups = []
            q = p
            for ec, f in kids:
                ups.append(q)
                q += f[2]
                color_stream.append(ec)
            out += pack(f"<{len(ups)}H", *ups)
            pendants += reversed([f for _, f in kids])
    if flags & 1:
        nbytes = (width + 7) // 8
        shift = nbytes * 8 - width
        for label in label_stream:
            out += (label << shift).to_bytes(nbytes, "big")
    if flags & 2:
        out += pack(f"<{len(color_stream)}H", *color_stream)
    return bytes(out)


def decode_code(code: bytes) -> RootedBall:
    """Reconstruct a RootedBall from its canonical code bytes.

    Raises ``FormatError`` when ``_read_code`` refuses the bytes or they
    are not ``canonical_code`` of the ball they describe, so every ball has
    exactly one accepted byte string, its code."""
    ball = _read_code(code)
    if canonical_code(ball) != code:
        raise FormatError("ball code does not number its core in canonical order and "
                          "then its pendant trees in preorder of their forms")
    return ball


def _read_code(code: bytes) -> RootedBall:
    """The ball that ``code`` writes out, canonical or not.

    Raises ``FormatError`` when the bytes are no ball's code: the header
    has no vertex, sets a flag bit above bit 1 or a label width without the
    label flag; a field runs past the end of the bytes, or bytes trail the
    last field; a vertex v's upper ids are not strictly ascending within
    v < u < n (as every code lists them); a label sets a padding bit; a
    vertex lies beyond the radius from the root, vertex 0; or the bytes are
    not what ``_serialize`` writes for the ball's key in the decoded order
    of its core.  A ball with a core of more than the root is accepted in
    any root-first order of its core, which is how the key table's
    first-leaf and ball-order keys write out."""
    if len(code) < 6 or code[0] != _TAG:
        raise FormatError("not a ball code")
    radius = code[1]
    n = int.from_bytes(code[2:4], "little")
    flags = code[4]
    width = code[5]
    if n == 0:
        raise FormatError("ball code has no vertex")
    if flags > 3:
        raise FormatError(f"ball code flags {flags:#04x} set a bit above bit 1")
    if width and not flags & 1:
        raise FormatError(f"ball code has label width {width} but no labels")
    has_labels = bool(flags & 1)
    has_colors = bool(flags & 2)
    pos = 6

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(code):
            raise FormatError(f"ball code of {len(code)} bytes is truncated")
        pos += size
        return code[pos - size : pos]

    adj: list[list[int]] = [[] for _ in range(n)]
    edge_order: list[tuple[int, int]] = []
    for v in range(n):
        cnt = take(1)[0]
        prev = v
        for u in unpack(f"<{cnt}H", take(2 * cnt)):
            if not prev < u < n:
                raise FormatError(f"vertex {v} lists upper id {u} out of order "
                                  f"or outside {v + 1}..{n - 1}")
            prev = u
            adj[v].append(u)
            adj[u].append(v)
            edge_order.append((v, u))
    labels = None
    if has_labels:
        nbytes = (width + 7) // 8
        shift = nbytes * 8 - width
        padded = [int.from_bytes(take(nbytes), "big") for _ in range(n)]
        if any(label & ((1 << shift) - 1) for label in padded):
            raise FormatError(f"a {width}-bit label sets a padding bit")
        labels = tuple(label >> shift for label in padded)
    colors = None
    if has_colors:
        colors = {(v, u): int.from_bytes(take(2), "little") for v, u in edge_order}
    if pos != len(code):
        raise FormatError("trailing bytes in ball code")
    layer, reached = [0], {0}
    for _ in range(radius):
        layer = [u for v in layer for u in adj[v] if u not in reached]
        reached.update(layer)
    if len(reached) < n:
        raise FormatError(f"{n - len(reached)} of {n} vertices lie beyond radius {radius} "
                          "of the root")
    # degree bound of the decoded local graph: actual max degree
    maxdeg = max((len(a) for a in adj), default=0)
    ball = RootedBall(
        from_adjacency(adj, maxdeg), radius, labels, width if has_labels else 0, colors
    )
    core, _, form = _strip_pendants(ball)
    if _serialize(_ball_key(ball, core, form)) != code:
        raise FormatError("ball code does not number its core first and then its "
                          "pendant trees in preorder of their forms")
    return ball


def strip_decorations(code: bytes) -> bytes:
    """Canonical code of the same ball with labels and colors removed."""
    ball = decode_code(code)
    plain = RootedBall(ball.graph, ball.radius, None, 0, None)
    return canonical_code(plain)
