"""Deterministic and seeded graph families with known local statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .errors import InfeasibleSpecError, RetryExhaustedError
from .graph import Graph, from_adjacency, validate
from .stats import StatVector, d_s, stat_vector

SWAP_CAP_FACTOR = 100


@dataclass(frozen=True)
class FamilySpec:
    """Construction recipe; identical specs produce bit-identical graphs.

    ``params`` carries the numeric arguments of the kind:
      cycle: (n,)            path: (n,)         grid_torus: (rows, cols)
      random_regular: (n, d) d_ary_tree: (arity, depth)
    Union kinds use ``parts`` (sub-specs) instead; bridged_union joins the
    first two parts with ``bridges`` seeded random edges.
    """

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = ()
    bridges: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InfeasibleSpecError(f"unknown family kind {self.kind!r}")
        arity = _KINDS[self.kind][1]
        if len(self.params) != arity:
            raise InfeasibleSpecError(
                f"{self.kind} takes {arity} params, got {len(self.params)}"
            )

    def __eq__(self, other):
        # pairs of parts wait on a stack, so nesting depth costs no frames
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if ((a.kind, a.params, a.bridges, a.seed, len(a.parts))
                    != (b.kind, b.params, b.bridges, b.seed, len(b.parts))):
                return False
            stack += zip(a.parts, b.parts)
        return True

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.params:
            doc["params"] = list(self.params)
        if self.parts:
            doc["parts"] = [p.to_json() for p in self.parts]
        if self.kind == "bridged_union":
            doc["bridges"] = self.bridges
        if self.kind in ("random_regular", "bridged_union"):
            doc["seed"] = self.seed
        return doc


@dataclass(frozen=True)
class GeneratedGraph:
    """A generated graph plus planted-truth bookkeeping for union kinds."""

    graph: Graph
    blocks: tuple[tuple[int, int], ...] = ()
    bridge_edges: tuple[tuple[int, int], ...] = ()


def generate(spec: FamilySpec) -> Graph:
    try:
        return generate_detailed(spec).graph
    except RecursionError:
        raise InfeasibleSpecError(f"{spec.kind} spec nested too deeply to generate") from None


def generate_detailed(spec: FamilySpec) -> GeneratedGraph:
    out = _KINDS[spec.kind][0](spec)
    g = out.graph
    for v in range(g.n):
        assert g.degree(v) <= g.degree_bound
    return out


def _cycle(spec: FamilySpec) -> GeneratedGraph:
    (n,) = spec.params
    if n < 3:
        raise InfeasibleSpecError("cycle needs n >= 3")
    return GeneratedGraph(validate([(i, (i + 1) % n) for i in range(n)], n, 2))


def _path(spec: FamilySpec) -> GeneratedGraph:
    (n,) = spec.params
    if n < 1:
        raise InfeasibleSpecError("path needs n >= 1")
    return GeneratedGraph(validate([(i, i + 1) for i in range(n - 1)], n, 2))


def _grid_torus(spec: FamilySpec) -> GeneratedGraph:
    rows, cols = spec.params
    if rows < 3 or cols < 3:
        raise InfeasibleSpecError("grid_torus needs both sides >= 3")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            edges.append((v, ((i + 1) % rows) * cols + j))
            edges.append((v, i * cols + (j + 1) % cols))
    return GeneratedGraph(validate(edges, rows * cols, 4))


def _d_ary_tree(spec: FamilySpec) -> GeneratedGraph:
    arity, depth = spec.params
    if arity < 1 or depth < 0:
        raise InfeasibleSpecError("d_ary_tree needs arity >= 1, depth >= 0")
    edges = []
    level = [0]
    nxt = 1
    for _ in range(depth):
        fresh = []
        for p in level:
            for _ in range(arity):
                edges.append((p, nxt))
                fresh.append(nxt)
                nxt += 1
        level = fresh
    return GeneratedGraph(validate(edges, nxt, arity + 1))


def _random_regular(spec: FamilySpec) -> GeneratedGraph:
    n, d = spec.params
    if n * d % 2 != 0:
        raise InfeasibleSpecError("random_regular needs n*d even")
    if d >= n:
        raise InfeasibleSpecError("random_regular needs d < n")
    rng = Random(spec.seed)
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
    edges: set[tuple[int, int]] = set()
    bad: list[tuple[int, int]] = []
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        if u == v or key in edges:
            bad.append((u, v))
        else:
            edges.add(key)
    # repair loops/multi-edges by seeded double-edge swaps
    swaps = 0
    cap = SWAP_CAP_FACTOR * n
    pool = sorted(edges)
    while bad:
        u, v = bad.pop()
        placed = False
        while not placed:
            swaps += 1
            if swaps > cap:
                raise RetryExhaustedError("edge-swap repair budget exhausted")
            a, b = pool[rng.randrange(len(pool))]
            # rewire (a,b) + stub pair (u,v) into (u,a) and (v,b)
            k1 = (min(u, a), max(u, a))
            k2 = (min(v, b), max(v, b))
            if u == a or v == b or k1 in edges or k2 in edges or k1 == k2:
                continue
            edges.remove((a, b))
            pool.remove((a, b))
            edges.add(k1)
            edges.add(k2)
            pool.append(k1)
            pool.append(k2)
            placed = True
    return GeneratedGraph(validate(edges, n, d))


def _disjoint_union(spec: FamilySpec) -> GeneratedGraph:
    if not spec.parts:
        raise InfeasibleSpecError("disjoint_union needs parts")
    return _union_blocks(spec.parts)


def _union_blocks(parts) -> GeneratedGraph:
    adj: list[list[int]] = []
    blocks = []
    dmax = 0
    offset = 0
    for sub in parts:
        g = generate_detailed(sub).graph
        for v in range(g.n):
            adj.append([w + offset for w in g.adjacency[v]])
        blocks.append((offset, offset + g.n))
        offset += g.n
        dmax = max(dmax, g.degree_bound)
    return GeneratedGraph(from_adjacency(adj, dmax), tuple(blocks))


def _bridged_union(spec: FamilySpec) -> GeneratedGraph:
    if len(spec.parts) != 2:
        raise InfeasibleSpecError("bridged_union needs exactly two parts")
    base = _union_blocks(spec.parts)
    (a0, a1), (b0, b1) = base.blocks
    if spec.bridges > min(a1 - a0, b1 - b0):
        raise InfeasibleSpecError("more bridges than vertices on a side")
    rng = Random(spec.seed)
    left = rng.sample(range(a0, a1), spec.bridges)
    right = rng.sample(range(b0, b1), spec.bridges)
    adj = [list(nbrs) for nbrs in base.graph.adjacency]
    bridge_edges = []
    for u, v in zip(left, right):
        adj[u].append(v)
        adj[v].append(u)
        bridge_edges.append((min(u, v), max(u, v)))
    g = from_adjacency(adj, base.graph.degree_bound + 1)
    return GeneratedGraph(g, base.blocks, tuple(sorted(bridge_edges)))


# each kind's maker and the number of params it takes; union kinds take
# parts instead
_KINDS = {
    "cycle": (_cycle, 1),
    "path": (_path, 1),
    "grid_torus": (_grid_torus, 2),
    "random_regular": (_random_regular, 2),
    "d_ary_tree": (_d_ary_tree, 2),
    "disjoint_union": (_disjoint_union, 0),
    "bridged_union": (_bridged_union, 0),
}


@dataclass
class SequenceReport:
    R: int
    sizes: list[int]
    stats: list[StatVector]
    pairwise: dict[tuple[int, int], Fraction]
    tail: Fraction
    consecutive_nonincreasing: bool = False
    consecutive: list[Fraction] = field(default_factory=list)


def sequence(specs: list[FamilySpec], R: int) -> SequenceReport:
    """StatVectors per spec, the pairwise d_s table, and the trend of
    consecutive distances."""
    if len(specs) < 2:
        raise InfeasibleSpecError("sequence needs at least two specs")
    graphs = [generate(s) for s in specs]
    stats = [stat_vector(g, R) for g in graphs]
    pairwise: dict[tuple[int, int], Fraction] = {}
    tail = Fraction(1, 2 ** R)
    for i in range(len(stats)):
        for j in range(i + 1, len(stats)):
            pairwise[(i, j)] = d_s(stats[i], stats[j])[0]
    consecutive = [pairwise[(i, i + 1)] for i in range(len(stats) - 1)]
    trend = all(b <= a for a, b in zip(consecutive, consecutive[1:]))
    return SequenceReport(
        R, [g.n for g in graphs], stats, pairwise, tail, trend, consecutive
    )
