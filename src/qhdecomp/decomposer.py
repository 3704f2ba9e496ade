"""Partition engine: ball-signature clustering with a theorem-style verifier.

``decompose`` is a heuristic.  It groups vertices by their radius-M ball
codes, agglomerates the signature classes into at most K_max clusters by
similarity of their neighborhood code distributions, smooths the cut, and
deletes the remaining cross edges.  ``verify_partition`` then judges the
result against the decomposition conditions: few deleted edges, an
edgeless small leftover part, big-or-empty parts, and quasihomogeneous
parts.  Soundness lives entirely in the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import balls
from .errors import EmptyGraphError, InconsistentPartitionError, KMismatchError
from .graph import Graph, delete_edges, spanned_subgraph
from .quasihom import VIOLATED, QuasihomParams, QuasihomVerdict, check_exact, falsify_heuristic
from .stats import StatVector, d_s, mixture, stat_vector, tv_numerator

SMOOTHING_MOVE_FACTOR = 10

THRESHOLD_THEOREM = "theorem"
THRESHOLD_PROOF = "proof"


@dataclass(frozen=True)
class Partition:
    """Part assignment per vertex: 0 is the edgeless leftover part, parts
    1..K are the real pieces.  ``deleted_edges`` must be exactly the host
    edges joining different parts or lying inside part 0."""

    n: int
    assignment: tuple[int, ...]
    K: int
    deleted_edges: tuple[tuple[int, int], ...]

    def part_vertices(self, i: int) -> list[int]:
        return [v for v in range(self.n) if self.assignment[v] == i]

    def part_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for a in self.assignment:
            sizes[a] = sizes.get(a, 0) + 1
        return sizes


def _check_assignment(g: Graph, p: Partition) -> None:
    """``g`` must be nonempty, and ``p`` must assign each of its vertices
    to the leftover part 0 or to one of the parts 1..K, with K <= n."""
    if g.n == 0:
        raise EmptyGraphError("partition conditions of the empty graph are undefined")
    if p.n != g.n or len(p.assignment) != g.n:
        raise InconsistentPartitionError("partition host size mismatch")
    if p.K > g.n:
        # every check loops over the parts 1..K
        raise InconsistentPartitionError(f"K = {p.K} parts for {g.n} vertices")
    for v, i in enumerate(p.assignment):
        if not 0 <= i <= p.K:
            raise InconsistentPartitionError(f"vertex {v} is in part {i}, outside 0..{p.K}")


def required_deletions(g: Graph, assignment) -> set[tuple[int, int]]:
    """Edges a partition must delete: cross-part edges and edges whose
    endpoints both sit in the leftover part."""
    out = set()
    for u, v in g.edges():
        au, av = assignment[u], assignment[v]
        if au != av or au == 0:
            out.add((u, v))
    return out


def part_size_threshold(delta: Fraction, d: int, K: int, mode: str) -> Fraction:
    if mode == THRESHOLD_THEOREM:
        return delta * delta / (10 * d * K)
    if mode == THRESHOLD_PROOF:
        return delta / (10 * d * K)
    raise ValueError(f"unknown threshold mode {mode!r}")


def decompose(
    g: Graph,
    delta: Fraction,
    lam: Fraction,
    K_max: int,
    M: int,
    seed: int = 0,
    threshold_mode: str = THRESHOLD_THEOREM,
) -> Partition:
    """Signature clustering followed by smoothing, deletion, absorption."""
    if K_max < 1:
        raise KMismatchError(f"K_max must be at least 1, got {K_max}")
    n = g.n
    if n == 0:
        return Partition(0, (), 0, ())
    codes = [code for (code,) in balls.census(g, (M,))]
    classes: dict[bytes, list[int]] = {}
    for v, code in enumerate(codes):
        classes.setdefault(code, []).append(v)
    clusters = _agglomerate(g, codes, classes, K_max)

    # normalize part ids by smallest contained vertex
    clusters.sort(key=min)
    assignment = [0] * n
    for i, members in enumerate(clusters, start=1):
        for v in members:
            assignment[v] = i
    _smooth(g, assignment)
    deleted = sorted(required_deletions(g, assignment))
    partition = Partition(n, tuple(assignment), len(clusters), tuple(deleted))
    return absorb_small_parts(g, partition, delta, threshold_mode)


def _agglomerate(g, codes, classes, K_max):
    """Merge signature classes, closest neighbor-code distributions first.

    Each class carries the multiset of codes seen across its members'
    neighbors; total-variation distance between the normalized multisets
    drives the merge order.  The pair with the least key
    ``(tv, min of lower-index cluster, min of higher-index cluster)``
    merges; the merged cluster keeps the lower index.  Clusters are
    disjoint, so no two pairs share a key and the merge order does not
    depend on scan order.

    Cost for C classes: O(C^2) distance evaluations up front, one per pair,
    then O(C) per merge, since only the merged cluster's row changes.  Each
    merge still scans the O(C^2) cached keys for the least one; each key
    leads with the float of its tv, so that scan compares floats and
    reaches the exact tv only on float ties.
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
    if len(clusters) <= K_max:
        return clusters
    totals = [sum(env.values()) for env in envs]
    firsts = [min(members) for members in clusters]

    def pair_key(i, j):
        a, b, ta, tb = envs[i], envs[j], totals[i], totals[j]
        if ta == 0 or tb == 0:
            tv = Fraction(1) if (ta or tb) else Fraction(0)
        else:
            tv = Fraction(tv_numerator(a, ta, b, tb), 2 * ta * tb)
        # a Fraction's float is correctly rounded, so float order never
        # contradicts exact order, and the exact tv breaks float ties
        return (float(tv), tv, firsts[i], firsts[j], i, j)

    live = list(range(len(clusters)))
    keys = {(i, j): pair_key(i, j) for i in live for j in live if i < j}
    while len(live) > K_max:
        *_, i, j = min(keys.values())
        clusters[i].extend(clusters[j])
        for code, cnt in envs[j].items():
            envs[i][code] = envs[i].get(code, 0) + cnt
        totals[i] += totals[j]
        firsts[i] = min(firsts[i], firsts[j])
        live.remove(j)
        del keys[(i, j)]
        for k in live:
            if k != i:
                del keys[(min(k, j), max(k, j))]
                pair = (min(k, i), max(k, i))
                keys[pair] = pair_key(*pair)
    return [clusters[k] for k in live]


def _smooth(g: Graph, assignment: list[int]) -> int:
    """Move vertices whose strict neighbor majority lies in another part.

    Ascending-id sweeps; capped at SMOOTHING_MOVE_FACTOR * n moves.
    """
    cap = SMOOTHING_MOVE_FACTOR * g.n
    moves = 0
    changed = True
    while changed and moves < cap:
        changed = False
        for v in range(g.n):
            if moves >= cap:
                break
            deg = g.degree(v)
            if deg == 0:
                continue
            votes: dict[int, int] = {}
            for w in g.adjacency[v]:
                votes[assignment[w]] = votes.get(assignment[w], 0) + 1
            target = min(
                (part for part, cnt in votes.items() if 2 * cnt > deg),
                default=None,
            )
            if target is not None and target != assignment[v]:
                assignment[v] = target
                moves += 1
                changed = True
    return moves


def absorb_small_parts(
    g: Graph,
    p: Partition,
    delta: Fraction,
    threshold_mode: str = THRESHOLD_THEOREM,
) -> Partition:
    """Delete the internal edges of every below-threshold part of ``p`` (the
    threshold taken at ``p.K`` parts) and move its vertices into the
    leftover part.  Idempotent."""
    _check_assignment(g, p)
    threshold = part_size_threshold(delta, g.degree_bound, p.K, threshold_mode)
    sizes = p.part_sizes()
    doomed = {
        i
        for i, size in sizes.items()
        if i != 0 and Fraction(size, g.n) <= threshold
    }
    if not doomed:
        return p
    assignment = [0 if a in doomed else a for a in p.assignment]
    deleted = set(p.deleted_edges) | required_deletions(g, assignment)
    return Partition(p.n, tuple(assignment), p.K, tuple(sorted(deleted)))


@dataclass
class PartConditions:
    part: int
    size: int
    fraction: Fraction
    big_enough: bool
    quasihom: QuasihomVerdict | None


@dataclass
class PartitionVerdict:
    passed: bool
    deleted_ok: bool
    deleted_count: int
    deleted_budget: Fraction
    empty_part_ok: bool
    empty_fraction: Fraction
    sizes_ok: bool
    size_threshold: Fraction
    parts_quasihom_ok: bool
    parts: list[PartConditions] = field(default_factory=list)


MODE_EXACT = "exact"
MODE_HEURISTIC = "heuristic"


def verify_partition(
    g: Graph,
    p: Partition,
    delta: Fraction,
    lam: Fraction,
    epsilon: Fraction,
    R: int,
    mode: str = MODE_HEURISTIC,
    threshold_mode: str = THRESHOLD_THEOREM,
    budget: int = 2000,
    seed: int = 0,
) -> PartitionVerdict:
    """Check the four decomposition conditions at the declared strength."""
    if mode not in (MODE_EXACT, MODE_HEURISTIC):
        raise ValueError(f"unknown verification mode {mode!r}")
    _check_assignment(g, p)
    host_edges = set(g.edges())
    stored = set(p.deleted_edges)
    if not stored <= host_edges:
        raise InconsistentPartitionError("deleted edge not in host graph")
    if stored != required_deletions(g, p.assignment):
        raise InconsistentPartitionError(
            "deleted edges differ from cross-part and leftover-part edges"
        )

    m = g.edge_count()
    deleted_budget = delta * m
    deleted_ok = len(stored) <= deleted_budget

    sizes = p.part_sizes()
    empty_fraction = Fraction(sizes.get(0, 0), g.n)
    empty_part_ok = empty_fraction < delta

    threshold = part_size_threshold(delta, g.degree_bound, p.K, threshold_mode)
    qp = QuasihomParams(epsilon, lam, delta, R)
    parts: list[PartConditions] = []
    sizes_ok = True
    parts_quasihom_ok = True
    for i in range(1, p.K + 1):
        size = sizes.get(i, 0)
        if size == 0:
            continue
        fraction = Fraction(size, g.n)
        big = fraction > threshold
        sizes_ok = sizes_ok and big
        sub, _ = spanned_subgraph(g, p.part_vertices(i))
        if mode == MODE_EXACT:
            verdict = check_exact(sub, qp)
        else:
            verdict = falsify_heuristic(sub, qp, budget, seed + i)
        parts_quasihom_ok = parts_quasihom_ok and verdict.status != VIOLATED
        parts.append(PartConditions(i, size, fraction, big, verdict))

    passed = deleted_ok and empty_part_ok and sizes_ok and parts_quasihom_ok
    return PartitionVerdict(
        passed,
        deleted_ok,
        len(stored),
        deleted_budget,
        empty_part_ok,
        empty_fraction,
        sizes_ok,
        threshold,
        parts_quasihom_ok,
        parts,
    )


@dataclass
class SplitItem:
    n: int
    cross_edge_ratio: Fraction
    part_fractions: dict[int, Fraction]
    mixture_exact: bool
    part_stats: dict[int, StatVector]


@dataclass
class SplittingReport:
    K: int
    R: int
    items: list[SplitItem]
    cross_ratio_nonincreasing: bool
    part_drift: dict[int, list[Fraction]]


def splitting_diagnostics(seq: list[tuple[Graph, Partition]], R: int) -> SplittingReport:
    """Per-sequence-element splitting quantities plus the exact mixture
    identity: the statistics of the post-deletion graph equal the
    size-weighted mixture of part statistics, with zero tolerance.

    One raw-ball cache serves every census here.  A spanned subgraph keeps
    its members' id order, so a vertex has the same numbered ball in its
    part as in the post-deletion graph when no edge joins two parts, and
    that graph's census then finds every non-tree ball in the parts'."""
    if not seq:
        raise KMismatchError("empty sequence")
    K = seq[0][1].K
    if any(p.K != K for _, p in seq):
        raise KMismatchError("partitions disagree on K")
    items: list[SplitItem] = []
    cache: dict = {}
    for g, p in seq:
        _check_assignment(g, p)
        if stored_mismatch := (set(p.deleted_edges) - set(g.edges())):
            raise InconsistentPartitionError(f"alien deleted edges: {stored_mismatch}")
        h = delete_edges(g, p.deleted_edges)
        sizes = p.part_sizes()
        fractions = {
            i: Fraction(sizes.get(i, 0), g.n) for i in range(0, K + 1)
        }
        part_stats: dict[int, StatVector] = {}
        weighted = []
        for i in range(0, K + 1):
            members = p.part_vertices(i)
            if not members:
                continue
            sub, _ = spanned_subgraph(h, members)
            s = stat_vector(sub, R, cache=cache)
            part_stats[i] = s
            weighted.append((fractions[i], s))
        mixed = mixture(weighted)
        whole = stat_vector(h, R, cache=cache)
        exact = mixed.radii == whole.radii
        cross = Fraction(len(p.deleted_edges), g.n)
        items.append(SplitItem(g.n, cross, fractions, exact, part_stats))
    ratios = [it.cross_edge_ratio for it in items]
    trend = all(b <= a for a, b in zip(ratios, ratios[1:]))
    drift: dict[int, list[Fraction]] = {}
    for i in range(1, K + 1):
        vals: list[Fraction] = []
        for a, b in zip(items, items[1:]):
            if i in a.part_stats and i in b.part_stats:
                vals.append(d_s(a.part_stats[i], b.part_stats[i])[0])
        drift[i] = vals
    return SplittingReport(K, R, items, trend, drift)
