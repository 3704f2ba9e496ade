"""Exact and heuristic testing of (epsilon, lambda, delta)-quasihomogeneity.

A graph fails the property when some spanned subgraph H covers at least a
lambda fraction of the vertices, is separated by at most epsilon*n edges,
and still has statistical distance above delta from the whole graph.  The
distance is evaluated at radius R with the 2^{-R} tail added to delta
before a violation is certified, so certificates stay valid for the full
(all-radii) metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, exp, floor
from random import Random

import numpy as np

from . import balls
from .errors import TooLargeForExactError
from .graph import Graph, boundary_edge_count, spanned_subgraph
from .stats import StatVector, d_s, stat_vector

EXHAUSTIVE_CAP = 20

HOLDS_EXACT = "holds_exact"
NO_VIOLATION = "no_violation_found"
VIOLATED = "violated"


@dataclass(frozen=True)
class QuasihomParams:
    epsilon: Fraction
    lam: Fraction
    delta: Fraction
    R: int

    def __post_init__(self):
        if not 0 < self.lam < 1:
            raise ValueError("lambda must lie in (0,1)")
        if self.epsilon <= 0 or self.delta <= 0:
            raise ValueError("epsilon and delta must be positive")
        if not self.epsilon < self.delta:
            raise ValueError("epsilon must be smaller than delta")
        if self.R < 1:
            raise ValueError("R must be at least 1")


@dataclass
class WitnessStats:
    size_fraction: Fraction
    boundary: int
    ds_value: Fraction
    tail: Fraction
    certified: bool


@dataclass
class QuasihomVerdict:
    status: str
    witness: tuple[int, ...] | None = None
    witness_stats: WitnessStats | None = None
    near_misses: int = 0
    candidates_checked: int = 0


def _size_threshold(p: QuasihomParams, n: int) -> int:
    """Smallest integer size satisfying |S| >= lambda * n."""
    return max(1, ceil(Fraction(p.lam * n)))


def _boundary_budget(p: QuasihomParams, n: int) -> int:
    """Largest integer boundary satisfying boundary <= epsilon * n."""
    return floor(Fraction(p.epsilon * n))


def _evaluate(g: Graph, base: StatVector, subset, p: QuasihomParams) -> WitnessStats:
    sub, _ = spanned_subgraph(g, subset)
    value, tail = d_s(base, stat_vector(sub, p.R))
    return WitnessStats(
        size_fraction=Fraction(sub.n, g.n),
        boundary=boundary_edge_count(g, subset),
        ds_value=value,
        tail=tail,
        certified=value > p.delta + tail,
    )


def check_exact(g: Graph, p: QuasihomParams, cap: int = EXHAUSTIVE_CAP) -> QuasihomVerdict:
    """Enumerate every vertex subset; first certified violation wins.

    Subsets are scanned in ascending bitmask order.  Candidates whose
    distance exceeds delta but not delta + tail are counted as
    uncertified near misses and do not stop the scan.
    """
    n = g.n
    if n > cap:
        raise TooLargeForExactError(f"{n} vertices > exhaustive cap {cap}")
    base = stat_vector(g, p.R)
    s_min = _size_threshold(p, n)
    b_max = _boundary_budget(p, n)

    masks = np.arange(1 << n, dtype=np.uint64)
    sizes = np.bitwise_count(masks)
    boundary = np.zeros(1 << n, dtype=np.int64)
    full = np.uint64((1 << n) - 1)
    for v in range(n):
        adj_mask = np.uint64(sum(1 << w for w in g.adjacency[v]))
        in_s = (masks >> np.uint64(v)) & np.uint64(1)
        out_nbrs = np.bitwise_count(np.bitwise_and(np.bitwise_xor(masks, full), adj_mask))
        boundary += in_s.astype(np.int64) * out_nbrs.astype(np.int64)
    qualifying = np.flatnonzero((sizes >= s_min) & (boundary <= b_max))

    near = 0
    checked = 0
    for mask in qualifying:
        subset = [v for v in range(n) if (int(mask) >> v) & 1]
        stats = _evaluate(g, base, subset, p)
        checked += 1
        if stats.certified:
            return QuasihomVerdict(VIOLATED, tuple(subset), stats, near, checked)
        if stats.ds_value > p.delta:
            near += 1
    return QuasihomVerdict(HOLDS_EXACT, None, None, near, checked)


def verify_certificate(
    g: Graph, subset, p: QuasihomParams
) -> tuple[bool, WitnessStats]:
    """Re-evaluate the three defining conditions plus the certified margin."""
    subset = sorted(set(subset))
    if not subset:
        return False, WitnessStats(Fraction(0), 0, Fraction(0), Fraction(1, 2 ** p.R), False)
    stats = _evaluate(g, stat_vector(g, p.R), subset, p)
    ok = (
        stats.size_fraction >= p.lam
        and stats.boundary <= p.epsilon * g.n
        and stats.certified
    )
    return ok, stats


def falsify_heuristic(
    g: Graph,
    p: QuasihomParams,
    budget: int,
    seed: int = 0,
) -> QuasihomVerdict:
    """Randomized search for a violating subset on graphs of any size.

    Seeds come from BFS-grown regions and from unions of same-ball-code
    vertex classes; the rest of the budget drives annealing flips of
    cut-adjacent vertices.  Never contradicts ``check_exact``: a subset is
    reported only when the same certified-margin predicate holds.
    """
    verdict = QuasihomVerdict(NO_VIOLATION)
    if budget <= 0 or g.n == 0:
        return verdict
    n = g.n
    rng = Random(seed)
    base = stat_vector(g, p.R)
    s_min = _size_threshold(p, n)
    b_max = _boundary_budget(p, n)

    def consider(subset) -> None:
        subset = sorted(set(subset))
        if not s_min <= len(subset) <= n:
            return
        if boundary_edge_count(g, subset) > b_max:
            return
        stats = _evaluate(g, base, subset, p)
        verdict.candidates_checked += 1
        if stats.certified:
            verdict.status = VIOLATED
            verdict.witness = tuple(subset)
            verdict.witness_stats = stats
        elif stats.ds_value > p.delta:
            verdict.near_misses += 1

    spent = 0
    for subset in _seed_candidates(g, p, s_min, rng):
        if spent >= budget or verdict.status == VIOLATED:
            return verdict
        consider(subset)
        spent += 1

    # annealing chains on the remaining budget
    while spent < budget and verdict.status != VIOLATED:
        chain = min(budget - spent, max(200, budget // 4))
        _anneal_chain(g, p, base, s_min, b_max, chain, rng, consider, verdict)
        spent += chain
    return verdict


def _seed_candidates(g: Graph, p: QuasihomParams, s_min: int, rng: Random):
    n = g.n
    starts = list(range(n)) if n <= 24 else rng.sample(range(n), 24)
    for start in starts:
        region = _grow_bfs(g, start, s_min)
        if region is not None:
            yield region

    cache: dict = {}
    sig_radius = min(p.R, 2)
    classes: dict[bytes, list[int]] = {}
    for v in range(n):
        code = balls.codes_at_radii(g, v, (sig_radius,), cache=cache)[sig_radius]
        classes.setdefault(code, []).append(v)
    groups = sorted(classes.values(), key=lambda c: (-len(c), c))
    prefix: list[int] = []
    for grp in groups:
        if len(grp) >= s_min:
            yield list(grp)
        prefix = prefix + grp
        if len(prefix) >= s_min and len(prefix) < n:
            yield list(prefix)
        placed = set(prefix)
        comp = [v for v in range(n) if v not in placed]
        if len(comp) >= s_min:
            yield comp


def _grow_bfs(g: Graph, start: int, target: int):
    if target >= g.n:
        return None
    seen = {start}
    order = [start]
    frontier = [start]
    while len(order) < target and frontier:
        nxt = []
        for v in frontier:
            for w in g.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    if len(order) < target:
        return None
    # a BFS prefix is always connected
    return order[:target]


def _anneal_chain(g, p, base, s_min, b_max, iterations, rng, consider, verdict):
    n = g.n
    member = [rng.random() < float(p.lam) + 0.1 for _ in range(n)]
    size = sum(member)
    boundary = sum(
        1
        for u, v in g.edges()
        if member[u] != member[v]
    )
    eval_stride = max(1, iterations // 25)

    def energy(sz, bd):
        return g.degree_bound * max(0, s_min - sz) + max(0, bd - b_max)

    temp0 = 2.0
    for it in range(iterations):
        if verdict.status == VIOLATED:
            return
        temp = temp0 * (0.01 / temp0) ** (it / max(1, iterations - 1))
        # bias flips toward cut-adjacent vertices without rebuilding the cut
        v = rng.randrange(n)
        for _ in range(5):
            if rng.random() < 0.2 or any(member[w] != member[v] for w in g.adjacency[v]):
                break
            v = rng.randrange(n)
        inside = sum(1 for w in g.adjacency[v] if member[w])
        outside = g.degree(v) - inside
        if member[v]:
            new_size = size - 1
            new_boundary = boundary - outside + inside
        else:
            new_size = size + 1
            new_boundary = boundary - inside + outside
        delta_e = energy(new_size, new_boundary) - energy(size, boundary)
        if delta_e <= 0 or rng.random() < exp(-delta_e / max(temp, 1e-9)):
            member[v] = not member[v]
            size, boundary = new_size, new_boundary
        if (
            size >= s_min
            and boundary <= b_max
            and size < n
            and it % eval_stride == 0
        ):
            consider([u for u in range(n) if member[u]])
