"""Exact and heuristic testing of (epsilon, lambda, delta)-quasihomogeneity.

A graph fails the property when some spanned subgraph H covers at least a
lambda fraction of the vertices, is separated by at most epsilon*n edges,
and still has statistical distance above delta from the whole graph.  The
distance is evaluated at radius R with the 2^{-R} tail added to delta
before a violation is certified, so certificates stay valid for the full
(all-radii) metric.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import ceil, exp, floor
from random import Random

import numpy as np

from . import balls
from .errors import EmptyGraphError, TooLargeForExactError, VertexSetMismatchError
from .graph import Graph, boundary_edge_count, connected_components, spanned_subgraph
from .stats import stat_vector  # noqa: F401  (the benchmark's tracer patches this name)
from .stats import tv_numerator

EXHAUSTIVE_CAP = 20
# subset evaluators kept for the most recent (graph, R) pairs, so the
# entry points called on one graph share one
_EVALUATOR_MEMO = 4
# entries either code cache of an evaluator holds before it starts over
_MAX_CACHED_CODES = 1 << 12

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


class _SubsetEvaluator:
    """Witness statistics of the spanned subgraphs G[S] of one graph G.

    Locality: every ball of v in G[S] up to radius R is spanned by
    S ∩ B_G(v, R), so v's codes in G[S] are a function of that set alone,
    and equal v's codes in G when the whole ball lies in S.  The evaluator
    keeps G's census (every vertex's codes at radii 1..R), the integer code
    counts of G, the members of each ball B_G(v, R), a memo of v's codes
    keyed by which of those members S holds, and one raw-key -> code cache
    shared by G's census and the subgraph balls of all candidates.  Both
    caches start over once they pass ``_MAX_CACHED_CODES`` entries.
    """

    def __init__(self, g: Graph, R: int):
        if g.n == 0:
            raise EmptyGraphError("statistics of the empty graph are undefined")
        self.g = g
        self.R = R
        self.radii = range(1, R + 1)
        self.codes: dict = {}
        self.local: dict[tuple[int, bytes], tuple[bytes, ...]] = {}
        self.base = balls.census(g, self.radii, cache=self.codes)
        self.base_counts = [Counter(codes[i] for codes in self.base) for i in range(R)]
        self.members = [tuple(balls._bfs(g, v, R)[0]) for v in range(g.n)]

    def evaluate(self, subset: list[int], delta: Fraction) -> WitnessStats:
        """Statistics of G[subset]; ``subset`` is sorted, distinct, nonempty."""
        if len(self.codes) > _MAX_CACHED_CODES:
            self.codes.clear()
        if len(self.local) > _MAX_CACHED_CODES:
            self.local.clear()
        inside = bytearray(self.g.n)
        for v in subset:
            inside[v] = 1
        sub = index = None
        tally: dict[tuple[bytes, ...], int] = {}
        for v in subset:
            seen = bytes(map(inside.__getitem__, self.members[v]))
            if 0 not in seen:
                codes = self.base[v]
            else:
                codes = self.local.get((v, seen))
                if codes is None:
                    if sub is None:
                        sub, index = spanned_subgraph(self.g, subset)
                    found = balls.codes_at_radii(sub, index[v], self.radii, cache=self.codes)
                    codes = self.local[v, seen] = tuple(found.values())
            tally[codes] = tally.get(codes, 0) + 1

        # d_s = sum_r 2^-r * TV_r, with TV_r = tv_numerator / (2*n*m)
        n, m = self.g.n, len(subset)
        num = 0
        for i, whole in enumerate(self.base_counts):
            part: dict[bytes, int] = {}
            for codes, count in tally.items():
                part[codes[i]] = part.get(codes[i], 0) + count
            num += tv_numerator(whole, n, part, m) << (self.R - 1 - i)
        value = Fraction(num, (2 * n * m) << self.R)
        tail = Fraction(1, 2 ** self.R)
        return WitnessStats(
            size_fraction=Fraction(m, n),
            boundary=boundary_edge_count(self.g, subset),
            ds_value=value,
            tail=tail,
            certified=value > delta + tail,
        )


@lru_cache(maxsize=_EVALUATOR_MEMO)
def _evaluator(g: Graph, R: int) -> _SubsetEvaluator:
    return _SubsetEvaluator(g, R)


def _mask_filter(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Size and boundary of every vertex subset, indexed by bitmask.

    Built by doubling: adding v to S ⊆ {0..v-1} adds one vertex and
    deg(v) - 2|S ∩ N(v)| boundary edges, so the entries for masks in
    [2^v, 2^(v+1)) follow from those below 2^v.
    """
    n = g.n
    masks = np.arange(1 << max(0, n - 1), dtype=np.uint64)
    sizes = np.zeros(1 << n, dtype=np.uint8)
    boundary = np.zeros(1 << n, dtype=np.int32)
    for v in range(n):
        low, high = slice(0, 1 << v), slice(1 << v, 2 << v)
        earlier = np.uint64(sum(1 << w for w in g.adjacency[v] if w < v))
        joined = np.bitwise_count(masks[low] & earlier).astype(np.int32)
        sizes[high] = sizes[low] + 1
        boundary[high] = boundary[low] + (g.degree(v) - 2 * joined)
    return sizes, boundary


def check_exact(g: Graph, p: QuasihomParams) -> QuasihomVerdict:
    """Enumerate every admissible vertex subset; first certified violation
    wins.

    Up to ``EXHAUSTIVE_CAP`` vertices, subsets are scanned in ascending
    bitmask order.  Beyond it only a boundary budget of 0 is enumerable:
    the admissible subsets are then the unions of connected components,
    scanned in ascending bitmask order over the components, and at most
    ``EXHAUSTIVE_CAP`` components are allowed.  Candidates whose distance
    exceeds delta but not delta + tail are counted as uncertified near
    misses and do not stop the scan.
    """
    n = g.n
    s_min = _size_threshold(p, n)
    b_max = _boundary_budget(p, n)
    if n <= EXHAUSTIVE_CAP:
        ev = _evaluator(g, p.R)
        sizes, boundary = _mask_filter(g)
        qualifying = np.flatnonzero((sizes >= s_min) & (boundary <= b_max)).tolist()
        candidates = ([v for v in range(n) if (mask >> v) & 1] for mask in qualifying)
    elif b_max > 0:
        raise TooLargeForExactError(
            f"{n} vertices > exhaustive cap {EXHAUSTIVE_CAP} with boundary budget {b_max}"
        )
    else:
        components = connected_components(g)
        if len(components) > EXHAUSTIVE_CAP:
            raise TooLargeForExactError(
                f"{len(components)} components > exhaustive cap {EXHAUSTIVE_CAP}"
            )
        ev = _evaluator(g, p.R)
        candidates = _component_unions(components, s_min)
    return _scan(ev, candidates, p.delta)


def _component_unions(components: list[list[int]], s_min: int):
    """Sorted unions of at least ``s_min`` vertices of ``components``, in
    ascending bitmask order over the components: the subsets no edge
    leaves."""
    for mask in range(1, 1 << len(components)):
        chosen = [c for i, c in enumerate(components) if (mask >> i) & 1]
        if sum(map(len, chosen)) >= s_min:
            yield sorted(chain.from_iterable(chosen))


def _scan(
    ev: _SubsetEvaluator, candidates, delta: Fraction, none_found: str = HOLDS_EXACT
) -> QuasihomVerdict:
    """Evaluate ``candidates`` in turn until one is a certified violation;
    without one, the verdict's status is ``none_found``."""
    near = checked = 0
    for subset in candidates:
        stats = ev.evaluate(subset, delta)
        checked += 1
        if stats.certified:
            return QuasihomVerdict(VIOLATED, tuple(subset), stats, near, checked)
        if stats.ds_value > delta:
            near += 1
    return QuasihomVerdict(none_found, None, None, near, checked)


def verify_certificate(g: Graph, subset, p: QuasihomParams) -> tuple[bool, WitnessStats]:
    """Re-evaluate the three defining conditions plus the certified margin."""
    subset = sorted(set(subset))
    if not subset:
        return False, WitnessStats(Fraction(0), 0, Fraction(0), Fraction(1, 2 ** p.R), False)
    if g.n == 0:
        raise EmptyGraphError("statistics of the empty graph are undefined")
    if subset[0] < 0 or subset[-1] >= g.n:
        raise VertexSetMismatchError("subset vertex out of range")
    stats = _evaluator(g, p.R).evaluate(subset, p.delta)
    ok = (
        len(subset) >= _size_threshold(p, g.n)
        and stats.boundary <= _boundary_budget(p, g.n)
        and stats.certified
    )
    return ok, stats


def falsify_heuristic(g: Graph, p: QuasihomParams, budget: int, seed: int = 0) -> QuasihomVerdict:
    """Randomized search for a violating subset on graphs of any size.

    Seeds come from BFS-grown regions and from unions of same-ball-code
    vertex classes; the rest of the budget drives annealing flips of
    cut-adjacent vertices.  Seeds and chains are one candidate stream that
    ``_scan`` judges, as it judges ``check_exact``'s, so the heuristic
    never contradicts ``check_exact``.
    """
    if g.n == 0:
        raise EmptyGraphError("statistics of the empty graph are undefined")
    if budget <= 0:
        return QuasihomVerdict(NO_VIOLATION)
    s_min, b_max = _size_threshold(p, g.n), _boundary_budget(p, g.n)
    candidates = _candidates(g, p, s_min, b_max, budget, Random(seed))
    return _scan(_evaluator(g, p.R), candidates, p.delta, NO_VIOLATION)


def _candidates(g: Graph, p: QuasihomParams, s_min: int, b_max: int, budget: int, rng: Random):
    """The admissible seeds, then the annealing chains.  Each seed and each
    annealing iteration spends one unit of ``budget``, admissible or not."""
    spent = 0
    for subset in _seed_candidates(g, p, s_min, rng):
        if spent >= budget:
            return
        spent += 1
        subset = sorted(set(subset))
        if len(subset) >= s_min and boundary_edge_count(g, subset) <= b_max:
            yield subset
    while spent < budget:
        chain = min(budget - spent, max(200, budget // 4))
        yield from _anneal_chain(g, p, s_min, b_max, chain, rng)
        spent += chain


def _seed_candidates(g: Graph, p: QuasihomParams, s_min: int, rng: Random):
    n = g.n
    starts = list(range(n)) if n <= 24 else rng.sample(range(n), 24)
    for start in starts:
        region = _grow_bfs(g, start, s_min)
        if region is not None:
            yield region

    # the evaluator already holds every vertex's codes at radii 1..R
    sig = min(p.R, 2) - 1
    classes: dict[bytes, list[int]] = {}
    for v, codes in enumerate(_evaluator(g, p.R).base):
        classes.setdefault(codes[sig], []).append(v)
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


def _anneal_chain(g, p, s_min, b_max, iterations, rng):
    """The sorted members of each admissible state at the evaluation stride;
    size and boundary are tracked exactly, so none needs a recount."""
    n = g.n
    adj = g.adjacency
    member = [rng.random() < float(p.lam) + 0.1 for _ in range(n)]
    size = sum(member)
    # cut[v]: neighbours of v on the other side of the cut, kept up to date
    cut = [sum(member[w] != member[v] for w in adj[v]) for v in range(n)]
    boundary = sum(cut) // 2
    eval_stride = max(1, iterations // 25)
    # energy, in integers: degree bound * missing size + excess boundary;
    # the loop writes max(0, x) as a conditional expression to save a call
    weight = g.degree_bound
    current = weight * max(0, s_min - size) + max(0, boundary - b_max)
    # rng.randrange(n) is CPython's _randbelow_with_getrandbits(n): draw
    # getrandbits(n.bit_length()) until the value is below n.  Inlined, it
    # yields the same numbers and leaves the same RNG state.
    bits, k, uniform = rng.getrandbits, n.bit_length(), rng.random
    # temp falls from temp0 to temp0 * ratio = 0.01, so it never nears 0
    temp0 = 2.0
    span, ratio = max(1, iterations - 1), 0.01 / temp0
    for it in range(iterations):
        # bias flips toward cut-adjacent vertices without rebuilding the cut
        v = bits(k)
        while v >= n:
            v = bits(k)
        for _ in range(5):
            if uniform() < 0.2 or cut[v]:
                break
            v = bits(k)
            while v >= n:
                v = bits(k)
        # flipping v moves its cut edges inside and its other edges onto the cut
        new_size = size - 1 if member[v] else size + 1
        new_boundary = boundary + len(adj[v]) - 2 * cut[v]
        new_energy = (weight * (s_min - new_size) if new_size < s_min else 0) + (
            new_boundary - b_max if new_boundary > b_max else 0
        )
        delta_e = new_energy - current
        # only an uphill move draws: the RNG stream is part of every verdict
        if delta_e <= 0:
            accept = True
        else:
            temp = temp0 * ratio ** (it / span)
            accept = uniform() < exp(-delta_e / temp)
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
