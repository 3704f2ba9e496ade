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
from itertools import accumulate, chain, compress
from math import ceil, exp, floor
from random import Random

from . import balls
from .errors import EmptyGraphError, TooLargeForExactError
from .graph import Graph, boundary_edge_count, connected_components, spanned_subgraph
from .stats import ds_value
from .stats import stat_vector  # noqa: F401  (the benchmark's tracer patches this name)

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
    keyed by which of those members S holds, one raw-key -> code cache
    shared by G's census and the subgraph balls of all candidates, and a
    memo of each scored S's exact d_s keyed by its membership bitmask.
    Each of the three starts over once it passes ``_MAX_CACHED_CODES``
    entries.
    """

    def __init__(self, g: Graph, R: int):
        if g.n == 0:
            raise EmptyGraphError("statistics of the empty graph are undefined")
        self.g = g
        self.R = R
        self.radii = range(1, R + 1)
        self.codes: dict = {}
        self.local: dict[tuple[int, bytes], tuple[bytes, ...]] = {}
        self.values: dict[int, Fraction] = {}
        self.base = balls.census(g, self.radii, cache=self.codes)
        self.base_counts = [Counter(codes[i] for codes in self.base) for i in range(R)]
        self.members = [tuple(balls._bfs(g, v, R)[0]) for v in range(g.n)]

    def evaluate(self, subset: list[int], boundary: int, delta: Fraction) -> WitnessStats:
        """Statistics of G[subset], whose ``boundary`` the caller counted;
        ``subset`` is sorted, distinct, nonempty.  Only d_s is memoized, so
        every call returns fresh stats with the caller's boundary and delta."""
        for cache in (self.codes, self.local, self.values):
            if len(cache) > _MAX_CACHED_CODES:
                cache.clear()
        # inside[v] is the binary digit of v's membership in S
        inside = bytearray(b"0" * self.g.n)
        for v in subset:
            inside[v] = 0x31
        # bit v is set when v is in S: n bits, where a tuple of S would
        # hold an int object per member
        key = int(inside[::-1], 2)
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = self._distance(subset, inside)
        tail = Fraction(1, 2 ** self.R)
        return WitnessStats(
            size_fraction=Fraction(len(subset), self.g.n),
            boundary=boundary,
            ds_value=value,
            tail=tail,
            certified=value > delta + tail,
        )

    def _distance(self, subset: list[int], inside: bytearray) -> Fraction:
        """d_s(G[subset], G) at radius R; ``inside[v]`` is b"1" for the members."""
        sub = index = None
        tally: dict[tuple[bytes, ...], int] = {}
        for v in subset:
            seen = bytes(map(inside.__getitem__, self.members[v]))
            if b"0" not in seen:
                codes = self.base[v]
            else:
                codes = self.local.get((v, seen))
                if codes is None:
                    if sub is None:
                        sub, index = spanned_subgraph(self.g, subset)
                    found = balls.codes_at_radii(sub, index[v], self.radii, cache=self.codes)
                    codes = self.local[v, seen] = tuple(found.values())
            tally[codes] = tally.get(codes, 0) + 1

        items = tally.items()
        parts = []
        for i in range(self.R):
            part: dict[bytes, int] = {}
            for codes, count in items:
                code = codes[i]
                part[code] = part.get(code, 0) + count
            parts.append(part)
        return ds_value(self.base_counts, self.g.n, parts, len(subset))


@lru_cache(maxsize=_EVALUATOR_MEMO)
def _evaluator(g: Graph, R: int) -> _SubsetEvaluator:
    return _SubsetEvaluator(g, R)


def check_exact(g: Graph, p: QuasihomParams) -> QuasihomVerdict:
    """Enumerate every admissible vertex subset; first certified violation
    wins.  Up to ``EXHAUSTIVE_CAP`` vertices, the blocks ``_unions`` joins
    are single vertices.  Beyond it only a boundary budget of 0 is
    enumerable, by unions of at most ``EXHAUSTIVE_CAP`` connected
    components.  Candidates whose distance exceeds delta but not delta +
    tail count as uncertified near misses and do not stop the scan.
    """
    n = g.n
    s_min = _size_threshold(p, n)
    b_max = _boundary_budget(p, n)
    if n <= EXHAUSTIVE_CAP:
        blocks = [[v] for v in range(n)]
    elif b_max > 0:
        raise TooLargeForExactError(
            f"{n} vertices > exhaustive cap {EXHAUSTIVE_CAP} with boundary budget {b_max}"
        )
    else:
        blocks = connected_components(g)
        if len(blocks) > EXHAUSTIVE_CAP:
            raise TooLargeForExactError(
                f"{len(blocks)} components > exhaustive cap {EXHAUSTIVE_CAP}"
            )
    return _scan(_evaluator(g, p.R), _unions(g, blocks, s_min, b_max), p.delta)


def _unions(g: Graph, blocks: list[list[int]], s_min: int, b_max: int):
    """(sorted union, boundary) of each union of ``blocks`` with at least
    ``s_min`` vertices and at most ``b_max`` boundary edges, in ascending
    bitmask order over the blocks: a depth-first branch decides the blocks
    from the last down, each left out before taken in.  The cut between
    decided blocks only grows, so a branch ends once it passes ``b_max`` or
    once the size can no longer reach ``s_min``."""
    where = {v: i for i, block in enumerate(blocks) for v in block}
    # ups[i]: (j, edges between blocks i and j) for each later block j
    ups = [Counter() for _ in blocks]
    for u, v in g.edges():
        i, j = sorted((where[u], where[v]))
        if i != j:
            ups[i][j] += 1
    ups = [list(up.items()) for up in ups]
    below = [0, *accumulate(map(len, blocks))]  # below[i]: vertices in blocks 0..i-1
    k = len(blocks)
    inside = [False] * k
    # (block, taken, size and cut before deciding it); out is popped first
    stack = [(k - 1, True, 0, 0), (k - 1, False, 0, 0)]
    while stack:
        i, taken, size, cut = stack.pop()
        inside[i] = taken
        if taken:
            size += len(blocks[i])
        for j, m in ups[i]:
            if inside[j] != taken:
                cut += m
        if cut > b_max or size + below[i] < s_min:
            continue
        if i:
            stack.append((i - 1, True, size, cut))
            stack.append((i - 1, False, size, cut))
        else:
            yield sorted(chain.from_iterable(b for b, t in zip(blocks, inside) if t)), cut


def _scan(
    ev: _SubsetEvaluator, candidates, delta: Fraction, none_found: str = HOLDS_EXACT
) -> QuasihomVerdict:
    """Evaluate the (subset, boundary) ``candidates`` in turn until one is a
    certified violation; without one, the verdict's status is ``none_found``."""
    near = checked = 0
    for subset, boundary in candidates:
        stats = ev.evaluate(subset, boundary, delta)
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
    boundary = boundary_edge_count(g, subset)  # refuses out-of-range vertices first
    stats = _evaluator(g, p.R).evaluate(subset, boundary, p.delta)
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
    """(subset, boundary) of the admissible seeds, then of the annealing chains.
    Each seed and each annealing iteration spends one unit of ``budget``."""
    spent = 0
    for subset in _seed_candidates(g, p, s_min, rng):
        if spent >= budget:
            return
        spent += 1
        subset = sorted(set(subset))
        if len(subset) >= s_min and (boundary := boundary_edge_count(g, subset)) <= b_max:
            yield subset, boundary
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
    """(sorted members, boundary) of each admissible state at the evaluation
    stride; size and boundary are tracked exactly, so none needs a recount."""
    n = g.n
    adj = g.adjacency
    deg = [len(nbrs) for nbrs in adj]
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
    # iterations until the next evaluation: 0 exactly when it % eval_stride == 0
    countdown = 0
    for it in range(iterations):
        # bias flips toward cut-adjacent vertices without rebuilding the cut:
        # up to 5 redraws, each after a uniform() drawn before cut[v] is read
        v = bits(k)
        while v >= n:
            v = bits(k)
        redraws = 5
        while redraws and uniform() >= 0.2 and not cut[v]:
            redraws -= 1
            v = bits(k)
            while v >= n:
                v = bits(k)
        # flipping v moves its cut edges inside and its other edges onto the cut
        new_size = size - 1 if member[v] else size + 1
        new_boundary = boundary + deg[v] - 2 * cut[v]
        new_energy = (weight * (s_min - new_size) if new_size < s_min else 0) + (
            new_boundary - b_max if new_boundary > b_max else 0
        )
        delta_e = new_energy - current
        # only an uphill move draws: the RNG stream is part of every verdict
        if delta_e <= 0 or uniform() < exp(-delta_e / (temp0 * ratio ** (it / span))):
            side = member[v] = not member[v]
            cut[v] = deg[v] - cut[v]
            for w in adj[v]:
                cut[w] += 1 if member[w] != side else -1
            size, boundary, current = new_size, new_boundary, new_energy
        if countdown:
            countdown -= 1
            continue
        countdown = eval_stride - 1
        if size >= s_min and boundary <= b_max and size < n:
            yield list(compress(range(n), member)), boundary
