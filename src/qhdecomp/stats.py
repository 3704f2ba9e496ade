"""Ball-type frequency vectors and the statistical pseudo-metric.

A StatVector holds, for each radius 1..R, the exact distribution of
canonical ball codes over the vertices of a graph.  The distance between
two vectors is

    d_s(A, B) = sum_{r=1..R} 2^{-r} * TV_r(A, B)

where TV_r is the total-variation distance between the radius-r code
distributions.  Radii beyond R contribute at most 2^{-R} in total, which
is returned as a certified tail bound.  All arithmetic is exact.

Every total-variation distance in the package is ``tv_numerator`` over
integer counts: a StatVector layer is put over its common denominator by
``integer_counts``, and the subset evaluator and the partition engine
count codes as integers to begin with.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from . import balls
from .errors import (
    EmptyGraphError,
    PatternDisconnectedError,
    PatternTooLargeError,
    RadiusMismatchError,
    WeightSumError,
)
from .graph import Graph, is_connected

PATTERN_VERTEX_CAP = 6


@dataclass(frozen=True)
class StatVector:
    """Exact code-frequency distributions for radii 1..R."""

    R: int
    radii: tuple[dict[bytes, Fraction], ...]
    n: int | None = None

    def at(self, r: int) -> dict[bytes, Fraction]:
        if not 1 <= r <= self.R:
            raise RadiusMismatchError(f"radius {r} outside 1..{self.R}")
        return self.radii[r - 1]


def stat_vector(
    g: Graph,
    R: int,
    labels=None,
    label_width: int = 0,
    edge_colors=None,
    cache: dict | None = None,
) -> StatVector:
    """Code frequencies at radii 1..R; ``cache`` is ``balls.census``'s."""
    if g.n == 0:
        raise EmptyGraphError("statistics of the empty graph are undefined")
    if R < 1:
        raise RadiusMismatchError(f"StatVector radius {R} is below 1")
    columns = zip(*balls.census(g, range(1, R + 1), labels, label_width, edge_colors, cache))
    radii = tuple(
        {code: Fraction(cnt, g.n) for code, cnt in sorted(Counter(column).items())}
        for column in columns
    )
    return StatVector(R, radii, g.n)


def tv_numerator(a: dict, ta: int, b: dict, tb: int) -> int:
    """``sum_c |a_c*tb - b_c*ta|`` over integer counts ``a`` and ``b`` with
    positive totals ``ta`` and ``tb``: ``2*ta*tb`` times the total-variation
    distance between ``a/ta`` and ``b/tb``."""
    acc = sum(abs(x * tb - b.get(c, 0) * ta) for c, x in a.items())
    return acc + sum(y for c, y in b.items() if c not in a) * ta


def integer_counts(p: dict[bytes, Fraction]) -> tuple[dict[bytes, int], int]:
    """Integer counts and their common denominator ``t``, with
    ``p[c] == counts[c] / t``; an lcm instead of a gcd per term."""
    t = math.lcm(*(f.denominator for f in p.values()))
    return {c: f.numerator * (t // f.denominator) for c, f in p.items()}, t


def total_variation(p: dict[bytes, Fraction], q: dict[bytes, Fraction]) -> Fraction:
    (a, ta), (b, tb) = integer_counts(p), integer_counts(q)
    return Fraction(tv_numerator(a, ta, b, tb), 2 * ta * tb)


def d_s(a: StatVector, b: StatVector) -> tuple[Fraction, Fraction]:
    """Distance value and the tail bound covering all radii beyond R."""
    if a.R != b.R:
        raise RadiusMismatchError(f"mismatched radii: {a.R} vs {b.R}")
    value = Fraction(0)
    for r in range(1, a.R + 1):
        value += Fraction(1, 2 ** r) * total_variation(a.at(r), b.at(r))
    return value, Fraction(1, 2 ** a.R)


def mixture(parts: list[tuple[Fraction, StatVector]]) -> StatVector:
    """Pointwise convex combination of StatVectors, exact."""
    if not parts:
        raise WeightSumError("empty mixture")
    total = sum((w for w, _ in parts), Fraction(0))
    if total != 1:
        raise WeightSumError(f"weights sum to {total}, expected 1")
    if any(w < 0 for w, _ in parts):
        raise WeightSumError("negative weight")
    R = parts[0][1].R
    if any(s.R != R for _, s in parts):
        raise RadiusMismatchError("mixture parts disagree on R")
    radii = []
    for r in range(1, R + 1):
        layer: dict[bytes, Fraction] = {}
        for w, s in parts:
            if w == 0:
                continue
            for code, freq in s.at(r).items():
                layer[code] = layer.get(code, Fraction(0)) + w * freq
        radii.append(dict(sorted(layer.items())))
    return StatVector(R, tuple(radii), None)


def sparse_density(pattern: Graph, g: Graph) -> Fraction:
    """Number of subgraphs of ``g`` isomorphic to ``pattern``, over |V(g)|.

    Subgraphs are counted as vertex-injective embeddings divided by the
    pattern's automorphism count, i.e. distinct edge-set copies.
    """
    if pattern.n > PATTERN_VERTEX_CAP:
        raise PatternTooLargeError(f"pattern has {pattern.n} > {PATTERN_VERTEX_CAP} vertices")
    if not is_connected(pattern) or pattern.n == 0:
        raise PatternDisconnectedError("pattern must be connected and nonempty")
    if g.n == 0:
        raise EmptyGraphError("host graph is empty")
    embeddings = count_embeddings(pattern, g)
    auts = count_embeddings(pattern, pattern)
    assert embeddings % auts == 0
    return Fraction(embeddings // auts, g.n)


def count_embeddings(pattern: Graph, host: Graph) -> int:
    """Injective maps sending every pattern edge to a host edge."""
    k = pattern.n
    if k == 0:
        return 1
    # BFS order so every vertex after the first has an earlier neighbor
    order = [0]
    seen = [False] * k
    seen[0] = True
    for v in order:
        for w in pattern.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    anchor = []
    for idx, v in enumerate(order):
        prev = [u for u in pattern.adjacency[v] if u in order[:idx]]
        anchor.append(prev)

    total = 0
    image = [-1] * k
    used = set()

    def place(idx: int):
        nonlocal total
        if idx == k:
            total += 1
            return
        v = order[idx]
        prev = anchor[idx]
        if prev:
            cands = host.adjacency[image[prev[0]]]
        else:
            cands = range(host.n)
        for w in cands:
            if w in used:
                continue
            ok = True
            for u in prev:
                if not host.has_edge(w, image[u]):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used.add(w)
            place(idx + 1)
            used.remove(w)
        image[v] = -1

    place(0)
    return total


def forget_colors(s: StatVector) -> StatVector:
    """Project a colored/labeled StatVector to its plain counterpart."""
    radii = []
    for r in range(1, s.R + 1):
        layer: dict[bytes, Fraction] = {}
        for code, freq in s.at(r).items():
            plain = balls.strip_decorations(code)
            layer[plain] = layer.get(plain, Fraction(0)) + freq
        radii.append(dict(sorted(layer.items())))
    return StatVector(s.R, tuple(radii), s.n)


def changed_fraction_bound(d: int, r: int, k: int, n: int) -> Fraction:
    """Stability bound: fraction of vertices whose radius-r code can change
    after editing k edges of an n-vertex graph with degree bound d."""
    return min(Fraction(1), Fraction(4 * d ** r * k, n))


def stability_ds_bound(d: int, k: int, n: int, R: int) -> Fraction:
    """Composite d_s bound after editing k edges, tail included."""
    acc = Fraction(0)
    for r in range(1, R + 1):
        acc += Fraction(1, 2 ** r) * changed_fraction_bound(d, r, k, n)
    return acc + Fraction(1, 2 ** R)


@dataclass
class ConvexityReport:
    samples: int
    all_hold: bool
    max_combination_ratio: Fraction | None
    max_hull_ratio: Fraction | None
    diameter: Fraction
    failures: int = 0
    violations: list = field(default_factory=list)


def convexity_check(
    vectors: list[StatVector],
    w: StatVector,
    samples: int = 100,
    seed: int = 0,
) -> ConvexityReport:
    """Sampled verification of the convex-combination inequality

        d_s(sum_i l_i v_i, w) <= sum_i l_i d_s(v_i, w)

    and of the hull-diameter bound diam(hull) <= 3 diam(T) for random
    rational convex combinations.  Ratios are reported exactly.
    """
    if not vectors:
        raise WeightSumError("empty vector set")
    rng = Random(seed)
    m = len(vectors)
    diam = Fraction(0)
    for i in range(m):
        for j in range(i + 1, m):
            diam = max(diam, d_s(vectors[i], vectors[j])[0])

    def random_weights():
        raw = [rng.randint(0, 100) for _ in range(m)]
        if sum(raw) == 0:
            raw[rng.randrange(m)] = 1
        total = sum(raw)
        return [Fraction(x, total) for x in raw]

    all_hold = True
    failures = 0
    violations = []
    max_combo: Fraction | None = None
    max_hull: Fraction | None = None
    prev_mix: StatVector | None = None
    for _ in range(samples):
        lam = random_weights()
        mix = mixture(list(zip(lam, vectors)))
        lhs = d_s(mix, w)[0]
        rhs = sum(
            (l * d_s(v, w)[0] for l, v in zip(lam, vectors)), Fraction(0)
        )
        if lhs > rhs:
            all_hold = False
            failures += 1
            violations.append(("combination", lam))
        if rhs > 0:
            ratio = lhs / rhs
            if max_combo is None or ratio > max_combo:
                max_combo = ratio
        if prev_mix is not None:
            hull_dist = d_s(mix, prev_mix)[0]
            if hull_dist > 3 * diam:
                all_hold = False
                failures += 1
                violations.append(("hull", lam))
            if diam > 0:
                ratio = hull_dist / diam
                if max_hull is None or ratio > max_hull:
                    max_hull = ratio
        prev_mix = mix
    return ConvexityReport(samples, all_hold, max_combo, max_hull, diam, failures, violations)
