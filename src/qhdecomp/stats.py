"""Ball-type frequency vectors and the statistical pseudo-metric.

A StatVector holds, for each radius 1..R, the exact distribution of
canonical ball codes over the vertices of a graph.  The distance between
two vectors is

    d_s(A, B) = sum_{r=1..R} 2^{-r} * TV_r(A, B)

where TV_r is the total-variation distance between the radius-r code
distributions.  Radii beyond R contribute at most 2^{-R} in total, which
is returned as a certified tail bound.  All arithmetic is exact.

Every total-variation distance in the package is ``tv_numerator`` over
integer counts, and ``ds_value`` is the one sum of them over radii: ``d_s``
puts a StatVector's layers over one common denominator with
``integer_counts``, and the subset evaluator counts codes as integers to
begin with.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

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


def integer_counts(layers) -> tuple[list[dict[bytes, int]], int]:
    """Integer counts of each distribution in ``layers`` and their one
    common denominator ``t``, with ``layers[i][c] == counts[i][c] / t``; an
    lcm instead of a gcd per term."""
    t = math.lcm(*(f.denominator for p in layers for f in p.values()))
    return [{c: f.numerator * (t // f.denominator) for c, f in p.items()} for p in layers], t


def ds_value(a: list, ta: int, b: list, tb: int) -> Fraction:
    """``sum_r 2^-r * TV_r`` between the radius-r counts ``a[r-1]`` and
    ``b[r-1]``, where every layer of ``a`` totals ``ta`` and every layer of
    ``b`` totals ``tb``; TV_r is ``tv_numerator / (2*ta*tb)``."""
    num = 0
    for x, y in zip(a, b):
        num = (num << 1) + tv_numerator(x, ta, y, tb)
    return Fraction(num, (2 * ta * tb) << len(a))


def d_s(a: StatVector, b: StatVector) -> tuple[Fraction, Fraction]:
    """Distance value and the tail bound covering all radii beyond R."""
    if a.R != b.R:
        raise RadiusMismatchError(f"mismatched radii: {a.R} vs {b.R}")
    return ds_value(*integer_counts(a.radii), *integer_counts(b.radii)), Fraction(1, 2 ** a.R)


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
