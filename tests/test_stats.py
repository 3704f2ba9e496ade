import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhdecomp.coloring import color_edges, random_b_labels
from qhdecomp.errors import (
    PatternDisconnectedError,
    PatternTooLargeError,
    RadiusMismatchError,
    WeightSumError,
)
from qhdecomp.graph import delete_edges, validate
from qhdecomp.stats import (
    StatVector,
    changed_fraction_bound,
    d_s,
    forget_colors,
    mixture,
    sparse_density,
    stability_ds_bound,
    stat_vector,
)
from qhdecomp.families import FamilySpec, generate

from conftest import cycle, double, path, random_bounded_graph, torus
import oracles
from oracles import count_subgraph_copies


def test_stat_vector_cycle_single_code():
    s = stat_vector(cycle(10), 2)
    assert all(list(s.at(r).values()) == [Fraction(1)] for r in (1, 2))


def test_stat_vector_path5():
    s = stat_vector(path(5), 1)
    assert sorted(s.at(1).values()) == [Fraction(2, 5), Fraction(3, 5)]


def test_union_vs_cycle_radius_dependence():
    union = double(cycle(5))  # C5 + C5 has the same radius-1 view as C10
    assert d_s(stat_vector(union, 1), stat_vector(cycle(10), 1))[0] == 0
    v, _ = d_s(stat_vector(double(cycle(4)), 2), stat_vector(cycle(10), 2))
    assert v > 0


def test_ds_identity_and_tail():
    s = stat_vector(cycle(8), 3)
    assert d_s(s, s) == (Fraction(0), Fraction(1, 8))


def test_ds_disjoint_doubling():
    g = random_bounded_graph(11, 3, random.Random(3))
    assert d_s(stat_vector(g, 3), stat_vector(double(g), 3))[0] == 0


def test_ds_cycle_vs_path_hand_value():
    # radius-1 TV between C_10 and P_10 is 1/5, weighted by 1/2
    value, tail = d_s(stat_vector(cycle(10), 1), stat_vector(path(10), 1))
    assert value == Fraction(1, 10) and tail == Fraction(1, 2)


def test_ds_radius_mismatch():
    with pytest.raises(RadiusMismatchError):
        d_s(stat_vector(cycle(4), 1), stat_vector(cycle(4), 2))


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_ds_pseudo_metric(seed):
    rng = random.Random(seed)
    vecs = [_random_stat_vector(rng, R=2) for _ in range(3)]
    a, b, c = vecs
    assert d_s(a, b) == d_s(b, a)
    assert d_s(a, c)[0] <= d_s(a, b)[0] + d_s(b, c)[0]
    assert d_s(a, a)[0] == 0


def _random_stat_vector(rng, R):
    radii = []
    for r in range(1, R + 1):
        k = rng.randint(1, 4)
        codes = [bytes([0x51, r, rng.randrange(4), 0, 0, 0]) for _ in range(k)]
        weights = [rng.randint(0, 10) for _ in codes]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        layer = {}
        for code, w in zip(codes, weights):
            layer[code] = layer.get(code, Fraction(0)) + Fraction(w, total)
        radii.append(layer)
    return StatVector(R, tuple(radii))


def test_sparse_density_edge_triangle_path():
    edge = validate([(0, 1)], 2, 1)
    triangle = validate([(0, 1), (1, 2), (2, 0)], 3, 2)
    p3 = validate([(0, 1), (1, 2)], 3, 2)
    g = cycle(10)
    assert sparse_density(edge, g) == 1
    assert sparse_density(triangle, g) == 0
    assert sparse_density(p3, g) == 1


def test_sparse_density_guards():
    g = cycle(10)
    with pytest.raises(PatternTooLargeError):
        sparse_density(cycle(7), g)
    disconnected = validate([(0, 1)], 3, 1)
    with pytest.raises(PatternDisconnectedError):
        sparse_density(disconnected, g)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.sampled_from(["edge", "p3", "triangle", "p4", "star3", "c4"]),
)
def test_sparse_density_against_permutation_oracle(seed, which):
    patterns = {
        "edge": validate([(0, 1)], 2, 1),
        "p3": validate([(0, 1), (1, 2)], 3, 2),
        "triangle": validate([(0, 1), (1, 2), (2, 0)], 3, 2),
        "p4": validate([(0, 1), (1, 2), (2, 3)], 4, 2),
        "star3": validate([(0, 1), (0, 2), (0, 3)], 4, 3),
        "c4": validate([(i, (i + 1) % 4) for i in range(4)], 4, 2),
    }
    pattern = patterns[which]
    host = random_bounded_graph(random.Random(seed).randint(4, 9), 4, random.Random(seed))
    expected = count_subgraph_copies(pattern, host)
    assert sparse_density(pattern, host) == Fraction(expected, host.n)


def test_mixture_matches_disjoint_union():
    c4, c6 = cycle(4), cycle(6)
    union = generate(
        FamilySpec("disjoint_union", parts=(FamilySpec("cycle", (4,)), FamilySpec("cycle", (6,))))
    )
    mixed = mixture([
        (Fraction(4, 10), stat_vector(c4, 2)),
        (Fraction(6, 10), stat_vector(c6, 2)),
    ])
    assert mixed.radii == stat_vector(union, 2).radii


def test_mixture_identity_and_self():
    s = stat_vector(cycle(8), 2)
    assert mixture([(Fraction(1), s)]).radii == s.radii
    assert mixture([(Fraction(1, 2), s), (Fraction(1, 2), s)]).radii == s.radii


def test_mixture_weight_guard():
    s = stat_vector(cycle(8), 2)
    with pytest.raises(WeightSumError):
        mixture([(Fraction(1, 2), s)])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_mixture_union_consistency_random(seed):
    rng = random.Random(seed)
    g1 = random_bounded_graph(rng.randint(3, 10), 3, rng)
    g2 = random_bounded_graph(rng.randint(3, 10), 3, rng)
    adj = [list(nbrs) for nbrs in g1.adjacency]
    adj.extend([w + g1.n for w in nbrs] for nbrs in g2.adjacency)
    from qhdecomp.graph import from_adjacency

    union = from_adjacency(adj, max(g1.degree_bound, g2.degree_bound))
    n = g1.n + g2.n
    mixed = mixture([
        (Fraction(g1.n, n), stat_vector(g1, 2)),
        (Fraction(g2.n, n), stat_vector(g2, 2)),
    ])
    assert mixed.radii == stat_vector(union, 2).radii


def test_convexity_midpoint():
    s1 = stat_vector(cycle(8), 2)
    s2 = stat_vector(path(8), 2)
    mid = mixture([(Fraction(1, 2), s1), (Fraction(1, 2), s2)])
    assert d_s(mid, s1)[0] <= Fraction(1, 2) * d_s(s2, s1)[0]


def test_stability_bound_random_deletions():
    # scaled-down version of the acceptance stability run
    rng = random.Random(1)
    for trial in range(5):
        g = generate(FamilySpec("random_regular", (60, 3), seed=trial))
        k = rng.randint(1, 5)
        edges = list(g.edges())
        doomed = rng.sample(edges, k)
        h = delete_edges(g, doomed)
        from qhdecomp.balls import codes_at_radii

        cache = {}
        changed = {r: 0 for r in (1, 2, 3)}
        for v in range(g.n):
            a = codes_at_radii(g, v, (1, 2, 3), cache=cache)
            b = codes_at_radii(h, v, (1, 2, 3), cache=cache)
            for r in (1, 2, 3):
                if a[r] != b[r]:
                    changed[r] += 1
        for r in (1, 2, 3):
            assert Fraction(changed[r], g.n) <= changed_fraction_bound(3, r, k, g.n)
        value, _ = d_s(stat_vector(g, 3), stat_vector(h, 3))
        assert value <= stability_ds_bound(3, k, g.n, 3)


def test_density_differences_shrink_with_ds():
    # paths converge to cycles locally; sparse densities follow
    edge = validate([(0, 1)], 2, 1)
    p3 = validate([(0, 1), (1, 2)], 3, 2)
    p4 = validate([(0, 1), (1, 2), (2, 3)], 4, 2)
    ds_values = []
    density_gaps = []
    for n in (12, 24, 48, 96):
        g, h = cycle(n), path(n)
        ds_values.append(d_s(stat_vector(g, 3), stat_vector(h, 3))[0])
        gap = max(
            abs(sparse_density(f, g) - sparse_density(f, h)) for f in (edge, p3, p4)
        )
        density_gaps.append(gap)
    assert all(b < a for a, b in zip(ds_values, ds_values[1:]))
    assert all(b < a for a, b in zip(density_gaps, density_gaps[1:]))


def test_forgetful_projection_exact_and_contractive():
    g = torus(6, 6)
    _, ec = color_edges(g)
    colored = stat_vector(g, 2, edge_colors=ec.colors)
    plain = stat_vector(g, 2)
    assert forget_colors(colored).radii == plain.radii

    h = cycle(36)
    _, ec2 = color_edges(h)
    colored_h = stat_vector(h, 2, edge_colors=ec2.colors)
    plain_h = stat_vector(h, 2)
    # data processing: dropping colors cannot increase the distance
    assert d_s(plain, plain_h)[0] <= d_s(colored, colored_h)[0]


def test_d_s_matches_fraction_reference():
    # stats.d_s sums integer counts over common denominators; the oracle
    # adds one Fraction per code
    rr = generate(FamilySpec("random_regular", (30, 3), seed=2))
    _, ec = color_edges(rr)
    labels = random_b_labels(rr, 2, seed=5).values
    vectors = [
        stat_vector(rr, 3),
        stat_vector(torus(4, 5), 3),
        stat_vector(path(7), 3),
        stat_vector(rr, 3, labels, 2),
        stat_vector(rr, 3, edge_colors=ec.colors),
        stat_vector(cycle(9), 3, edge_colors=color_edges(cycle(9))[1].colors),
    ]
    # mixtures have n = None and denominators that are not the parts' n
    vectors.append(mixture([(Fraction(2, 7), vectors[0]), (Fraction(5, 7), vectors[2])]))
    vectors.append(mixture([(Fraction(1, 3), vectors[1]), (Fraction(2, 3), vectors[4])]))
    # layers over different denominators: one common denominator has to
    # cover every radius of a vector
    rng = random.Random(4)
    randoms = [_random_stat_vector(rng, R=3) for _ in range(4)]
    assert all(len({math.lcm(*(f.denominator for f in layer.values())) for layer in v.radii}) > 1
               for v in randoms)
    vectors += randoms
    for a in vectors:
        for b in vectors:
            assert d_s(a, b) == oracles.d_s(a, b)
        assert d_s(a, a)[0] == 0
    # plain and coloured codes never coincide: disjoint supports at every radius
    plain, colored = vectors[0], vectors[4]
    assert all(plain.at(r).keys().isdisjoint(colored.at(r).keys()) for r in (1, 2, 3))
    assert d_s(plain, colored) == oracles.d_s(plain, colored) == (Fraction(7, 8), Fraction(1, 8))
