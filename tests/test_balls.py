import gc
import hashlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhdecomp import balls, quasihom
from qhdecomp.balls import (
    RootedBall,
    canonical_code,
    census,
    codes_at_radii,
    decode_code,
    extract_ball,
)
from qhdecomp.coloring import color_edges, random_b_labels
from qhdecomp.errors import FormatError, QhError, RadiusMismatchError, VertexSetMismatchError
from qhdecomp.families import FamilySpec, generate
from qhdecomp.graph import from_adjacency, relabel, spanned_subgraph, validate
from qhdecomp.stats import StatVector, forget_colors, stat_vector

import oracles
from conftest import cycle, graphs, path, random_bounded_graph, torus
from oracles import rooted_isomorphic


def test_extract_cycle_radius1():
    b = extract_ball(cycle(10), 0, 1)
    assert b.n == 3 and b.graph.edge_count() == 2
    assert b.graph.degree(0) == 2  # root is the middle of the path


def test_extract_radius0():
    b = extract_ball(cycle(10), 0, 0)
    assert b.n == 1 and b.radius == 0


def test_extract_c4_radius2_is_whole():
    b = extract_ball(cycle(4), 0, 2)
    assert b.n == 4 and b.graph.edge_count() == 4


def test_cycle_roots_share_code():
    g = cycle(10)
    codes = {canonical_code(extract_ball(g, x, 1)) for x in range(10)}
    assert len(codes) == 1


def test_star_center_vs_leaf():
    star = validate([(0, i) for i in (1, 2, 3)], 4, 3)
    center = canonical_code(extract_ball(star, 0, 1))
    leaf = canonical_code(extract_ball(star, 1, 1))
    assert center != leaf


def _census(g, r):
    """Vertex count per radius-r code."""
    cache = {}
    return Counter(codes_at_radii(g, x, (r,), cache=cache)[r] for x in range(g.n))


def test_census_cycle():
    assert list(_census(cycle(10), 1).values()) == [10]


def test_census_path5():
    assert sorted(_census(path(5), 1).values()) == [2, 3]


def test_census_disjoint_cycles():
    g = validate(
        [(i, (i + 1) % 4) for i in range(4)]
        + [(4 + i, 4 + (i + 1) % 6) for i in range(6)],
        10,
        2,
    )
    assert list(_census(g, 1).values()) == [10]


@given(graphs(max_n=16, max_d=4), st.integers(min_value=0, max_value=3))
def test_census_counts_sum_to_n(g, r):
    assert sum(_census(g, r).values()) == g.n


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=18),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_relabel_invariance(n, r, seed):
    rng = random.Random(seed)
    g = random_bounded_graph(n, 4, rng)
    x = rng.randrange(n)
    perm = list(range(n))
    rng.shuffle(perm)
    b1 = extract_ball(g, x, r)
    b2 = extract_ball(relabel(g, perm), perm[x], r)
    code1, code2 = canonical_code(b1), canonical_code(b2)
    assert code1 == code2
    assert rooted_isomorphic(b1, b2)


@settings(max_examples=40)
@given(graphs(max_n=14, max_d=4))
def test_census_relabel_invariant_multiset(g):
    rng = random.Random(g.n * 1000 + g.edge_count())
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert _census(g, 2) == _census(relabel(g, perm), 2)


@given(graphs(max_n=16, max_d=4))
def test_monotone_refinement(g):
    # equal radius-(r+1) codes imply equal radius-r codes
    cache = {}
    per_vertex = [codes_at_radii(g, v, (1, 2, 3), cache=cache) for v in range(g.n)]
    for r in (1, 2):
        seen = {}
        for v in range(g.n):
            key = per_vertex[v][r + 1]
            if key in seen:
                assert per_vertex[v][r] == per_vertex[seen[key]][r]
            else:
                seen[key] = v


@given(graphs(max_n=14, max_d=4), st.integers(min_value=0, max_value=3))
def test_decode_round_trip(g, r):
    for x in range(g.n):
        code = canonical_code(extract_ball(g, x, r))
        ball = decode_code(code)
        assert ball.radius == r
        assert canonical_code(ball) == code


def test_codes_at_radii_matches_single_extraction():
    g = cycle(9)
    multi = codes_at_radii(g, 0, (1, 2, 3))
    for r in (1, 2, 3):
        assert multi[r] == canonical_code(extract_ball(g, 0, r))


def _decorated_hosts():
    """(graph, labels, label width, edge colors): plain hosts, some with
    balls that stop growing before the largest radius, then labelled,
    edge-colored and labelled edge-colored ones."""
    rr = generate(FamilySpec("random_regular", (40, 3), seed=2))
    _, ec = color_edges(rr)
    bl = random_b_labels(rr, 3, seed=3)
    return [
        (torus(5, 6), None, 0, None),
        (random_bounded_graph(30, 4, random.Random(1)), None, 0, None),
        (path(7), None, 0, None),
        (cycle(5), None, 0, None),
        (rr, bl.values, 3, None),
        (rr, None, 0, ec.colors),
        (rr, bl.values, 3, ec.colors),
        (torus(4, 5), random_b_labels(torus(4, 5), 1, seed=0).values, 1, None),
    ]


def test_codes_at_radii_matches_old_path():
    # one cache for every host and radii set, as a long-lived caller might
    # keep; the old per-radius path is the reference
    cache, ref_cache = {}, {}
    for radii in ((0,), (1,), (3,), (1, 3), (1, 2, 3), (3, 1, 3)):
        for g, labels, width, colors in _decorated_hosts():
            for x in range(g.n):
                got = codes_at_radii(g, x, radii, labels, width, colors, cache)
                want = oracles.codes_at_radii(g, x, radii, labels, width, colors, ref_cache)
                assert got == want
                assert list(got) == sorted(set(radii))
                if x % 7 == 0:
                    assert codes_at_radii(g, x, radii, labels, width, colors) == want
                    r = max(radii)
                    members, layer = oracles._bfs_members(g, x, r)
                    assert extract_ball(g, x, r, labels, width, colors) == (
                        oracles._ball_from_members(g, members, r, layer, labels, width, colors)
                    )


@pytest.mark.parametrize("host", ["torus", "regular", "colored"])
def test_census_canonicalizes_as_often_as_old_path(host, monkeypatch):
    # tree balls are canonicalized once per root form, so a census makes
    # at most the old per-radius calls, and fewer where tree balls repeat
    if host == "torus":
        g, colors = generate(FamilySpec("grid_torus", (8, 8))), None
    else:
        g = generate(FamilySpec("random_regular", (60, 3), seed=0))
        colors = color_edges(g)[1].colors if host == "colored" else None
    calls = Counter()
    real = balls.canonical_code

    def counted(ball, *args):
        calls[ball.radius] += 1
        return real(ball, *args)

    monkeypatch.setattr(balls, "canonical_code", counted)
    sv = stat_vector(g, 3, edge_colors=colors)
    new_calls = calls.copy()
    calls.clear()
    cache = {}
    counts = [Counter() for _ in range(3)]
    for x in range(g.n):
        codes = oracles.codes_at_radii(g, x, range(1, 4), None, 0, colors, cache)
        for r in range(1, 4):
            counts[r - 1][codes[r]] += 1
    assert all(new_calls[r] <= calls[r] for r in range(1, 4))
    assert sum(new_calls.values()) > 0
    if host == "regular":
        assert sum(new_calls.values()) < sum(calls.values())
    assert [dict(sv.at(r)) for r in range(1, 4)] == [
        {c: Fraction(k, g.n) for c, k in layer.items()} for layer in counts
    ]


def _form_hosts():
    """(graph, labels, label width, edge colors): plain, labelled,
    edge-colored and labelled edge-colored hosts, labels with bits above
    the width, trees whose balls stop growing early, and a forest with
    isolated vertices."""
    rr = generate(FamilySpec("random_regular", (40, 3), seed=2))
    _, ec = color_edges(rr)
    bl = random_b_labels(rr, 3, seed=3)
    star = from_adjacency([list(range(1, 7))] + [[0]] * 6, 6)
    # paths of 3 and 5 vertices, a claw, vertices 11 and 12 isolated
    forest = validate(
        [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (8, 9), (8, 10), (8, 13)], 14, 3
    )
    return [
        (rr, None, 0, None),
        (torus(5, 6), None, 0, None),
        (random_bounded_graph(30, 4, random.Random(1)), None, 0, None),
        (rr, bl.values, 3, None),
        # the label masked to its low bit is 0 everywhere
        (cycle(12), tuple(2 * v for v in range(12)), 1, None),
        (rr, bl.values, 1, None),
        (rr, None, 0, ec.colors),
        (rr, bl.values, 2, ec.colors),
        (path(9), None, 0, None),
        (star, None, 0, None),
        (generate(FamilySpec("d_ary_tree", (2, 4))), None, 0, None),
        (forest, None, 0, None),
    ]


def test_stat_vector_matches_oracle_loop(monkeypatch):
    # StatVector equal to the old per-radius loop and no more canonical_code
    # calls per radius; a census equal to the old path for radii sets
    # stat_vector never asks for
    calls = Counter()
    real = balls.canonical_code

    def counted(ball, *args):
        calls[ball.radius] += 1
        return real(ball, *args)

    monkeypatch.setattr(balls, "canonical_code", counted)
    for g, labels, width, colors in _form_hosts():
        for R in (1, 3, 4):
            calls.clear()
            sv = stat_vector(g, R, labels, width, colors)
            new_calls = calls.copy()
            calls.clear()
            cache = {}
            counts = [Counter() for _ in range(R)]
            for x in range(g.n):
                codes = oracles.codes_at_radii(g, x, range(1, R + 1), labels, width, colors, cache)
                for r in range(1, R + 1):
                    counts[r - 1][codes[r]] += 1
            assert all(new_calls[r] <= calls[r] for r in range(1, R + 1))
            assert sv == StatVector(R, tuple(
                {c: Fraction(k, g.n) for c, k in sorted(layer.items())} for layer in counts
            ), g.n)
        ref_cache = {}
        for radii in ((0,), (3,), (1, 3), (0, 2, 4)):
            got = census(g, radii, labels, width, colors)
            for x in range(g.n):
                want = oracles.codes_at_radii(g, x, radii, labels, width, colors, ref_cache)
                assert got[x] == tuple(want.values())


def test_shared_cache_serves_any_graph_labels_and_colours():
    # one raw-ball cache across different graphs, a spanned subgraph of one
    # of them, and one graph plain, labelled and edge-coloured
    hosts = _form_hosts()
    rr = hosts[0][0]
    sub, _ = spanned_subgraph(rr, range(0, rr.n, 2))
    hosts.append((sub, None, 0, None))
    shared: dict = {}
    for radii in ((1, 2, 3), (2,), (0, 2, 4)):
        for g, labels, width, colors in hosts + hosts[::-1]:
            got = census(g, radii, labels, width, colors, shared)
            assert got == census(g, radii, labels, width, colors)
    assert shared


def test_vertex_codes_match_uncached_path():
    for g, labels, _, colors in _form_hosts():
        if labels is None and colors is None:
            for M in (0, 1, 2, 3):
                assert census(g, (M,)) == [
                    (canonical_code(extract_ball(g, v, M)),) for v in range(g.n)
                ]


def test_radius_zero_codes():
    rr = generate(FamilySpec("random_regular", (20, 3), seed=1))
    _, ec = color_edges(rr)
    for g, colors in ((cycle(12), None), (path(3), None), (rr, ec.colors)):
        for x in range(g.n):
            want = canonical_code(extract_ball(g, x, 0, edge_colors=colors))
            assert codes_at_radii(g, x, (0,), edge_colors=colors) == {0: want}
            assert codes_at_radii(g, x, (0,), edge_colors=colors, cache={}) == {0: want}


def test_disconnected_ball_codes_are_canonical():
    # a decoded code need not be connected: root 0 plus an edge 1-2 that
    # carries one label-1 end; swapping the edge's ends is an isomorphism
    g = from_adjacency([[], [2], [1]], 1)
    a = canonical_code(RootedBall(g, 1, (0, 0, 1), 1))
    b = canonical_code(RootedBall(g, 1, (0, 1, 0), 1))
    assert a == b


def test_labeled_codes_respect_truncation():
    g = path(3)
    full = [0b1011, 0b0111, 0b1100]
    b_full = extract_ball(g, 1, 1, labels=full, label_width=4)
    b_trunc = extract_ball(g, 1, 1, labels=[v >> 3 for v in full], label_width=1)
    assert b_full.labels == (0b0111, 0b1011, 0b1100)
    assert b_trunc.labels == (0, 1, 1)
    assert canonical_code(b_full) != canonical_code(b_trunc)


def test_colored_ball_codes_distinguish_colors():
    g = path(3)
    c1 = {(0, 1): 1, (1, 2): 2}
    c2 = {(0, 1): 2, (1, 2): 1}
    c3 = {(0, 1): 1, (1, 2): 3}
    # rooted at the middle, swapping the two edge colors is an isomorphism
    a = canonical_code(extract_ball(g, 1, 1, edge_colors=c1))
    b = canonical_code(extract_ball(g, 1, 1, edge_colors=c2))
    c = canonical_code(extract_ball(g, 1, 1, edge_colors=c3))
    assert a == b
    assert a != c


def _symmetric_cores():
    """Cycles, K3,3 and the Petersen graph, bare and with a pendant path at
    every vertex: cores with large automorphism groups."""
    k33 = validate([(i, j) for i in range(3) for j in range(3, 6)], 6, 3)
    petersen = validate(
        [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 10, 3
    )
    out = [cycle(6), cycle(9), k33, petersen]
    for g in list(out):
        n = g.n
        tails = [(v, n + v) for v in range(n)] + [(n + v, 2 * n + v) for v in range(n)]
        edges = list(g.edges()) + tails
        out.append(validate(edges, 3 * n, g.degree_bound + 1))
    return out


def _refinement_corpus():
    """Balls whose canonicalization runs the refinement: tori, plain,
    labelled and edge-coloured random-regular balls, symmetric cores, and a
    disconnected decoded ball."""
    for a, b in ((5, 6), (6, 6), (7, 8), (8, 8)):
        for r in (1, 2, 3, 4):
            yield extract_ball(torus(a, b), 0, r)
    rr = generate(FamilySpec("random_regular", (60, 3), seed=4))
    _, ec = color_edges(rr)
    bl = random_b_labels(rr, 2, seed=5)
    for x in range(0, rr.n, 3):
        for r in (2, 3, 4):
            yield extract_ball(rr, x, r)
            yield extract_ball(rr, x, r, bl.values, 2)
            yield extract_ball(rr, x, r, edge_colors=ec.colors)
    for g in _symmetric_cores():
        _, gc = color_edges(g)
        for x in (0, g.n - 1):
            for r in (1, 2, 3, 4):
                yield extract_ball(g, x, r)
                yield extract_ball(g, x, r, edge_colors=gc.colors)
    # the root alone, an edge and a triangle, one end of the edge labelled
    apart = from_adjacency([[], [2], [1], [4, 5], [3, 5], [3, 4]], 2)
    yield RootedBall(apart, 1, (0, 0, 1, 0, 0, 0), 1)


def test_refinement_matches_full_rounds(monkeypatch):
    # every refinement call returns the list the full-round refinement
    # returns, so the search tree and every code are unchanged
    calls = Counter()
    real = balls._refine

    def checked(cols, nbrs, ecols=None, split=None):
        got = real(cols, nbrs, ecols, split)
        assert got == oracles.refine(cols, nbrs, ecols)
        calls[split is None] += 1
        return got

    monkeypatch.setattr(balls, "_refine", checked)
    for ball in _refinement_corpus():
        assert canonical_code(ball) == oracles.canonical_code(ball)
    assert calls[True] > 100 and calls[False] > 100


def test_tree_codes_match_expand_and_serialize():
    # tree balls are serialized from the root form in one preorder pass;
    # the reference orders them with _expand_pendants and serializes that
    rr = generate(FamilySpec("random_regular", (80, 3), seed=6))
    star = from_adjacency([list(range(1, 7))] + [[0]] * 6, 6)
    trees = 0
    for g in (rr, generate(FamilySpec("d_ary_tree", (3, 3))), path(8), star):
        _, gc = color_edges(g)
        for width in (0, 1, 3, 9):
            labels = None if width == 0 else random_b_labels(g, width, seed=width).values
            for colors in (None, gc.colors):
                for x in range(0, g.n, 5):
                    for r in (0, 1, 2, 3):
                        ball = extract_ball(g, x, r, labels, width, colors)
                        if ball.graph.edge_count() == ball.n - 1:
                            trees += 1
                            assert balls._strip_pendants(ball)[0] == [0]
                        assert canonical_code(ball) == oracles.canonical_code(ball)
    assert trees > 500


def _bfs_hosts():
    """Hosts whose balls stop being trees in different ways: a triangle
    closing in the last layer, a vertex with two parents in the last layer,
    an edge inside the last layer, and the form-table corpus."""
    triangle = validate([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 5, 3)
    square = validate([(5, 4), (4, 0), (0, 1), (0, 2), (1, 3), (2, 3)], 6, 3)
    pentagon = cycle(5)
    return [triangle, square, pentagon] + [g for g, _, _, _ in _form_hosts()]


def test_bfs_tree_radius_matches_edge_count():
    # the tree radius _bfs reads off its layers is the largest s <= r whose
    # ball has |B_s| - 1 edges, and _bfs still numbers by (distance, id)
    for g in _bfs_hosts():
        for x in range(g.n):
            for r in range(5):
                index, ends, tree, _ = balls._bfs(g, x, r)
                members, layer = oracles._bfs_members(g, x, r)
                assert list(index) == members
                assert ends == [0] + [sum(layer[v] <= s for v in members) for s in range(r + 1)]
                want = max(
                    s for s in range(r + 1)
                    if oracles._ball_from_members(
                        g, [v for v in members if layer[v] <= s], s, layer, None, 0, None
                    ).graph.edge_count() == ends[s + 1] - 1
                )
                assert tree == want
    # the subset evaluator's ball members keep that order
    ev = quasihom._SubsetEvaluator(_form_hosts()[0][0], 3)
    assert ev.members == [tuple(oracles._bfs_members(ev.g, v, 3)[0]) for v in range(ev.g.n)]


def test_one_pass_scan_matches_oracle_ball():
    # the one BFS pass numbers the ball and fills its rows; with the last
    # layer's ids, labels and upper colours _reindex adds, every piece
    # equals the oracle ball built from the oracle member order
    plain = [(g, None, 0, None) for g in _bfs_hosts()[:3]]
    for g, labels, width, colors in plain + _form_hosts() + _decorated_hosts():
        for x in range(g.n):
            for r in range(5):
                scan = balls._bfs(g, x, r)
                members, ends, tree, row_of = scan
                order, layer = oracles._bfs_members(g, x, r)
                assert members == order
                assert ends == [0] + [sum(layer[v] <= s for v in order) for s in range(r + 1)]
                assert tree == max(
                    s for s in range(r + 1)
                    if oracles._ball_from_members(
                        g, order[: ends[s + 1]], s, layer, None, 0, None
                    ).graph.edge_count() == ends[s + 1] - 1
                )
                ball = oracles._ball_from_members(g, order, r, layer, labels, width, colors)
                got_rows, got_ends, got_labels, ups = balls._reindex(
                    g, scan, labels, width, colors
                )
                assert [row_of[v] for v in members] == [list(a) for a in ball.graph.adjacency]
                assert got_rows == ball.graph.adjacency and got_ends == ends
                assert got_labels == ball.labels
                if colors is None:
                    assert ups is None
                else:
                    assert ups == tuple(
                        tuple(ball.edge_colors[i, j] for j in row if j > i)
                        for i, row in enumerate(ball.graph.adjacency)
                    )


def test_missing_colours_are_typed_on_both_paths():
    # codes_at_radii alone does not check colour coverage; a missing colour
    # used to end in a bare KeyError on the raw and on the form path
    g = cycle(6)
    all_but_23 = {e: 1 for e in g.edges() if e != (2, 3)}
    # radius 2 is a tree ball; radius 3 closes the cycle, a raw-keyed ball
    for colors, r, edge in (({}, 3, (0, 1)), (all_but_23, 3, (2, 3))):
        with pytest.raises(FormatError, match=re.escape(f"edge {edge} has no colour")):
            codes_at_radii(g, 0, (r,), edge_colors=colors)
    for colors, edge in (({}, (1, 2)), (all_but_23, (2, 3))):
        forms = balls.BranchForms(g, edge_colors=colors)
        with pytest.raises(FormatError, match=re.escape(f"edge {edge} has no colour")):
            codes_at_radii(g, 3, (2,), edge_colors=colors, forms=forms)


# sha256 over the code bytes of the corpus below.  Persisted StatVector and
# atlas JSON carry these bytes, so any change to the canonical order or the
# serialization layout shows up here.
GOLDEN_CODES_SHA256 = "dc7940a3e64b4d181d6ae5cf9f033a0b1ea062b107de3afc52c0926892c20252"


def _golden_corpus_digest(codes=None):
    """The corpus digest; each code fed is also added to the set ``codes``
    when one is given."""
    h = hashlib.sha256()

    def feed(code):
        h.update(len(code).to_bytes(4, "little"))
        h.update(code)
        if codes is not None:
            codes.add(code)

    def per_vertex(g, radii, labels=None, width=0, colors=None):
        cache = {}
        for x in range(g.n):
            codes = codes_at_radii(g, x, radii, labels, width, colors, cache)
            for r in radii:
                feed(codes[r])

    rr = generate(FamilySpec("random_regular", (200, 3), seed=1))
    per_vertex(rr, (0, 1, 2, 3, 4))
    per_vertex(generate(FamilySpec("d_ary_tree", (3, 4))), (1, 2, 3))
    per_vertex(path(12), (1, 2, 3))
    per_vertex(torus(6, 7), (1, 2, 3))
    for seed in range(4):
        per_vertex(random_bounded_graph(40, 4, random.Random(seed)), (1, 2, 3))

    small = generate(FamilySpec("random_regular", (60, 3), seed=2))
    _, ec = color_edges(small)
    for width in (1, 3):
        bl = random_b_labels(small, width, seed=width)
        per_vertex(small, (1, 2, 3), bl.values, width)
        per_vertex(small, (1, 2), bl.values, width, ec.colors)
    per_vertex(small, (1, 2, 3), colors=ec.colors)
    tl = random_b_labels(torus(5, 5), 1, seed=0)
    per_vertex(torus(5, 5), (1, 2), tl.values, 1)

    # decoded balls are indexed in canonical order, not BFS order
    plain = forget_colors(stat_vector(small, 3, edge_colors=ec.colors))
    for r in range(1, 4):
        for code in plain.at(r):
            feed(code)
    return h.hexdigest()


def test_golden_code_bytes():
    assert _golden_corpus_digest() == GOLDEN_CODES_SHA256


def test_truncated_codes_are_refused():
    # a cut inside a count, id, label or colour used to end in a bare
    # IndexError or to decode a ball from a short read
    codes = set()
    _golden_corpus_digest(codes)
    decoded = []
    for code in codes:
        for end in range(len(code)):
            try:
                decoded.append(decode_code(code[:end]))
            except FormatError:
                pass
    assert decoded == []


def test_radius_beyond_code_format_refused_before_bfs(monkeypatch):
    # keying a ball by every smaller radius is quadratic in the radius:
    # stats --radius 300000 ran out of memory before canonical_code refused
    def no_bfs(*args):
        raise AssertionError("BFS before the radius check")

    monkeypatch.setattr(balls, "_bfs", no_bfs)
    with pytest.raises(FormatError, match="radius too large to encode"):
        codes_at_radii(cycle(8), 0, range(1, 257))
    monkeypatch.undo()
    assert len(codes_at_radii(cycle(8), 0, range(1, 256))) == 255


def test_radius_errors_are_typed():
    # library callers get the typed errors the CLI refuses with exit 2
    g = cycle(8)
    with pytest.raises(RadiusMismatchError):
        stat_vector(g, 0)
    with pytest.raises(RadiusMismatchError):
        census(g, ())
    with pytest.raises(RadiusMismatchError):
        codes_at_radii(g, 0, (-1,))
    with pytest.raises(RadiusMismatchError):
        extract_ball(g, 0, -1)
    assert issubclass(RadiusMismatchError, QhError)


def test_unencodable_colours_and_label_widths_are_typed():
    # these used to end in a struct.error and a bare ValueError
    g = cycle(3)
    for bad in (-1, 70000):
        with pytest.raises(FormatError, match="0..65535"):
            stat_vector(g, 1, edge_colors={(0, 1): 1, (0, 2): bad, (1, 2): 2})
    with pytest.raises(FormatError, match="label width 300"):
        stat_vector(g, 1, labels=[1, 2, 3], label_width=300)
    assert stat_vector(g, 1, labels=[1, 2, 3], label_width=255).R == 1
    assert stat_vector(g, 1, edge_colors={(0, 1): 0, (0, 2): 0xFFFF, (1, 2): 2}).R == 1
    # malformed codes: the first two used to raise a bare IndexError, the
    # third (vertex 0 its own upper neighbour) decoded to a self-loop
    for hexcode, match in (("510105000000", "truncated"),
                           ("51010200000001090000", "upper id 9"),
                           ("51010200000001000000", "upper id 0")):
        with pytest.raises(FormatError, match=match):
            decode_code(bytes.fromhex(hexcode))


@pytest.mark.parametrize("hexcode, match", [
    # no vertex: canonical_code of the decoded ball ended in an IndexError
    ("510100000000", "no vertex"),
    # a padding bit after a 1-bit label: decoded to labels (1, 1), which
    # re-encode as ...8080
    ("510102000101010100008180", "padding bit"),
    # two isolated vertices at radius 1: the root reaches neither other
    ("5101020000000000", "1 of 2 vertices lie beyond radius 1"),
    # headers no writer emits: flag bit 2, and a label width without labels
    ("51010200040001010000", "flags 0x04"),
    ("51010200000101010000", "label width 1 but no labels"),
    # the radius-2 path rooted at an end, numbered root, far end, middle:
    # its code numbers it root, middle, far end (51020300000001010001020000)
    ("51020300000001020001020000", "pendant trees in preorder"),
])
def test_codes_no_ball_has_are_refused(hexcode, match):
    # each of these used to decode
    with pytest.raises(FormatError, match=match):
        decode_code(bytes.fromhex(hexcode))


_ENTRIES = {
    "stat_vector": lambda g, **kwargs: stat_vector(g, 1, **kwargs),
    "extract_ball": lambda g, **kwargs: extract_ball(g, 0, 1, **kwargs),
    "codes_at_radii": lambda g, **kwargs: codes_at_radii(g, 0, (1,), **kwargs),
}


@pytest.mark.parametrize("entry, kwargs, error, match", [
    ("stat_vector", {"labels": [1, 2, 3, 4], "label_width": -1}, FormatError,
     "label width -1 outside 0..255"),
    ("stat_vector", {"labels": [1, 2]}, VertexSetMismatchError, "2 labels for 4 vertices"),
    ("stat_vector", {"labels": [1, 2, 3, 4, 5]}, VertexSetMismatchError, "5 labels for 4 vertices"),
    ("stat_vector", {"edge_colors": {}}, FormatError, r"edge \(0, 1\) has no colour"),
    ("stat_vector", {"label_width": -1}, FormatError, "label width -1 outside 0..255"),
    ("stat_vector", {"label_width": 300}, FormatError, "label width 300 outside 0..255"),
    ("extract_ball", {"label_width": -1}, FormatError, "label width -1 outside 0..255"),
    ("extract_ball", {"labels": [1]}, VertexSetMismatchError, "1 labels for 4 vertices"),
    ("extract_ball", {"edge_colors": {}}, FormatError, r"edge \(0, 1\) has no colour"),
    ("codes_at_radii", {"label_width": -1}, FormatError, "label width -1 outside 0..255"),
], ids=["negative_width", "short_labels", "long_labels", "uncoloured_edge",
        "unlabelled_negative_width", "unlabelled_wide_width", "extract_negative_width",
        "extract_short_labels", "extract_uncoloured_edge", "codes_negative_width"])
def test_malformed_decorations_are_typed(entry, kwargs, error, match):
    # these used to end in a bare ValueError, IndexError or KeyError, or,
    # with a label too many or a width of 300 without labels, were accepted
    # silently
    with pytest.raises(error, match=match):
        _ENTRIES[entry](cycle(4), **kwargs)


def test_out_of_range_root_is_refused():
    # a root of -1 used to alias the last vertex and build a corrupt ball
    g = path(4)
    for x in (-1, 4):
        with pytest.raises(VertexSetMismatchError, match=f"root {x} is not a vertex"):
            extract_ball(g, x, 1)
        with pytest.raises(VertexSetMismatchError, match=f"root {x} is not a vertex"):
            codes_at_radii(g, x, (1,))


class _CodeTable(dict):
    """A raw-ball cache that counts the lookups of ball keys that find
    their key (``hits``)."""

    def __init__(self):
        super().__init__()
        self.hits = 0

    def _count(self, key):
        # a ball key starts with the radius, a raw key with a tuple of radii
        self.hits += isinstance(key[0], int)

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self._count(key)
        return value

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not default:
            self._count(key)
        return value


def _relabelled(g, labels, colors, rng):
    perm = rng.sample(range(g.n), g.n)
    new_labels = None
    if labels is not None:
        new_labels = [0] * g.n
        for v, label in enumerate(labels):
            new_labels[perm[v]] = label
    new_colors = None if colors is None else {
        (min(perm[u], perm[v]), max(perm[u], perm[v])): c for (u, v), c in colors.items()
    }
    return relabel(g, perm), new_labels, new_colors


def _cycle_and_triangles(cycle_first: bool) -> RootedBall:
    """Root joined to every vertex of a 6-cycle and of two triangles.

    Refinement leaves the 12 neighbours in one cell, which is not an orbit,
    so the first leaf is the least only when a triangle vertex comes first."""
    ring = (1, 7)[not cycle_first]
    tri = (7, 1)[not cycle_first]
    edges = [(0, v) for v in range(1, 13)]
    edges += [(ring + i, ring + (i + 1) % 6) for i in range(6)]
    edges += [(tri + i + j, tri + i + (j + 1) % 3) for i in (0, 3) for j in range(3)]
    return RootedBall(validate(edges, 13, 12), 1)


def test_leaf_encodings_in_the_cache_are_sound():
    # every ball key the search stores, for a leaf or for a ball in ball
    # order, maps to a code whose decoded ball has the key's radius and
    # flags and, coded afresh, gives the stored code back; and the key,
    # written out as a code, is a ball of that class: equal keys give
    # isomorphic balls
    shared: dict = {}
    for g, labels, width, colors in _form_hosts():
        census(g, (1, 2, 3), labels, width, colors, shared)
    for cycle_first in (False, True):
        canonical_code(_cycle_and_triangles(cycle_first), shared)
    encodings = {key: code for key, code in shared.items() if isinstance(key[0], int)}
    assert len(encodings) > 50
    for key, code in encodings.items():
        ball = decode_code(code)
        flags = (ball.labels is not None) | (ball.edge_colors is not None) << 1
        assert (key[0], key[2]) == (ball.radius, flags)
        assert canonical_code(ball) == code
        assert canonical_code(decode_code(balls._serialize(key))) == code
    # balls of relabelled hosts are numbered differently, so a fresh table
    # answers many of them from a ball key
    known = _CodeTable()
    rng = random.Random(5)
    for g, labels, width, colors in _form_hosts():
        for _ in range(2):
            h, hl, hc = _relabelled(g, labels, colors, rng)
            for x in range(0, h.n, 2):
                for r in (2, 3):
                    ball = extract_ball(h, x, r, hl, width, hc)
                    assert canonical_code(ball, known) == oracles.canonical_code(ball)
    assert known.hits > 50


def test_probe_ends_the_search_for_known_classes(monkeypatch):
    # the 12x12 torus at R=3 has two non-tree codes (radii 2 and 3) among
    # 31 raw balls: the search runs to completion once per code, 19 balls
    # are answered by their ball key in ball order before any search, and
    # the other 10 by the ball key of their first leaf
    real = balls._search
    runs = Counter()

    def counted(ball, core, dist, form, known):
        size = len(known)
        code = real(ball, core, dist, form, known)
        runs["full" if len(known) > size else "answered"] += 1
        return code

    monkeypatch.setattr(balls, "_search", counted)
    cache = _CodeTable()
    census(generate(FamilySpec("grid_torus", (12, 12))), (1, 2, 3), cache=cache)
    assert runs == {"full": 2, "answered": 10}
    assert cache.hits == 29


def test_core_keys_in_the_cache_are_sound():
    # one table across hosts, relabelled copies, radii, labels and colours:
    # every answer, from a ball key or not, is the oracle's code.  A paw
    # with a tail has equal balls at radii 2-4, and labels of width 0 and
    # colours that are all 0 leave only the flags to tell balls apart
    rr, _, _, ec = _form_hosts()[6]
    paw = validate([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)], 5, 3)
    hosts = _form_hosts() + [
        (paw, None, 0, None),
        (rr, (0,) * rr.n, 0, None),
        (rr, None, 0, dict.fromkeys(ec, 0)),
        (rr, (0,) * rr.n, 0, dict.fromkeys(ec, 0)),
    ]
    known = _CodeTable()
    rng = random.Random(7)
    for g, labels, width, colors in hosts:
        copies = [(g, labels, colors)] + [_relabelled(g, labels, colors, rng) for _ in range(2)]
        for h, hl, hc in copies:
            for x in range(0, h.n, 3):
                for r in (1, 2, 3, 4):
                    ball = extract_ball(h, x, r, hl, width, hc)
                    assert canonical_code(ball, known) == oracles.canonical_code(ball)
    for cycle_first in (False, True):
        ball = _cycle_and_triangles(cycle_first)
        assert canonical_code(ball, known) == oracles.canonical_code(ball)
    assert known.hits > 100
    # a census leaves only tuple keys: raw keys, which start with a tuple
    # of radii, and ball keys, which start with the radius
    shared: dict = {}
    for g, labels, width, colors in _form_hosts():
        census(g, (1, 2, 3), labels, width, colors, shared)
    assert {(type(key), type(key[0])) for key in shared} == {(tuple, tuple), (tuple, int)}


# sha256 over the length-prefixed codes of random_regular(2000, 3), seed 0,
# at radii 1-4, as computed before core keys
RR2000_R4_CODES_SHA256 = "90b3b1460d9c0b15e3ec3bde0cf8e759cbbd9a919c96cc4fd228412622d1c5d6"


def test_core_keys_cut_the_searches_of_a_census(monkeypatch):
    # random_regular(2000, 3) at R=4: 683 searches without ball keys, for
    # 43 radius-4 codes; every code byte as before
    real = balls._search
    runs = []

    def counted(*args):
        runs.append(1)
        return real(*args)

    monkeypatch.setattr(balls, "_search", counted)
    g = generate(FamilySpec("random_regular", (2000, 3), seed=0))
    h = hashlib.sha256()
    for codes in census(g, (1, 2, 3, 4)):
        for code in codes:
            h.update(len(code).to_bytes(4, "little"))
            h.update(code)
    assert len(runs) == 109
    assert h.hexdigest() == RR2000_R4_CODES_SHA256


def test_census_leaves_no_cyclic_garbage():
    # the search's nested function refers to itself; unbinding it after the
    # search frees the ball and the shared cache it holds at once, instead
    # of keeping them until the next collection
    g = generate(FamilySpec("grid_torus", (8, 8)))
    gc.collect()
    gc.disable()
    try:
        census(g, (1, 2, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()
