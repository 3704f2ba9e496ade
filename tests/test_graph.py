import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhdecomp.errors import (
    DegreeExceededError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
    VertexSetMismatchError,
)
from qhdecomp.graph import (
    boundary_edge_count,
    connected_components,
    delete_edges,
    edit_distance,
    from_edge_list,
    spanned_subgraph,
    square_graph,
    to_edge_list,
    validate,
)

from conftest import complete, cycle, graphs, random_bounded_graph


def test_validate_triangle():
    g = validate([(0, 1), (1, 2), (2, 0)], 3, 2)
    assert g.n == 3 and g.edge_count() == 3


def test_validate_self_loop():
    with pytest.raises(SelfLoopError):
        validate([(0, 0)], 1, 2)


def test_validate_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        validate([(0, 1), (1, 0)], 2, 2)


def test_validate_degree_exceeded():
    with pytest.raises(DegreeExceededError) as exc:
        validate([(0, 1), (0, 2), (0, 3), (0, 4)], 5, 3)
    assert exc.value.vertex == 0 and exc.value.degree == 4


def test_validate_negative_sizes():
    # n = -2 used to build a Graph on which the anneal never ended
    for n, d in ((-2, 2), (0, -1)):
        with pytest.raises(FormatError, match="negative vertex count or degree bound"):
            validate([], n, d)
    with pytest.raises(FormatError, match="n=-2"):
        from_edge_list("-2 2\n")
    # a non-integer token used to raise a bare ValueError from int()
    with pytest.raises(FormatError, match="bad edge line: '0 x'"):
        from_edge_list("4 2\n0 x\n")
    with pytest.raises(FormatError, match="bad header line: 'four 2'"):
        from_edge_list("four 2\n")


def test_spanned_subgraph_arc_of_cycle():
    sub, index = spanned_subgraph(cycle(6), [0, 1, 2])
    assert sub.n == 3 and sorted(sub.edges()) == [(0, 1), (1, 2)]
    assert index == {0: 0, 1: 1, 2: 2}


def test_spanned_subgraph_identity():
    g = cycle(6)
    sub, _ = spanned_subgraph(g, range(6))
    assert sub.adjacency == g.adjacency


def test_spanned_subgraph_edge_of_k4():
    sub, _ = spanned_subgraph(complete(4), [0, 1])
    assert sub.n == 2 and list(sub.edges()) == [(0, 1)]


def test_spanned_subgraph_empty():
    sub, index = spanned_subgraph(cycle(5), [])
    assert sub.n == 0 and index == {}


def test_boundary_cycle_arc():
    assert boundary_edge_count(cycle(6), [0, 1, 2]) == 2


def test_boundary_whole():
    assert boundary_edge_count(cycle(6), range(6)) == 0


def test_boundary_k4_pair():
    # K_4 has 6 edges: one inside {0,1}, one inside {2,3}, four crossing
    assert boundary_edge_count(complete(4), [0, 1]) == 4


def test_connected_components():
    g = validate(
        [(i, (i + 1) % 4) for i in range(4)]
        + [(4 + i, 4 + (i + 1) % 6) for i in range(6)],
        10,
        2,
    )
    comps = connected_components(g)
    assert [len(c) for c in comps] == [4, 6]
    assert comps[0][0] == 0


def test_components_isolated():
    assert connected_components(validate([], 3, 2)) == [[0], [1], [2]]


def test_components_single():
    assert len(connected_components(cycle(10))) == 1


def test_square_of_cycle():
    sq = square_graph(cycle(6))
    for v in range(6):
        assert sorted(sq.adjacency[v]) == sorted(
            {(v + o) % 6 for o in (-2, -1, 1, 2)}
        )
    assert sq.degree_bound == 4


def test_square_of_single_edge():
    g = validate([(0, 1)], 2, 1)
    assert square_graph(g).adjacency == g.adjacency


def test_square_of_path3_is_triangle():
    sq = square_graph(validate([(0, 1), (1, 2)], 3, 2))
    assert sq.edge_count() == 3


def test_edit_distance_examples():
    c4 = cycle(4)
    c4_minus = delete_edges(c4, [(0, 1)])
    assert edit_distance(c4, c4_minus) == Fraction(1, 4)
    assert edit_distance(c4, c4) == 0
    h = validate([(0, 1), (1, 2), (2, 3), (0, 2)], 4, 3)
    assert edit_distance(c4, h) == Fraction(2, 4)


def test_edit_distance_mismatch():
    with pytest.raises(VertexSetMismatchError):
        edit_distance(cycle(4), cycle(5))
    # -1 used to alias vertex 3 (a boundary of 2), and 9 raised IndexError
    for bad in ([-1], [9]):
        with pytest.raises(VertexSetMismatchError, match="out of range"):
            boundary_edge_count(cycle(4), bad)


@given(graphs(max_n=14), st.randoms(use_true_random=False))
def test_boundary_edge_identity(g, rnd):
    # every edge is inside S, inside the complement, or crossing
    subset = [v for v in range(g.n) if rnd.random() < 0.5]
    comp = [v for v in range(g.n) if v not in set(subset)]
    inner, _ = spanned_subgraph(g, subset)
    outer, _ = spanned_subgraph(g, comp)
    assert (
        boundary_edge_count(g, subset)
        + inner.edge_count()
        + outer.edge_count()
        == g.edge_count()
    )


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_edit_distance_pseudo_metric(n, seed):
    rng = random.Random(seed)
    a = random_bounded_graph(n, 4, rng)
    b = random_bounded_graph(n, 4, rng)
    c = random_bounded_graph(n, 4, rng)
    assert edit_distance(a, b) == edit_distance(b, a)
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
    assert (edit_distance(a, b) == 0) == (a.adjacency == b.adjacency)


@given(graphs(max_n=20, max_d=5))
def test_square_degree_bound(g):
    sq = square_graph(g)
    assert all(sq.degree(v) <= g.degree_bound ** 2 for v in range(g.n))


@given(graphs(max_n=20, max_d=5))
def test_edge_list_round_trip(g):
    assert from_edge_list(to_edge_list(g)).adjacency == g.adjacency
    assert to_edge_list(from_edge_list(to_edge_list(g))) == to_edge_list(g)
