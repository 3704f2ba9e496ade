import pytest

from qhdecomp.errors import FormatError, InfeasibleSpecError
from qhdecomp.families import _KINDS, FamilySpec, generate, generate_detailed, sequence
from qhdecomp.graph import to_edge_list
from qhdecomp.reports import _schema, family_specs_from_json
from qhdecomp.stats import d_s, stat_vector


def test_cycle_and_torus_counts():
    c = generate(FamilySpec("cycle", (10,)))
    assert c.n == 10 and c.edge_count() == 10
    assert all(c.degree(v) == 2 for v in range(10))
    t = generate(FamilySpec("grid_torus", (4, 4)))
    assert t.n == 16 and t.edge_count() == 32
    assert all(t.degree(v) == 4 for v in range(16))


def test_path_and_tree():
    p = generate(FamilySpec("path", (6,)))
    assert p.edge_count() == 5
    tree = generate(FamilySpec("d_ary_tree", (3, 2)))
    assert tree.n == 1 + 3 + 9 and tree.edge_count() == tree.n - 1
    assert tree.degree(0) == 3 and tree.degree_bound == 4


def test_random_regular_is_regular_connected_enough():
    g = generate(FamilySpec("random_regular", (100, 3), seed=0))
    assert all(g.degree(v) == 3 for v in range(100))


def test_bridged_union_exact_bridges():
    spec = FamilySpec(
        "bridged_union",
        parts=(FamilySpec("cycle", (20,)), FamilySpec("cycle", (30,))),
        bridges=2,
        seed=1,
    )
    det = generate_detailed(spec)
    assert det.graph.n == 50
    assert det.graph.degree_bound == 3
    cross = [
        (u, v) for u, v in det.graph.edges() if (u < 20) != (v < 20)
    ]
    assert sorted(cross) == sorted(det.bridge_edges)
    assert len(det.bridge_edges) == 2


def test_determinism_bit_exact():
    spec = FamilySpec(
        "bridged_union",
        parts=(FamilySpec("grid_torus", (6, 6)), FamilySpec("random_regular", (36, 3), seed=9)),
        bridges=3,
        seed=9,
    )
    assert to_edge_list(generate(spec)) == to_edge_list(generate(spec))


def test_degree_bounds_honored():
    specs = [
        FamilySpec("cycle", (9,)),
        FamilySpec("grid_torus", (3, 5)),
        FamilySpec("random_regular", (30, 4), seed=3),
        FamilySpec("d_ary_tree", (2, 4)),
    ]
    for spec in specs:
        g = generate(spec)
        assert all(g.degree(v) <= g.degree_bound for v in range(g.n))


def test_infeasible_specs():
    with pytest.raises(InfeasibleSpecError):
        generate(FamilySpec("random_regular", (9, 3), seed=0))  # odd n*d
    with pytest.raises(InfeasibleSpecError):
        generate(FamilySpec("cycle", (2,)))
    with pytest.raises(InfeasibleSpecError):
        generate(FamilySpec("grid_torus", (2, 5)))
    with pytest.raises(InfeasibleSpecError):
        generate(FamilySpec("nonsense", (1,)))
    with pytest.raises(InfeasibleSpecError):
        FamilySpec("cycle", (3, 4))
    with pytest.raises(InfeasibleSpecError):
        FamilySpec("disjoint_union", (3,), parts=(FamilySpec("cycle", (3,)),))
    # true used to read as the integer 1; negative bridges used to reach rng.sample
    for doc in ({"params": [5]}, [], {"kind": "cycle", "params": 5},
                {"kind": "cycle", "params": [5], "bridge": 1},
                {"kind": "path", "params": [True]},
                {"kind": "bridged_union", "parts": [{"kind": "cycle", "params": [3]}] * 2,
                 "bridges": -1}):
        with pytest.raises(FormatError):
            family_specs_from_json(doc)
    # nesting past the interpreter's recursion limit is a typed refusal
    doc, deep = {"kind": "cycle", "params": [3]}, FamilySpec("cycle", (3,))
    for _ in range(3000):
        doc = {"kind": "disjoint_union", "parts": [doc]}
        deep = FamilySpec("disjoint_union", parts=(deep,))
    with pytest.raises(FormatError, match="nested too deeply"):
        family_specs_from_json(doc)
    with pytest.raises(InfeasibleSpecError, match="nested too deeply"):
        generate(deep)
    # an integral float is an integer, as the family_specs schema reads it
    (six,) = family_specs_from_json({"kind": "cycle", "params": [6.0]})
    assert six == FamilySpec("cycle", (6,)) and type(six.params[0]) is int


def test_torus_local_flatness():
    for L1 in (6, 8):
        for L2 in (10, 12):
            a = stat_vector(generate(FamilySpec("grid_torus", (L1, L1))), 2)
            b = stat_vector(generate(FamilySpec("grid_torus", (L2, L2))), 2)
            assert d_s(a, b)[0] == 0


def test_sequence_tori_flat():
    rep = sequence([FamilySpec("grid_torus", (L, L)) for L in (6, 8, 10)], 2)
    assert all(v == 0 for v in rep.pairwise.values())
    assert rep.consecutive_nonincreasing


def test_sequence_cycles_radius3():
    # wrap-around needs n <= 2r+1, so C_6 differs at radius 3 while every
    # longer cycle's radius-3 ball is the path P_7
    rep = sequence([FamilySpec("cycle", (n,)) for n in (6, 16, 32)], 3)
    assert rep.pairwise[(1, 2)] == 0
    assert rep.pairwise[(0, 1)] > 0 and rep.pairwise[(0, 2)] > 0
    rep8 = sequence([FamilySpec("cycle", (n,)) for n in (8, 16)], 3)
    assert rep8.pairwise[(0, 1)] == 0


def test_sequence_mixed_proportions_stable():
    # fixed-proportion unions keep their statistics: the non-ergodic family
    def spec(m):
        return FamilySpec(
            "disjoint_union",
            parts=(
                FamilySpec("grid_torus", (2 * m, 2 * m)),
                FamilySpec("cycle", (4 * m * m,)),
            ),
        )

    rep = sequence([spec(m) for m in (3, 4, 5)], 2)
    assert all(v == 0 for v in rep.pairwise.values())


def test_spec_json_round_trip():
    spec = FamilySpec(
        "bridged_union",
        parts=(FamilySpec("cycle", (12,)), FamilySpec("random_regular", (12, 3), seed=4)),
        bridges=2,
        seed=7,
    )
    assert family_specs_from_json(spec.to_json()) == [spec]


def test_kinds_match_the_schema_enum():
    # a kind the family_spec enum lacks is refused in every spec file
    enum = _schema("family_specs")["$defs"]["family_spec"]["properties"]["kind"]["enum"]
    assert sorted(_KINDS) == sorted(enum)


def _nested(depth, params=(3,)):
    spec = FamilySpec("cycle", params)
    for _ in range(depth):
        spec = FamilySpec("disjoint_union", parts=(spec,))
    return spec


def test_specs_as_deep_as_generate_builds_compare():
    # == compared fields one Python frame per level and ended in a
    # RecursionError at 250 levels, short of what generate builds
    built, refused = 1, 5000  # generate builds `built` levels, not `refused`
    generate(_nested(built))
    with pytest.raises(InfeasibleSpecError):
        generate(_nested(refused))
    while refused - built > 1:
        depth = (built + refused) // 2
        try:
            generate(_nested(depth))
            built = depth
        except InfeasibleSpecError:
            refused = depth
    a, b = _nested(built), _nested(built)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _nested(built, (4,))
