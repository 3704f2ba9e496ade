from fractions import Fraction

import pytest

from qhdecomp.decomposer import (
    MODE_EXACT,
    _agglomerate,
    Partition,
    THRESHOLD_PROOF,
    THRESHOLD_THEOREM,
    absorb_small_parts,
    decompose,
    part_size_threshold,
    required_deletions,
    splitting_diagnostics,
    verify_partition,
)
from qhdecomp.balls import census
from qhdecomp.errors import InconsistentPartitionError, KMismatchError
from qhdecomp.families import FamilySpec, generate, generate_detailed
from qhdecomp.graph import delete_edges, from_adjacency
from qhdecomp.stats import d_s, stability_ds_bound, stat_vector

from conftest import cycle, torus
from oracles import agglomerate


def _vertex_codes(g, M):
    # the signatures decompose clusters: every vertex's radius-M code
    return [code for (code,) in census(g, (M,))]


def _partition_for(g, assignment, K):
    return Partition(g.n, tuple(assignment), K, tuple(sorted(required_deletions(g, assignment))))


def test_decompose_separates_disjoint_cycles():
    g = generate(FamilySpec(
        "disjoint_union", parts=(FamilySpec("cycle", (4,)), FamilySpec("cycle", (6,)))
    ))
    p = decompose(g, Fraction(1, 10), Fraction(3, 10), 2, 2)
    assert p.K == 2 and not p.deleted_edges
    assert len({p.assignment[v] for v in range(4)}) == 1
    assert len({p.assignment[v] for v in range(4, 10)}) == 1


def test_decompose_rejects_kmax_below_one():
    with pytest.raises(KMismatchError):
        decompose(cycle(6), Fraction(1, 10), Fraction(3, 10), 0, 1)


def _agglomeration_cases():
    for seed in range(3):
        g = generate(FamilySpec(
            "bridged_union",
            parts=(FamilySpec("grid_torus", (4, 4)),
                   FamilySpec("random_regular", (12, 3), seed=seed)),
            bridges=1 + seed,
            seed=seed,
        ))
        for M in (1, 2, 3):
            yield f"bridged{seed}/M{M}", g, M
    # cycles of different lengths: one class per cycle, every pair at TV 1
    cycles = generate(FamilySpec(
        "disjoint_union", parts=tuple(FamilySpec("cycle", (n,)) for n in range(3, 9))
    ))
    yield "cycles", cycles, 3
    # isolated vertices form a class with no neighbor codes at all
    path = [[1], [0, 2], [1, 3], [2]]
    yield "isolated", from_adjacency(path + [[], [], []], 2), 1


def test_agglomerate_matches_reference():
    for name, g, M in _agglomeration_cases():
        codes = _vertex_codes(g, M)
        classes = {}
        for v, code in enumerate(codes):
            classes.setdefault(code, []).append(v)
        for K_max in sorted({1, 2, 3, len(classes)}):
            expected = agglomerate(g, codes, classes, K_max)
            assert _agglomerate(g, codes, classes, K_max) == expected, (name, K_max)


def test_mixed_part_violation_shows_only_at_radius_three():
    # M=1 signatures put the whole torus and 82 regular vertices in one
    # part.  Inside it the torus has boundary 2; at R=2 its d_s, 0.225,
    # is below delta + 1/4, so the part passes, while at R=3 it exceeds
    # delta + 1/8 and the falsifier certifies the violation.
    spec = FamilySpec(
        "bridged_union",
        parts=(FamilySpec("grid_torus", (10, 10)), FamilySpec("random_regular", (100, 4))),
        bridges=2,
    )
    g = generate(spec)
    delta, lam, eps = Fraction(1, 10), Fraction(3, 10), Fraction(1, 20)
    p = decompose(g, delta, lam, 2, 1, 0)
    assert sorted(p.part_sizes().values()) == [18, 182]
    at2 = verify_partition(g, p, delta, lam, eps, 2, budget=1500, seed=0)
    at3 = verify_partition(g, p, delta, lam, eps, 3, budget=1500, seed=0)
    assert at2.passed and not at3.passed
    assert [pc.quasihom.status for pc in at3.parts if pc.size == 182] == ["violated"]


def test_decompose_torus_single_part():
    p = decompose(torus(8, 8), Fraction(1, 10), Fraction(3, 10), 3, 1)
    assert p.K == 1 and not p.deleted_edges


def test_decompose_recovers_bridged_blocks():
    spec = FamilySpec(
        "bridged_union",
        parts=(FamilySpec("grid_torus", (8, 8)), FamilySpec("random_regular", (64, 3), seed=9)),
        bridges=3,
        seed=9,
    )
    det = generate_detailed(spec)
    p = decompose(det.graph, Fraction(1, 10), Fraction(3, 10), 2, 1)
    assert sorted(p.deleted_edges) == sorted(det.bridge_edges)
    (a0, a1), (b0, b1) = det.blocks
    assert len({p.assignment[v] for v in range(a0, a1)}) == 1
    assert len({p.assignment[v] for v in range(b0, b1)}) == 1


def test_absorb_small_parts():
    g = cycle(50)
    # fraction 1/50 = 0.02 <= delta/(10 d K) = 0.9/40 = 0.0225
    assignment = [1] * 49 + [2]
    p = _partition_for(g, assignment, 2)
    absorbed = absorb_small_parts(g, p, Fraction(9, 10), THRESHOLD_PROOF)
    assert absorbed.assignment[49] == 0
    assert absorbed.part_sizes().get(0) == 1
    # absorbed part's incident edges are deleted
    assert set(p.deleted_edges) <= set(absorbed.deleted_edges)
    # idempotent
    assert absorb_small_parts(g, absorbed, Fraction(9, 10), THRESHOLD_PROOF) == absorbed


def test_absorb_identity_when_all_big():
    g = cycle(12)
    p = _partition_for(g, [1] * 6 + [2] * 6, 2)
    assert absorb_small_parts(g, p, Fraction(1, 10)) == p


def test_absorb_counts_internal_edges():
    g = cycle(200)
    # two tiny parts of fraction 0.01 <= 0.9/(10*2*3) = 0.015
    assignment = [3] * 200
    assignment[0] = assignment[1] = 1
    assignment[100] = assignment[101] = 2
    p = _partition_for(g, assignment, 3)
    before = set(p.deleted_edges)
    absorbed = absorb_small_parts(g, p, Fraction(9, 10), THRESHOLD_PROOF)
    gained = set(absorbed.deleted_edges) - before
    assert gained == {(0, 1), (100, 101)}
    assert absorbed.part_sizes()[0] == 4


def test_threshold_modes():
    assert part_size_threshold(Fraction(1, 2), 3, 4, THRESHOLD_THEOREM) == Fraction(1, 480)
    assert part_size_threshold(Fraction(1, 2), 3, 4, THRESHOLD_PROOF) == Fraction(1, 240)


def test_verify_trivial_partition_passes():
    g = torus(6, 6)
    p = _partition_for(g, [1] * g.n, 1)
    verdict = verify_partition(
        g, p, Fraction(3, 10), Fraction(3, 10), Fraction(1, 10), 2, budget=1500
    )
    assert verdict.passed


def test_declared_k_beyond_vertex_count_is_refused():
    # both checks loop over the parts 1..K, so a huge K used to hang them
    g = cycle(3)
    p = Partition(3, (1, 1, 1), 10 ** 9, ())
    with pytest.raises(InconsistentPartitionError, match="K = 1000000000 parts for 3 vertices"):
        verify_partition(g, p, Fraction(1, 2), Fraction(3, 10), Fraction(1, 10), 1)
    with pytest.raises(InconsistentPartitionError, match="K = 1000000000 parts"):
        splitting_diagnostics([(g, p)], 1)
    # K = n is a partition into singletons
    assert splitting_diagnostics([(g, Partition(3, (1, 2, 3), 3, tuple(g.edges())))], 1).K == 3
    # absorb_small_parts used to return both of these unchecked
    with pytest.raises(InconsistentPartitionError, match="host size mismatch"):
        absorb_small_parts(cycle(4), Partition(5, (1, 1, 1, 1), 1, ()), Fraction(1, 10))
    with pytest.raises(InconsistentPartitionError, match="vertex 1 is in part 3, outside 0..1"):
        absorb_small_parts(cycle(4), Partition(4, (0, 3, 3, 3), 1, ()), Fraction(1, 10))


def test_verify_rejects_total_deletion():
    g = cycle(10)
    p = Partition(10, tuple([1] * 5 + [2] * 5), 2, tuple(g.edges()))
    with pytest.raises(InconsistentPartitionError):
        # deleting every edge is not the required set for this assignment
        verify_partition(g, p, Fraction(1, 2), Fraction(3, 10), Fraction(1, 10), 1)


def test_verify_fails_on_overbudget_deletions():
    g = cycle(10)
    # alternating parts force all 10 edges deleted; budget delta=0.3 allows 3
    p = _partition_for(g, [1 + (v % 2) for v in range(10)], 2)
    verdict = verify_partition(
        g, p, Fraction(3, 10), Fraction(2, 10), Fraction(1, 10), 1, budget=100
    )
    assert not verdict.deleted_ok and not verdict.passed


def test_verify_fails_small_part():
    # fraction 1/200 = 0.005 <= proof threshold 0.9/(10*2*2) = 0.0225
    g = cycle(200)
    assignment = [1] * (g.n - 1) + [2]
    p = _partition_for(g, assignment, 2)
    verdict = verify_partition(
        g, p, Fraction(9, 10), Fraction(3, 10), Fraction(1, 10), 1,
        threshold_mode=THRESHOLD_PROOF, budget=50,
    )
    assert not verdict.sizes_ok and not verdict.passed


def test_verify_empty_part_fraction():
    g = cycle(20)
    assignment = [0] * 8 + [1] * 12
    p = _partition_for(g, assignment, 1)
    verdict = verify_partition(
        g, p, Fraction(3, 10), Fraction(3, 10), Fraction(1, 10), 1, budget=100
    )
    # 8/20 = 0.4 >= delta = 0.3
    assert not verdict.empty_part_ok


def test_verify_exact_mode_small_parts():
    g = generate(FamilySpec(
        "disjoint_union", parts=(FamilySpec("cycle", (8,)), FamilySpec("cycle", (8,)))
    ))
    p = _partition_for(g, [1] * 8 + [2] * 8, 2)
    verdict = verify_partition(
        g, p, Fraction(3, 10), Fraction(3, 10), Fraction(1, 10), 2, mode=MODE_EXACT
    )
    assert verdict.passed


def test_verify_rejects_unknown_mode():
    # a misspelt mode used to run the heuristic and report passed: True
    g = torus(6, 6)
    p = _partition_for(g, [1] * g.n, 1)
    with pytest.raises(ValueError, match="exakt"):
        verify_partition(g, p, Fraction(3, 10), Fraction(3, 10), Fraction(1, 10), 2, mode="exakt")
    with pytest.raises(ValueError, match="nope"):
        part_size_threshold(Fraction(1, 2), 3, 4, "nope")


def test_splitting_mixture_identity_cycle_arcs():
    items = []
    for m in (4, 6, 8):
        g = cycle(2 * m)
        assignment = [1 if v < m else 2 for v in range(2 * m)]
        items.append((g, _partition_for(g, assignment, 2)))
    rep = splitting_diagnostics(items, 2)
    assert all(it.mixture_exact for it in rep.items)
    assert [it.cross_edge_ratio for it in rep.items] == [
        Fraction(1, 4), Fraction(1, 6), Fraction(1, 8)
    ]
    assert rep.cross_ratio_nonincreasing


def test_splitting_trivial_partition_is_whole():
    g = cycle(12)
    p = _partition_for(g, [1] * 12, 1)
    rep = splitting_diagnostics([(g, p)], 2)
    assert rep.items[0].mixture_exact
    assert rep.items[0].part_fractions[1] == 1


def test_splitting_torus_seam_trend():
    items = []
    for m in (3, 4, 5):
        g = torus(2 * m, 2 * m)
        cols = 2 * m
        assignment = [1 if (v % cols) < m else 2 for v in range(g.n)]
        items.append((g, _partition_for(g, assignment, 2)))
    rep = splitting_diagnostics(items, 1)
    assert rep.cross_ratio_nonincreasing
    assert all(it.mixture_exact for it in rep.items)


def test_splitting_shared_cache_keeps_a_kept_bridge():
    # the bridge moves its ends' balls in the post-deletion graph away from
    # their balls in the parts, so the shared raw-ball cache must miss there
    g = generate(FamilySpec(
        "bridged_union", parts=(FamilySpec("cycle", (8,)), FamilySpec("cycle", (8,))),
        bridges=1, seed=3,
    ))
    assignment = tuple(1 if v < 8 else 2 for v in range(16))
    (bridge,) = required_deletions(g, assignment)
    for R in (1, 2, 3):
        kept = splitting_diagnostics([(g, Partition(16, assignment, 2, ()))], R)
        assert not kept.items[0].mixture_exact
        cut = splitting_diagnostics([(g, Partition(16, assignment, 2, (bridge,)))], R)
        assert cut.items[0].mixture_exact


def test_splitting_k_mismatch():
    g = cycle(8)
    p1 = _partition_for(g, [1] * 8, 1)
    p2 = _partition_for(g, [1] * 4 + [2] * 4, 2)
    with pytest.raises(KMismatchError):
        splitting_diagnostics([(g, p1), (g, p2)], 1)


def test_stability_chain_on_partition():
    # d_s between G and the post-deletion graph obeys the edit bound
    spec = FamilySpec(
        "bridged_union",
        parts=(FamilySpec("grid_torus", (6, 6)), FamilySpec("random_regular", (36, 3), seed=1)),
        bridges=2,
        seed=1,
    )
    g = generate(spec)
    p = decompose(g, Fraction(1, 10), Fraction(3, 10), 2, 1)
    h = delete_edges(g, p.deleted_edges)
    value, _ = d_s(stat_vector(g, 3), stat_vector(h, 3))
    assert value <= stability_ds_bound(g.degree_bound, len(p.deleted_edges), g.n, 3)
