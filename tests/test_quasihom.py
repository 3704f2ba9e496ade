import hashlib
import random
from fractions import Fraction

import pytest

from qhdecomp import quasihom
from qhdecomp.errors import EmptyGraphError, TooLargeForExactError, VertexSetMismatchError
from qhdecomp.families import FamilySpec, generate
from qhdecomp.graph import boundary_edge_count, connected_components, from_adjacency, validate
from qhdecomp.quasihom import (
    HOLDS_EXACT,
    NO_VIOLATION,
    VIOLATED,
    QuasihomParams,
    _seed_candidates,
    check_exact,
    falsify_heuristic,
    verify_certificate,
)
from qhdecomp.stats import d_s, stat_vector

from conftest import cycle, disjoint_union, double, path, random_bounded_graph
from oracles import anneal_chain, evaluate


def test_params_validation():
    with pytest.raises(ValueError):
        QuasihomParams(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), 2)  # eps >= delta
    with pytest.raises(ValueError):
        QuasihomParams(Fraction(1, 8), Fraction(0), Fraction(1, 4), 2)


def test_cycle12_holds():
    p = QuasihomParams(Fraction(1, 12), Fraction(1, 2), Fraction(1, 2), 1)
    verdict = check_exact(cycle(12), p)
    assert verdict.status == HOLDS_EXACT
    # boundary of any proper arc union is >= 2 > eps*n = 1, so only S = V qualifies
    assert verdict.candidates_checked == 1


def test_identical_halves_contribute_nothing():
    g = double(cycle(6))
    p = QuasihomParams(Fraction(1, 12), Fraction(2, 5), Fraction(1, 8), 2)
    verdict = check_exact(g, p)
    assert verdict.status == HOLDS_EXACT


def test_planted_two_block_violation():
    g = generate(FamilySpec(
        "disjoint_union",
        parts=(FamilySpec("cycle", (10,)), FamilySpec("random_regular", (10, 3), seed=4)),
    ))
    p = QuasihomParams(Fraction(1, 20), Fraction(2, 5), Fraction(1, 10), 3)
    verdict = check_exact(g, p)
    assert verdict.status == VIOLATED
    ok, stats = verify_certificate(g, verdict.witness, p)
    assert ok and stats.certified
    # the witness is one of the halves
    assert len(verdict.witness) == 10


def test_exact_cap():
    with pytest.raises(TooLargeForExactError):
        check_exact(cycle(25), QuasihomParams(Fraction(1, 25), Fraction(1, 2), Fraction(1, 4), 1))


def test_exact_beyond_cap_with_zero_boundary_budget():
    # floor(epsilon * n) = 0 admits only unions of components, so graphs
    # past the vertex cap get an exact verdict while they have at most
    # EXHAUSTIVE_CAP components
    p = QuasihomParams(Fraction(1, 100), Fraction(3, 10), Fraction(1, 10), 3)
    verdict = check_exact(cycle(30), p)
    assert verdict.status == HOLDS_EXACT and verdict.candidates_checked == 1
    mixed = disjoint_union(cycle(22), generate(FamilySpec("grid_torus", (4, 4))))
    split = check_exact(mixed, p)
    assert split.status == VIOLATED
    assert verify_certificate(mixed, split.witness, p)[0]
    matching = validate([(2 * i, 2 * i + 1) for i in range(21)], 42, 1)
    with pytest.raises(TooLargeForExactError):
        check_exact(matching, p)


def test_component_unions_match_plain_enumeration():
    # with a boundary budget of 0 the scan over unions of components sees
    # exactly the subsets the bitmask scan admits
    rng = random.Random(11)
    hosts = [
        disjoint_union(cycle(6), path(5), cycle(4)),
        disjoint_union(cycle(3), cycle(3), path(2), path(7)),
        double(cycle(9)),
        disjoint_union(path(1), path(1), cycle(5), path(6)),
    ] + [random_bounded_graph(rng.randrange(10, 21), 2, rng, tries=rng.randrange(5, 12))
         for _ in range(8)]
    statuses = set()
    for g in hosts:
        assert len(connected_components(g)) > 1
        for lam in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)):
            for delta, R in ((Fraction(1, 20), 2), (Fraction(1, 8), 3), (Fraction(1, 4), 1)):
                p = QuasihomParams(Fraction(1, 4 * g.n), lam, delta, R)
                plain = check_exact(g, p)
                components = quasihom._unions(
                    g, connected_components(g), quasihom._size_threshold(p, g.n), 0
                )
                got = quasihom._scan(quasihom._evaluator(g, R), components, delta)
                statuses.add(plain.status)
                assert got.status == plain.status
                if got.status == HOLDS_EXACT:
                    assert (got.candidates_checked, got.near_misses) == (
                        plain.candidates_checked, plain.near_misses
                    )
                else:
                    assert verify_certificate(g, got.witness, p)[0]
    assert statuses == {HOLDS_EXACT, VIOLATED}


def test_verify_rejects_whole_and_small():
    g = cycle(12)
    p = QuasihomParams(Fraction(1, 12), Fraction(1, 2), Fraction(1, 4), 2)
    assert verify_certificate(g, range(12), p)[0] is False  # d_s = 0
    assert verify_certificate(g, [0, 1], p)[0] is False  # below lambda*n
    assert verify_certificate(g, [], p)[0] is False


def test_budget_zero_is_empty_search(monkeypatch):
    g = cycle(12)
    p = QuasihomParams(Fraction(1, 12), Fraction(1, 2), Fraction(1, 4), 2)

    def no_evaluator(*args):
        raise AssertionError("an evaluator was built for an empty search")

    monkeypatch.setattr(quasihom, "_evaluator", no_evaluator)
    verdict = falsify_heuristic(g, p, budget=0)
    assert verdict.status == NO_VIOLATION and verdict.candidates_checked == 0


def test_heuristic_finds_planted_and_roundtrips():
    g = generate(FamilySpec(
        "bridged_union",
        parts=(FamilySpec("grid_torus", (5, 5)), FamilySpec("random_regular", (24, 3), seed=2)),
        bridges=1,
        seed=2,
    ))
    p = QuasihomParams(Fraction(1, 25), Fraction(3, 10), Fraction(1, 10), 3)
    verdict = falsify_heuristic(g, p, budget=5000, seed=3)
    assert verdict.status == VIOLATED
    ok, _ = verify_certificate(g, verdict.witness, p)
    assert ok


def test_heuristic_never_contradicts_exact_small_sample():
    # scaled-down version of the acceptance soundness run
    rng = random.Random(7)
    both = {HOLDS_EXACT: 0, VIOLATED: 0}
    for trial in range(12):
        n = rng.randint(8, 12)
        g = random_bounded_graph(n, 3, rng)
        p = QuasihomParams(Fraction(1, n), Fraction(3, 10), Fraction(3, 20), 3)
        exact = check_exact(g, p)
        heur = falsify_heuristic(g, p, budget=2000, seed=trial)
        both[exact.status] += 1
        if exact.status == HOLDS_EXACT:
            assert heur.status != VIOLATED
        if heur.status == VIOLATED:
            assert verify_certificate(g, heur.witness, p)[0]


def test_monotonicity_on_parameter_grid():
    g = generate(FamilySpec(
        "disjoint_union",
        parts=(FamilySpec("cycle", (7,)), FamilySpec("path", (7,))),
    ))
    grid = []
    for eps_num in (1, 2):
        for lam in (Fraction(3, 10), Fraction(1, 2)):
            for delta in (Fraction(1, 5), Fraction(2, 5)):
                p = QuasihomParams(Fraction(eps_num, 14), lam, delta, 2)
                grid.append((p, check_exact(g, p).status))
    for p1, s1 in grid:
        for p2, s2 in grid:
            weaker = (
                p2.epsilon <= p1.epsilon and p2.lam >= p1.lam and p2.delta >= p1.delta
            )
            if weaker and s1 == HOLDS_EXACT:
                assert s2 == HOLDS_EXACT


def test_cycle_arc_bound_bruteforce():
    """Differing-ball fraction of any subset of a cycle is at most
    2r * boundary / |S| per radius; exhaustive over C_12..C_16.

    Subset statistics depend only on the multiset of arc lengths, so the
    censuses are cached per multiset; the per-arc differing counts come
    from honest path censuses compared against the cycle's interior code.
    """
    R = 3
    # per-radius interior codes from a long cycle
    from qhdecomp.balls import codes_at_radii

    interior = codes_at_radii(cycle(40), 0, (1, 2, 3))
    # differing-count table per path length and radius
    diff_table: dict[int, dict[int, int]] = {}
    for L in range(1, 17):
        g = generate(FamilySpec("path", (L,))) if L > 1 else validate([], 1, 2)
        cache = {}
        counts = {r: 0 for r in range(1, R + 1)}
        for v in range(L):
            codes = codes_at_radii(g, v, (1, 2, 3), cache=cache)
            for r in range(1, R + 1):
                if codes[r] != interior[r]:
                    counts[r] += 1
        diff_table[L] = counts

    for n in (12, 13, 14, 15, 16):
        for mask in range(1, 1 << n):
            if mask == (1 << n) - 1:
                continue
            arcs = _arc_lengths(mask, n)
            size = sum(arcs)
            boundary = 2 * len(arcs)
            for r in (1, 2, 3):
                differing = sum(diff_table[L][r] for L in arcs)
                assert Fraction(differing, size) <= Fraction(2 * r * boundary, size)


def _arc_lengths(mask: int, n: int) -> list[int]:
    bits = [(mask >> i) & 1 for i in range(n)]
    if all(bits):
        return [n]
    # rotate so position 0 is outside S, then count runs
    start = bits.index(0)
    arcs = []
    run = 0
    for i in range(n):
        if bits[(start + i) % n]:
            run += 1
        elif run:
            arcs.append(run)
            run = 0
    if run:
        arcs.append(run)
    return arcs


def test_ds_to_subset_matches_direct_census():
    # sanity for the cached-arc shortcut above: direct evaluation agrees
    from qhdecomp.graph import spanned_subgraph

    g = cycle(12)
    subset = [0, 1, 2, 3, 6, 7, 8]
    sub, _ = spanned_subgraph(g, subset)
    value, _ = d_s(stat_vector(g, 2), stat_vector(sub, 2))
    assert value > 0


def test_seed_candidate_stream_pinned():
    # the annealing budget is spent after these seeds, so their order and
    # content are part of every heuristic verdict
    g = generate(FamilySpec("path", (60,)))
    p = QuasihomParams(Fraction(1, 10), Fraction(1, 4), Fraction(1, 5), 2)
    stream = [list(c) for c in _seed_candidates(g, p, 3, random.Random(0))]
    assert len(stream) == 28
    assert stream[-2] == [0, 1, 58, 59]
    assert hashlib.sha256(repr(stream).encode()).hexdigest() == (
        "e977e9b09880420c47c5f7da52d76337aa6ce6398061b12fc5375722f16f66ce"
    )


def _with_isolated_vertex(g):
    return from_adjacency([*g.adjacency, ()], g.degree_bound)


def _evaluator_cases():
    rng = random.Random(5)
    graphs = [random_bounded_graph(rng.randint(6, 16), 3, rng) for _ in range(8)]
    graphs += [cycle(9), cycle(14), path(7), path(12)]
    graphs.append(_with_isolated_vertex(generate(FamilySpec(
        "disjoint_union", parts=(FamilySpec("cycle", (6,)), FamilySpec("path", (5,))),
    ))))
    return graphs


def _independent_set(g):
    """Greedy maximal independent set of the non-isolated vertices: every
    member's ball leaves the set."""
    chosen: set[int] = set()
    for v in range(g.n):
        if g.adjacency[v] and not chosen.intersection(g.adjacency[v]):
            chosen.add(v)
    return sorted(chosen)


def test_evaluator_matches_reference():
    # one evaluator per (graph, R) answers every subset, so later subsets
    # also exercise the codes memoized for earlier ones
    rng = random.Random(17)
    for g in _evaluator_cases():
        n = g.n
        # the full set, one vertex, a whole component (every ball inside S)
        # and an independent set (every ball leaving S)
        subsets = [list(range(n)), [n - 1], connected_components(g)[0]]
        if _independent_set(g):
            subsets.append(_independent_set(g))
        for _ in range(12):
            subsets.append(sorted(rng.sample(range(n), rng.randint(1, n))))
        for R in (1, 2, 3):
            p = QuasihomParams(Fraction(1, 20), Fraction(1, 2), Fraction(1, 10), R)
            base = stat_vector(g, R)
            ev = quasihom._evaluator(g, R)
            for subset in subsets:
                got = ev.evaluate(subset, boundary_edge_count(g, subset), p.delta)
                assert got == evaluate(g, base, subset, p), (g, R, subset)


def test_value_memo_follows_the_caller(monkeypatch):
    # the memo holds d_s alone: certified follows each call's delta, the
    # boundary is the caller's, and no call shares its stats object
    g = _evaluator_cases()[0]
    R = 2
    ev = quasihom._evaluator(g, R)
    subset = list(range(g.n // 2))
    boundary = boundary_edge_count(g, subset)
    first = ev.evaluate(subset, boundary, Fraction(1, 10 ** 6))
    tail = first.tail
    assert first.ds_value > tail
    low = ev.evaluate(subset, boundary, first.ds_value - tail - Fraction(1, 10 ** 6))
    high = ev.evaluate(subset, boundary, first.ds_value - tail)
    assert (low.certified, high.certified) == (True, False)
    p = QuasihomParams(Fraction(1, 10 ** 7), Fraction(1, 10), first.ds_value - tail, R)
    _, again = verify_certificate(g, subset, p)
    assert first.ds_value == low.ds_value == high.ds_value == again.ds_value
    assert again.certified is False and again.boundary == boundary
    assert len({id(first), id(low), id(high), id(again)}) == 4
    assert len(ev.values) <= quasihom._MAX_CACHED_CODES + 1
    # past the cap the memo starts over, and its values stay the reference's
    monkeypatch.setattr(quasihom, "_MAX_CACHED_CODES", 3)
    base = stat_vector(g, R)
    rng = random.Random(2)
    for _ in range(40):
        subset = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        got = ev.evaluate(subset, boundary_edge_count(g, subset), p.delta)
        assert got == evaluate(g, base, subset, p)
        assert len(ev.values) <= 4


def test_unions_match_bruteforce():
    # over single-vertex blocks the branch yields exactly the admissible
    # subsets in ascending bitmask order, each with its boundary
    rng = random.Random(23)
    graphs = [validate([], 1, 1), cycle(5), path(6), _with_isolated_vertex(cycle(7))]
    graphs += [random_bounded_graph(rng.randint(2, 10), 3, rng) for _ in range(6)]
    for g in graphs:
        every = []
        for mask in range(1, 1 << g.n):
            subset = [v for v in range(g.n) if (mask >> v) & 1]
            every.append((subset, boundary_edge_count(g, subset)))
        blocks = [[v] for v in range(g.n)]
        for s_min in range(1, g.n + 2):
            for b_max in range(g.edge_count() + 1):
                want = [(s, b) for s, b in every if len(s) >= s_min and b <= b_max]
                assert list(quasihom._unions(g, blocks, s_min, b_max)) == want, (g, s_min, b_max)


def _verdict_corpus():
    """Graphs and parameters whose verdicts cover violations, near misses,
    exhaustive holds, full heuristic budgets and an isolated vertex."""
    F = Fraction
    union = generate(FamilySpec(
        "bridged_union",
        parts=(FamilySpec("cycle", (8,)), FamilySpec("random_regular", (8, 3), seed=5)),
        bridges=1,
        seed=5,
    ))
    planted = generate(FamilySpec(
        "disjoint_union",
        parts=(FamilySpec("cycle", (10,)), FamilySpec("random_regular", (10, 3), seed=4)),
    ))
    mixed = generate(FamilySpec(
        "disjoint_union", parts=(FamilySpec("cycle", (7,)), FamilySpec("path", (7,))),
    ))
    corpus = [
        (cycle(12), QuasihomParams(F(1, 12), F(1, 2), F(1, 4), 2)),
        (double(cycle(6)), QuasihomParams(F(1, 12), F(2, 5), F(1, 8), 2)),
        (planted, QuasihomParams(F(1, 20), F(2, 5), F(1, 10), 3)),
        (path(14), QuasihomParams(F(1, 8), F(1, 2), F(1, 5), 3)),
        (union, QuasihomParams(F(1, 8), F(3, 10), F(3, 20), 3)),
        (mixed, QuasihomParams(F(1, 7), F(3, 10), F(1, 5), 2)),
        (_with_isolated_vertex(cycle(9)), QuasihomParams(F(1, 5), F(3, 10), F(1, 4), 2)),
    ]
    rng = random.Random(11)
    corpus += [
        (random_bounded_graph(n, 3, rng), QuasihomParams(F(1, 10), F(3, 10), F(3, 20), 3))
        for n in (9, 11, 13)
    ]
    corpus.append((cycle(16), QuasihomParams(F(1, 6), F(3, 10), F(1, 5), 2)))
    rng = random.Random(3)
    for n in (10, 12, 14):
        g = random_bounded_graph(n, 3, rng)
        for p in (
            QuasihomParams(F(1, 10), F(3, 10), F(1, 8), 2),
            QuasihomParams(F(1, 6), F(3, 10), F(1, 5), 2),
            QuasihomParams(F(1, 8), F(1, 2), F(1, 5), 3),
        ):
            corpus.append((g, p))
    return corpus


def _verdict_digest() -> str:
    rows = []
    for g, p in _verdict_corpus():
        exact = check_exact(g, p)
        heur = falsify_heuristic(g, p, budget=1500, seed=g.n)
        rows.append([
            (v.status, v.witness, v.witness_stats, v.near_misses, v.candidates_checked)
            for v in (exact, heur)
        ])
        for subset in (exact.witness, heur.witness, range(g.n), range(g.n // 2),
                       range(0, g.n, 2)):
            if subset is not None:
                rows.append(verify_certificate(g, subset, p))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# taken with the whole-StatVector evaluation the shared evaluator replaced
VERDICT_DIGEST = "30b0fc64efe91f94e8dae1bf44adc13491aa57cdcfb8ac29306b842ebafc407f"


def test_verdict_corpus_pinned():
    assert _verdict_digest() == VERDICT_DIGEST


def test_verdicts_survive_code_cache_clearing(monkeypatch):
    # a cap of one entry empties both caches before every candidate
    monkeypatch.setattr(quasihom, "_MAX_CACHED_CODES", 1)
    quasihom._evaluator.cache_clear()
    try:
        assert _verdict_digest() == VERDICT_DIGEST
    finally:
        quasihom._evaluator.cache_clear()


def test_empty_graph_and_out_of_range_subsets_raise():
    empty = validate([], 0, 2)
    p = QuasihomParams(Fraction(1, 8), Fraction(1, 2), Fraction(1, 4), 2)
    with pytest.raises(EmptyGraphError):
        check_exact(empty, p)
    # this used to report a vacuous no_violation_found
    with pytest.raises(EmptyGraphError):
        falsify_heuristic(empty, p, 100)
    with pytest.raises(EmptyGraphError):
        verify_certificate(empty, [0], p)
    with pytest.raises(VertexSetMismatchError):
        verify_certificate(cycle(6), [0, 6], p)
    with pytest.raises(VertexSetMismatchError):
        verify_certificate(cycle(6), [-1, 0], p)


def _draw_below(bits, k, n):
    # the two lines that replace rng.randrange(n) in quasihom._anneal_chain
    v = bits(k)
    while v >= n:
        v = bits(k)
    return v


def test_inlined_draw_is_randrange():
    ns = list(range(1, 71))
    for e in range(1, 21):
        ns += [(1 << e) - 1, 1 << e, (1 << e) + 1]
    for seed in range(5):
        for n in ns:
            ref, new = random.Random(seed), random.Random(seed)
            bits, k = new.getrandbits, n.bit_length()
            for _ in range(8):
                assert _draw_below(bits, k, n) == ref.randrange(n)
                assert new.random() == ref.random()
            assert new.getstate() == ref.getstate()


def _anneal_corpus():
    planted = generate(FamilySpec(
        "disjoint_union",
        parts=(FamilySpec("cycle", (10,)), FamilySpec("random_regular", (10, 3), seed=4)),
    ))
    bridged = generate(FamilySpec(
        "bridged_union",
        parts=(FamilySpec("cycle", (16,)), FamilySpec("random_regular", (24, 3), seed=2)),
        bridges=2,
        seed=2,
    ))
    rng = random.Random(41)
    return [cycle(8), cycle(31), path(12), path(40), planted, bridged] + [
        random_bounded_graph(n, 4, rng) for n in (9, 17, 26, 38)
    ]


_ANNEAL_PARAMS = [
    QuasihomParams(Fraction(1, 8), Fraction(1, 2), Fraction(1, 5), 2),
    QuasihomParams(Fraction(1, 6), Fraction(3, 10), Fraction(1, 5), 3),
]


def test_anneal_matches_randrange_reference(monkeypatch):
    fields = ("status", "witness", "candidates_checked", "near_misses", "witness_stats")
    for i, g in enumerate(_anneal_corpus()):
        p = _ANNEAL_PARAMS[i % 2]
        for seed in range(5):
            budget = (200, 700, 3000)[(i + seed) % 3]
            monkeypatch.setattr(quasihom, "_anneal_chain", anneal_chain)
            want = falsify_heuristic(g, p, budget, seed)
            monkeypatch.undo()
            got = falsify_heuristic(g, p, budget, seed)
            for name in fields:
                assert getattr(got, name) == getattr(want, name), (g.n, seed, budget, name)


def test_anneal_chain_matches_reference_generator():
    # every yield and the RNG state after the chain, not only the verdict
    # at the first witness; 24-26 iterations put the stride at 0 and 1
    yielded = 0
    for g in _anneal_corpus():
        for p in _ANNEAL_PARAMS:
            s_min = quasihom._size_threshold(p, g.n)
            b_max = quasihom._boundary_budget(p, g.n)
            for seed in range(3):
                for iterations in (1, 24, 25, 26, 700, 2500):
                    ref, new = random.Random(seed), random.Random(seed)
                    want = list(anneal_chain(g, p, s_min, b_max, iterations, ref))
                    got = list(quasihom._anneal_chain(g, p, s_min, b_max, iterations, new))
                    assert got == want, (g.n, p, seed, iterations)
                    assert new.getstate() == ref.getstate(), (g.n, p, seed, iterations)
                    yielded += len(got)
    assert yielded > 1000


def test_anneal_yields_only_admissible_sets():
    # the candidate stream passes these to the evaluator without a recount
    yielded = 0
    for g in _anneal_corpus():
        for p in _ANNEAL_PARAMS:
            s_min = quasihom._size_threshold(p, g.n)
            b_max = quasihom._boundary_budget(p, g.n)
            for seed in range(3):
                rng = random.Random(seed)
                for subset, boundary in quasihom._anneal_chain(g, p, s_min, b_max, 700, rng):
                    assert all(a < b for a, b in zip(subset, subset[1:]))
                    assert s_min <= len(subset) < g.n
                    assert boundary == boundary_edge_count(g, subset) <= b_max
                    yielded += 1
    assert yielded > 500


def test_seed_witness_never_starts_a_chain(monkeypatch):
    # _scan stops resuming the stream at the first violation, so a witness
    # among the seeds returns before any annealing chain is built
    g, p = _anneal_corpus()[4], _ANNEAL_PARAMS[1]
    want = falsify_heuristic(g, p, 700, 0)
    assert want.status == VIOLATED

    def no_chain(*args):
        raise AssertionError("an annealing chain started after a seed witness")

    monkeypatch.setattr(quasihom, "_anneal_chain", no_chain)
    assert falsify_heuristic(g, p, 700, 0) == want
