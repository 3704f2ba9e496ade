"""Tests for the benchmark's own logic: python3 -m pytest bench -q"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qhdecomp import quasihom, stats  # noqa: E402
from qhdecomp.families import FamilySpec, generate  # noqa: E402
from qhdecomp.stats import StatVector  # noqa: E402


def _span(start, end, parent):
    return [0, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0.0, 10.0, -1),  # 0
        _span(1.0, 4.0, 0),    # 1, child of 0
        _span(2.0, 3.0, 1),    # 2, grandchild of 0
        _span(5.0, 7.0, 0),    # 3, child of 0
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0.0, 10.0, -1), _span(1.0, 5.0, 0), _span(3.0, 6.0, 0)]
    assert tracing.self_times(spans)[0] == 5.0


def test_tracer_patches_every_binding_and_restores():
    import qhdecomp.decomposer as decomposer

    original = stats.stat_vector
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quasihom.stat_vector is stats.stat_vector is decomposer.stat_vector
        assert stats.stat_vector is not original
        tracer.job = 0
        stats.stat_vector(generate(FamilySpec("cycle", (4,))), 2)
        tracer.job = None
    finally:
        tracer.uninstall()
    assert stats.stat_vector is original and quasihom.stat_vector is original
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names[0] == "stats.stat_vector"
    assert names.count("balls.codes_at_radii") == 4
    assert all(s[3] == 0 for s, n in zip(tracer.spans, names) if n == "balls.codes_at_radii")
    m = tracing.layer_metrics(tracer)
    assert m["stats.stat_vector.calls"] == 1 and m["stats.stat_vector.vertices"] == 4
    assert m["balls.balls_requested"] == 8
    # every vertex of C4 has the same balls: one tree code (r=1, a path) and
    # one general code (r=2, the whole cycle) are computed, the rest hit the cache
    assert m["balls.canonical_code.tree.calls"] == 1
    assert m["balls.canonical_code.general.calls"] == 1
    assert m["balls.cache_hit_ratio"] == 1 - 2 / 8


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = harness.tail([float(x) for x in range(20, 0, -1)])
    assert (value, pct, beyond) == (10.0, 50.0, 10)
    assert harness.tail([float(x) for x in range(11)]) == (0.0, 100 / 11, 10)
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def _census_job():
    return workloads._census_job("census/c12", generate(FamilySpec("cycle", (12,))), 2, None)


def test_corrupted_output_counts_as_error():
    job = _census_job()
    sv, doc, back = job.run()
    first = next(iter(back.at(1)))
    radii = ({**back.at(1), first: Fraction(1, 2)},) + back.radii[1:]
    corrupted = StatVector(back.R, radii, back.n)
    bad = workloads.Job(job.key, lambda: (sv, doc, corrupted), job.check)
    result = harness.run_job(bad)
    assert result.error is not None and "round trip" in result.error


def test_exception_and_golden_mismatch_count_as_errors():
    def boom():
        raise RuntimeError("boom")

    good = _census_job()
    raising = workloads.Job("census/raises", boom, good.check)
    wl = workloads.Workload([good, raising], stride=2)
    results = harness.measure(wl, 0.0, golden={good.key: "0" * 64})
    assert len(results) == 12
    assert all(r.error for r in results)
    assert "golden" in results[0].error and "boom" in results[1].error
    assert harness.run_job(good, {good.key: results[0].digest}).error is None
