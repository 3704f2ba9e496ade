"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``qhdecomp`` namespace that bound it by name (``quasihom`` and
``decomposer`` import ``stat_vector``, ``d_s``, ``check_exact`` and others
directly, so patching the defining module alone would miss those calls).
``Tracer.uninstall`` puts the originals back.  Spans stay in memory as
``[name_id, start, end, parent, job]`` rows and are written out once, at
the end of the run.

Only functions whose calls cross a layer boundary in the workloads are
traced.  Helpers a layer calls on itself (``total_variation`` inside
``d_s``, ``from_adjacency`` inside ball extraction) stay part of their
caller's self time.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import numpy as np

TRACED = {
    "balls": ("codes_at_radii", "canonical_code"),
    "stats": ("stat_vector", "d_s", "mixture"),
    "graph": ("spanned_subgraph", "boundary_edge_count", "delete_edges"),
    "quasihom": ("check_exact", "falsify_heuristic", "verify_certificate"),
    "decomposer": ("decompose", "verify_partition", "splitting_diagnostics"),
    "reports": (
        "validate_document",
        "stat_vector_to_json",
        "stat_vector_from_json",
        "quasihom_verdict_to_json",
        "partition_to_json",
        "partition_verdict_to_json",
        "splitting_to_json",
    ),
    "families": ("generate",),
    "coloring": ("color_edges",),
}

# layers whose calls happen while inputs are generated, not inside jobs
SETUP_LAYERS = ("families", "coloring")

SETUP_JOB = -1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count(counters, fname, args, kwargs, result):
    """Work counts read off a traced call's arguments and result."""
    if fname == "codes_at_radii":
        counters["balls.balls_requested"] += len(set(_arg(args, kwargs, 2, "radii")))
    elif fname == "stat_vector":
        counters["stats.stat_vector.vertices"] += _arg(args, kwargs, 0, "g").n
    elif fname == "check_exact":
        counters["quasihom.check_exact.candidates_checked"] += result.candidates_checked
        counters["quasihom.near_misses"] += result.near_misses
    elif fname == "falsify_heuristic":
        counters["quasihom.falsify_heuristic.candidates_checked"] += result.candidates_checked
        counters["quasihom.falsify_heuristic.budget"] += max(0, _arg(args, kwargs, 2, "budget"))
        counters["quasihom.near_misses"] += result.near_misses
    elif fname == "decompose":
        counters["decomposer.deleted_edges"] += len(result.deleted_edges)


class Tracer:
    """Records one span per traced call while ``job`` is set.

    Outside a job (``job is None``) the wrappers call straight through, so
    output checks made between jobs leave no spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, layer: str, fname: str, fn):
        base = f"{layer}.{fname}"
        is_canonical = fname == "canonical_code"

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            name = base
            if is_canonical:
                g = _arg(args, kwargs, 0, "ball").graph
                # the same test canonical_code uses to take the tree path
                name += ".tree" if g.edge_count() == g.n - 1 else ".general"
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [self._name_id(name), perf_counter(), 0.0, parent, self.job]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if self.job != SETUP_JOB:
                _count(self.counters, fname, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "qhdecomp" or name.startswith("qhdecomp."))
        ]
        for layer, fnames in TRACED.items():
            home = sys.modules[f"qhdecomp.{layer}"]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapper = self._wrap(layer, fname, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def write(self, path) -> None:
        times = np.array([s[1:3] for s in self.spans], dtype=np.float64).reshape(-1, 2)
        ids = np.array([(s[0], s[3], s[4]) for s in self.spans], dtype=np.int64).reshape(-1, 3)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=ids[:, 0],
            start=times[:, 0],
            end=times[:, 1],
            parent=ids[:, 1],
            job=ids[:, 2],
        )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    ``spans`` rows are ``[name_id, start, end, parent, job]`` with children
    listed after their parent, as the tracer appends them.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(idx, ())):
            lo, hi = max(c0, reach), min(c1, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, self time and work counts from one traced run.

    Job spans feed every layer except the set-up layers, which are read
    from the spans recorded while inputs were generated.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name = tracer.names[span[0]]
        in_setup = span[4] == SETUP_JOB
        if in_setup != (name.split(".", 1)[0] in SETUP_LAYERS):
            continue
        calls[name] += 1
        self_s[name] += own
    c = tracer.counters
    requested = c["balls.balls_requested"]
    canonical = calls["balls.canonical_code.tree"] + calls["balls.canonical_code.general"]
    budget = c["quasihom.falsify_heuristic.budget"]
    return {
        "balls.codes_at_radii.calls": calls["balls.codes_at_radii"],
        "balls.codes_at_radii.self_s": self_s["balls.codes_at_radii"],
        "balls.balls_requested": requested,
        "balls.canonical_code.tree.calls": calls["balls.canonical_code.tree"],
        "balls.canonical_code.tree.self_s": self_s["balls.canonical_code.tree"],
        "balls.canonical_code.general.calls": calls["balls.canonical_code.general"],
        "balls.canonical_code.general.self_s": self_s["balls.canonical_code.general"],
        "balls.cache_hit_ratio": 1 - canonical / requested if requested else 0.0,
        "stats.stat_vector.calls": calls["stats.stat_vector"],
        "stats.stat_vector.vertices": c["stats.stat_vector.vertices"],
        "stats.stat_vector.self_s": self_s["stats.stat_vector"],
        "stats.d_s.calls": calls["stats.d_s"],
        "stats.d_s.self_s": self_s["stats.d_s"],
        "graph.spanned_subgraph.calls": calls["graph.spanned_subgraph"],
        "graph.spanned_subgraph.self_s": self_s["graph.spanned_subgraph"],
        "graph.boundary_edge_count.calls": calls["graph.boundary_edge_count"],
        "graph.boundary_edge_count.self_s": self_s["graph.boundary_edge_count"],
        "quasihom.check_exact.self_s": self_s["quasihom.check_exact"],
        "quasihom.check_exact.candidates_checked": c["quasihom.check_exact.candidates_checked"],
        "quasihom.falsify_heuristic.self_s": self_s["quasihom.falsify_heuristic"],
        "quasihom.falsify_heuristic.candidates_checked":
            c["quasihom.falsify_heuristic.candidates_checked"],
        "quasihom.falsify_heuristic.eval_ratio":
            c["quasihom.falsify_heuristic.candidates_checked"] / budget if budget else 0.0,
        "quasihom.near_misses": c["quasihom.near_misses"],
        "quasihom.verify_certificate.calls": calls["quasihom.verify_certificate"],
        "quasihom.verify_certificate.self_s": self_s["quasihom.verify_certificate"],
        "decomposer.decompose.self_s": self_s["decomposer.decompose"],
        "decomposer.deleted_edges": c["decomposer.deleted_edges"],
        "decomposer.verify_partition.self_s": self_s["decomposer.verify_partition"],
        "decomposer.splitting_diagnostics.self_s": self_s["decomposer.splitting_diagnostics"],
        "reports.validate_document.calls": calls["reports.validate_document"],
        "reports.validate_document.self_s": self_s["reports.validate_document"],
        "reports.serialize.self_s": sum(
            v for k, v in self_s.items()
            if k.startswith("reports.") and k != "reports.validate_document"
        ),
        "families.generate.self_s": self_s["families.generate"],
        "coloring.color_edges.self_s": self_s["coloring.color_edges"],
    }
