"""Command-line surface binding the modules into reproducible runs.

Every artifact-producing run also writes a RunManifest (parameters, seeds,
paths, wall time) next to its primary output; re-running the recorded argv
reproduces the artifacts byte-exactly.  Verdicts are data: a certified
violation still exits 0.  Domain errors exit 1, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import coloring, decomposer as dec, families, graph, quasihom, reports, stats
from .errors import FormatError, QhError


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _read_graph(path: str) -> graph.Graph:
    with open(path) as fh:
        return graph.from_edge_list(fh.read())


def _manifest(args, subcommand: str) -> reports.ManifestWriter:
    return reports.ManifestWriter(subcommand, args.raw_argv)


def _finish(mw: reports.ManifestWriter, args, primary_out: str | None):
    path = args.manifest or (primary_out + ".manifest.json" if primary_out else None)
    if path:
        mw.finish(path)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qhdecomp",
        description="Local ball statistics, quasihomogeneity tests, and "
        "partition heuristics for bounded-degree graphs.",
    )
    ap.add_argument("--manifest", help="explicit manifest path")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate", help="produce a family graph as an edge list")
    g.add_argument("--kind", choices=sorted(families._MAKERS))
    g.add_argument("--params", default="", help="comma-separated integers")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--bridges", type=int, default=0)
    g.add_argument("--spec", help="FamilySpec JSON file (overrides --kind)")
    g.add_argument("--out", required=True)

    s = sub.add_parser("stats", help="StatVector of a graph")
    s.add_argument("--input", required=True)
    s.add_argument("--radius", type=_positive, required=True)
    s.add_argument("--colors", help="edge_coloring JSON to take edge colors from")
    s.add_argument("--dump-atlas", dest="dump_atlas",
                   help="also write a code -> witness table at --radius")
    s.add_argument("--out", required=True)

    d = sub.add_parser("distance", help="d_s between two StatVector files")
    d.add_argument("--a", required=True)
    d.add_argument("--b", required=True)
    d.add_argument("--out")

    e = sub.add_parser("editdist", help="edit distance between two graphs")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.add_argument("--out")

    sd = sub.add_parser("sparse-density", help="subgraph copies of a pattern per vertex")
    sd.add_argument("--pattern", required=True)
    sd.add_argument("--input", required=True)
    sd.add_argument("--out")

    ce = sub.add_parser("color-edges", help="square-graph proper edge coloring")
    ce.add_argument("--input", required=True)
    ce.add_argument("--out", required=True)
    ce.add_argument("--out-el", dest="out_el",
                    help="also write the colored edge list (u v c lines)")

    cq = sub.add_parser("check-quasihom", help="test (epsilon,lambda,delta)-quasihomogeneity")
    cq.add_argument("--input", required=True)
    cq.add_argument("--epsilon", type=_frac, required=True)
    cq.add_argument("--lambda", dest="lam", type=_frac, required=True)
    cq.add_argument("--delta", type=_frac, required=True)
    cq.add_argument("--radius", type=_positive, required=True)
    cq.add_argument("--exact", action="store_true")
    cq.add_argument("--budget", type=_positive, default=10000)
    cq.add_argument("--seed", type=int, default=0)
    cq.add_argument("--out")

    dc = sub.add_parser("decompose", help="signature-clustering partition heuristic")
    dc.add_argument("--input", required=True)
    dc.add_argument("--delta", type=_frac, required=True)
    dc.add_argument("--lambda", dest="lam", type=_frac, required=True)
    dc.add_argument("--kmax", type=_positive, required=True)
    dc.add_argument("--signature-radius", dest="signature_radius", type=_nonnegative,
                    required=True)
    dc.add_argument("--seed", type=int, default=0)
    dc.add_argument("--threshold-mode", dest="threshold_mode",
                    choices=[dec.THRESHOLD_THEOREM, dec.THRESHOLD_PROOF],
                    default=dec.THRESHOLD_THEOREM)
    dc.add_argument("--epsilon", type=_frac,
                    help="verify the result and embed the verdict (needs --radius)")
    dc.add_argument("--radius", type=_positive, help="verification radius (needs --epsilon)")
    dc.add_argument("--budget", type=_positive, default=2000)
    dc.add_argument("--out", required=True)

    vp = sub.add_parser("verify-partition", help="check the decomposition conditions")
    vp.add_argument("--input", required=True)
    vp.add_argument("--partition", required=True)
    vp.add_argument("--delta", type=_frac, required=True)
    vp.add_argument("--lambda", dest="lam", type=_frac, required=True)
    vp.add_argument("--epsilon", type=_frac, required=True)
    vp.add_argument("--radius", type=_positive, required=True)
    vp.add_argument("--mode", choices=[dec.MODE_EXACT, dec.MODE_HEURISTIC],
                    default=dec.MODE_HEURISTIC)
    vp.add_argument("--threshold-mode", dest="threshold_mode",
                    choices=[dec.THRESHOLD_THEOREM, dec.THRESHOLD_PROOF],
                    default=dec.THRESHOLD_THEOREM)
    vp.add_argument("--budget", type=_positive, default=2000)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--out")

    sp = sub.add_parser("split-diagnostics", help="splitting quantities for a sequence")
    sp.add_argument("--inputs", nargs="+", required=True)
    sp.add_argument("--partitions", nargs="+", required=True)
    sp.add_argument("--radius", type=_positive, required=True)
    sp.add_argument("--out", required=True)

    cv = sub.add_parser("convergence", help="pairwise d_s table for a spec sequence")
    cv.add_argument("--specs", required=True, help="family_specs JSON file")
    cv.add_argument("--radius", type=_positive, required=True)
    cv.add_argument("--out", required=True)
    return ap


def main(argv=None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(raw)
    if args.subcommand == "decompose" and (args.epsilon is None) != (args.radius is None):
        missing = "--radius" if args.radius is None else "--epsilon"
        parser.error(f"decompose: --epsilon and --radius verify together; {missing} is missing")
    args.raw_argv = raw
    try:
        return _dispatch(args)
    except QhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    handler = _HANDLERS[args.subcommand]
    return handler(args)


def _cmd_generate(args) -> int:
    mw = _manifest(args, "generate")
    if args.spec:
        doc = reports.read_json(args.spec)
        if isinstance(doc, dict) and doc.get("kind") == "family_specs":
            specs = reports.validate_document(doc)["specs"]
            if not specs:
                raise FormatError(f"{args.spec} lists no spec")
            doc = specs[0]
        spec = families.FamilySpec.from_json(doc)
        mw.add_input(args.spec)
    else:
        if not args.kind:
            raise QhError("either --spec or --kind is required")
        params = tuple(int(x) for x in args.params.split(",") if x != "")
        spec = families.FamilySpec(args.kind, params, bridges=args.bridges, seed=args.seed)
    mw.record(spec=spec.to_json())
    mw.seed(seed=args.seed)
    g = families.generate(spec)
    with open(args.out, "w") as fh:
        fh.write(graph.to_edge_list(g))
    mw.add_output(args.out)
    _finish(mw, args, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.edge_count()} d={g.degree_bound}")
    return 0


def _cmd_stats(args) -> int:
    mw = _manifest(args, "stats")
    g = _read_graph(args.input)
    mw.add_input(args.input)
    edge_colors = None
    if args.colors:
        edge_colors = reports.edge_colors_from_json(reports.read_json(args.colors))
        mw.add_input(args.colors)
    mw.record(radius=args.radius)
    s = stats.stat_vector(g, args.radius, edge_colors=edge_colors)
    reports.write_json(args.out, reports.stat_vector_to_json(s))
    mw.add_output(args.out)
    if args.dump_atlas:
        census = {code: int(freq * g.n) for code, freq in s.at(args.radius).items()}
        reports.write_json(args.dump_atlas, reports.atlas_to_json(census, args.radius))
        mw.add_output(args.dump_atlas)
    _finish(mw, args, args.out)
    print(f"wrote {args.out}: R={args.radius} n={g.n}")
    return 0


def _cmd_distance(args) -> int:
    mw = _manifest(args, "distance")
    a = reports.stat_vector_from_json(reports.read_json(args.a))
    b = reports.stat_vector_from_json(reports.read_json(args.b))
    mw.add_input(args.a)
    mw.add_input(args.b)
    value, tail = stats.d_s(a, b)
    print(f"d_s = {value} (~{float(value):.6g}), tail <= {tail}")
    if args.out:
        reports.write_json(args.out, reports.distance_to_json(value, tail))
        mw.add_output(args.out)
    _finish(mw, args, args.out)
    return 0


def _cmd_editdist(args) -> int:
    mw = _manifest(args, "editdist")
    a = _read_graph(args.a)
    b = _read_graph(args.b)
    mw.add_input(args.a)
    mw.add_input(args.b)
    value = graph.edit_distance(a, b)
    print(f"edit distance = {value} (~{float(value):.6g})")
    if args.out:
        reports.write_json(args.out, reports.scalar_to_json("edit_distance", value))
        mw.add_output(args.out)
    _finish(mw, args, args.out)
    return 0


def _cmd_sparse_density(args) -> int:
    mw = _manifest(args, "sparse-density")
    pattern = _read_graph(args.pattern)
    host = _read_graph(args.input)
    mw.add_input(args.pattern)
    mw.add_input(args.input)
    value = stats.sparse_density(pattern, host)
    print(f"sparse density = {value} (~{float(value):.6g})")
    if args.out:
        reports.write_json(
            args.out,
            reports.scalar_to_json("sparse_density", value, pattern_vertices=pattern.n),
        )
        mw.add_output(args.out)
    _finish(mw, args, args.out)
    return 0


def _cmd_color_edges(args) -> int:
    mw = _manifest(args, "color-edges")
    g = _read_graph(args.input)
    mw.add_input(args.input)
    vc, ec = coloring.color_edges(g)
    reports.write_json(args.out, reports.edge_coloring_to_json(g.n, vc, ec))
    mw.add_output(args.out)
    if args.out_el:
        lines = [f"{g.n} {g.degree_bound}"]
        lines.extend(f"{u} {v} {ec.colors[(u, v)]}" for u, v in g.edges())
        with open(args.out_el, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        mw.add_output(args.out_el)
    _finish(mw, args, args.out)
    print(f"wrote {args.out}: vertex palette <= {vc.palette}, edge palette <= {ec.palette}")
    return 0


def _cmd_check_quasihom(args) -> int:
    mw = _manifest(args, "check-quasihom")
    g = _read_graph(args.input)
    mw.add_input(args.input)
    p = quasihom.QuasihomParams(args.epsilon, args.lam, args.delta, args.radius)
    mw.record(epsilon=p.epsilon, lam=p.lam, delta=p.delta, radius=p.R,
              exact=args.exact, budget=args.budget)
    mw.seed(seed=args.seed)
    if args.exact:
        verdict = quasihom.check_exact(g, p)
    else:
        verdict = quasihom.falsify_heuristic(g, p, args.budget, args.seed)
    doc = reports.quasihom_verdict_to_json(verdict, p)
    print(f"status: {verdict.status}"
          + (f", witness size {len(verdict.witness)}" if verdict.witness else ""))
    if args.out:
        reports.write_json(args.out, doc)
        mw.add_output(args.out)
    _finish(mw, args, args.out)
    return 0


def _cmd_decompose(args) -> int:
    mw = _manifest(args, "decompose")
    g = _read_graph(args.input)
    mw.add_input(args.input)
    mw.record(delta=args.delta, lam=args.lam, kmax=args.kmax,
              signature_radius=args.signature_radius, threshold_mode=args.threshold_mode)
    mw.seed(seed=args.seed)
    p = dec.decompose(g, args.delta, args.lam, args.kmax,
                      args.signature_radius, args.seed, args.threshold_mode)
    doc = reports.partition_to_json(p)
    if args.epsilon is not None:
        verdict = dec.verify_partition(
            g, p, args.delta, args.lam, args.epsilon, args.radius,
            dec.MODE_HEURISTIC, args.threshold_mode, args.budget, args.seed,
        )
        doc["verdict"] = reports.partition_verdict_to_json(verdict)
    reports.write_json(args.out, doc)
    mw.add_output(args.out)
    _finish(mw, args, args.out)
    sizes = p.part_sizes()
    print(f"K={p.K} deleted={len(p.deleted_edges)} sizes={dict(sorted(sizes.items()))}")
    return 0


def _cmd_verify_partition(args) -> int:
    mw = _manifest(args, "verify-partition")
    g = _read_graph(args.input)
    p = reports.partition_from_json(reports.read_json(args.partition))
    mw.add_input(args.input)
    mw.add_input(args.partition)
    mw.record(delta=args.delta, lam=args.lam, epsilon=args.epsilon,
              radius=args.radius, mode=args.mode, budget=args.budget,
              threshold_mode=args.threshold_mode)
    mw.seed(seed=args.seed)
    verdict = dec.verify_partition(
        g, p, args.delta, args.lam, args.epsilon, args.radius,
        args.mode, args.threshold_mode, args.budget, args.seed,
    )
    print(f"passed: {verdict.passed} (deleted_ok={verdict.deleted_ok}, "
          f"empty_ok={verdict.empty_part_ok}, sizes_ok={verdict.sizes_ok}, "
          f"quasihom_ok={verdict.parts_quasihom_ok})")
    if args.out:
        reports.write_json(args.out, reports.partition_verdict_to_json(verdict))
        mw.add_output(args.out)
    _finish(mw, args, args.out)
    return 0


def _cmd_split_diagnostics(args) -> int:
    mw = _manifest(args, "split-diagnostics")
    if len(args.inputs) != len(args.partitions):
        raise QhError("--inputs and --partitions must pair up")
    seq = []
    for gp, pp in zip(args.inputs, args.partitions):
        seq.append((_read_graph(gp), reports.partition_from_json(reports.read_json(pp))))
        mw.add_input(gp)
        mw.add_input(pp)
    mw.record(radius=args.radius)
    rep = dec.splitting_diagnostics(seq, args.radius)
    reports.write_json(args.out, reports.splitting_to_json(rep))
    mw.add_output(args.out)
    _finish(mw, args, args.out)
    print(f"items={len(rep.items)} mixture_exact={[it.mixture_exact for it in rep.items]}")
    return 0


def _cmd_convergence(args) -> int:
    mw = _manifest(args, "convergence")
    doc = reports.document_of_kind(reports.read_json(args.specs), "family_specs")
    specs = [families.FamilySpec.from_json(d) for d in doc["specs"]]
    mw.add_input(args.specs)
    mw.record(radius=args.radius, count=len(specs))
    rep = families.sequence(specs, args.radius)
    reports.write_json(args.out, reports.convergence_to_json(rep))
    mw.add_output(args.out)
    _finish(mw, args, args.out)
    print(f"wrote {args.out}: {len(specs)} specs, "
          f"trend nonincreasing: {rep.consecutive_nonincreasing}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "distance": _cmd_distance,
    "editdist": _cmd_editdist,
    "sparse-density": _cmd_sparse_density,
    "color-edges": _cmd_color_edges,
    "check-quasihom": _cmd_check_quasihom,
    "decompose": _cmd_decompose,
    "verify-partition": _cmd_verify_partition,
    "split-diagnostics": _cmd_split_diagnostics,
    "convergence": _cmd_convergence,
}


if __name__ == "__main__":
    sys.exit(main())
