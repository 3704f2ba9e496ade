"""Command-line surface binding the modules into reproducible runs.

Every artifact-producing run also writes a RunManifest (every parsed
option, seeds, paths, wall time) next to its primary output; handlers read
and write files only through it, so it lists every one.  Re-running the
recorded argv reproduces the artifacts byte-exactly.  Verdicts are data: a
certified violation still exits 0.  Domain errors exit 1, usage errors
exit 2.
"""

from __future__ import annotations

import argparse
import json
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


def _read_json(mw: reports.ManifestWriter, path: str):
    """The JSON value in the input file ``path``."""
    try:
        return json.loads(mw.read(path))
    except RecursionError:
        raise FormatError(f"{path} nests JSON values too deeply to read")


def _read_edge_colors(mw: reports.ManifestWriter, path: str,
                      g: graph.Graph) -> dict[tuple[int, int], int]:
    """The colors of an edge_coloring document that lists each edge of
    ``g`` exactly once, as ``u < v``, and no other pair."""
    doc = _read_json(mw, path)
    colors = reports.edge_colors_from_json(doc)
    if len(colors) != len(doc["edges"]):
        raise FormatError(f"{path} lists an edge twice")
    edges = set(g.edges())
    missing, extra = sorted(edges - colors.keys()), sorted(colors.keys() - edges)
    if extra:
        raise FormatError(f"{path} colors {extra[0]}, which is not an edge u < v of the graph")
    if missing:
        raise FormatError(f"{path} leaves the graph edge {missing[0]} uncolored")
    return colors


def _note_resolution(radius: int, delta: Fraction) -> None:
    """Say on stderr what a verdict at radius R leaves open when its tail
    2^-R is not below delta.  A candidate is certified only when V_R, the
    distance summed over radii 1..R, exceeds delta + 2^-R, and the full d_s
    exceeds V_R by at most 2^-R; so an exact verdict without a witness rules
    out only subsets with d_s > delta + 2 * 2^-R, and a heuristic one rules
    out none."""
    tail = Fraction(1, 2 ** radius)
    if tail >= delta:
        print(f"note: tail 2^-{radius} = {tail} is not below delta = {delta}; "
              f"without a witness, an exact verdict rules out only subsets with "
              f"d_s > {delta + 2 * tail}, and a heuristic verdict rules out none",
              file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qhdecomp",
        description="Local ball statistics, quasihomogeneity tests, and "
        "partition heuristics for bounded-degree graphs.",
    )
    ap.add_argument("--manifest", help="explicit manifest path")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate", help="produce a family graph as an edge list")
    # union kinds take parts, which only --spec supplies
    g.add_argument("--kind", choices=sorted(k for k, (_, arity) in families._KINDS.items() if arity))
    g.add_argument("--params", default="", help="comma-separated integers")
    g.add_argument("--seed", type=int, default=0)
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
    mw = reports.ManifestWriter(args.subcommand, raw)
    options = {k: v for k, v in vars(args).items() if k not in ("subcommand", "manifest")}
    if "seed" in options:
        mw.seed(seed=options.pop("seed"))
    mw.record(**options)
    try:
        code = _HANDLERS[args.subcommand](args, mw)
        mw.finish(args.manifest or args.out and args.out + ".manifest.json")
        return code
    except (QhError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_generate(args, mw: reports.ManifestWriter) -> int:
    if args.spec:
        doc = _read_json(mw, args.spec)
        if isinstance(doc, dict) and doc.get("kind") == "family_specs":
            specs = reports.validate_document(doc)["specs"]
            if not specs:
                raise FormatError(f"{args.spec} lists no spec")
            doc = specs[0]
        spec = families.FamilySpec.from_json(doc)
    else:
        if not args.kind:
            raise QhError("either --spec or --kind is required")
        params = tuple(int(x) for x in args.params.split(",") if x != "")
        spec = families.FamilySpec(args.kind, params, seed=args.seed)
    # a spec file sets its own seed in place of --seed
    mw.seed(seed=spec.seed)
    mw.record(spec=spec.to_json())
    g = families.generate(spec)
    mw.write(args.out, graph.to_edge_list(g))
    print(f"wrote {args.out}: n={g.n} m={g.edge_count()} d={g.degree_bound}")
    return 0


def _cmd_stats(args, mw: reports.ManifestWriter) -> int:
    g = graph.from_edge_list(mw.read(args.input))
    edge_colors = _read_edge_colors(mw, args.colors, g) if args.colors else None
    s = stats.stat_vector(g, args.radius, edge_colors=edge_colors)
    mw.write(args.out, reports.stat_vector_to_json(s))
    if args.dump_atlas:
        census = {code: int(freq * g.n) for code, freq in s.at(args.radius).items()}
        mw.write(args.dump_atlas, reports.atlas_to_json(census, args.radius))
    print(f"wrote {args.out}: R={args.radius} n={g.n}")
    return 0


def _cmd_distance(args, mw: reports.ManifestWriter) -> int:
    a = reports.stat_vector_from_json(_read_json(mw, args.a))
    b = reports.stat_vector_from_json(_read_json(mw, args.b))
    value, tail = stats.d_s(a, b)
    print(f"d_s = {value} (~{float(value):.6g}), tail <= {tail}")
    mw.write(args.out, reports.distance_to_json(value, tail))
    return 0


def _cmd_editdist(args, mw: reports.ManifestWriter) -> int:
    a = graph.from_edge_list(mw.read(args.a))
    b = graph.from_edge_list(mw.read(args.b))
    value = graph.edit_distance(a, b)
    print(f"edit distance = {value} (~{float(value):.6g})")
    mw.write(args.out, reports.scalar_to_json("edit_distance", value))
    return 0


def _cmd_sparse_density(args, mw: reports.ManifestWriter) -> int:
    pattern = graph.from_edge_list(mw.read(args.pattern))
    host = graph.from_edge_list(mw.read(args.input))
    value = stats.sparse_density(pattern, host)
    print(f"sparse density = {value} (~{float(value):.6g})")
    mw.write(args.out, reports.scalar_to_json("sparse_density", value,
                                              pattern_vertices=pattern.n))
    return 0


def _cmd_color_edges(args, mw: reports.ManifestWriter) -> int:
    g = graph.from_edge_list(mw.read(args.input))
    vc, ec = coloring.color_edges(g)
    mw.write(args.out, reports.edge_coloring_to_json(g.n, vc, ec))
    if args.out_el:
        lines = [f"{g.n} {g.degree_bound}"]
        lines.extend(f"{u} {v} {ec.colors[(u, v)]}" for u, v in g.edges())
        mw.write(args.out_el, "\n".join(lines) + "\n")
    print(f"wrote {args.out}: vertex palette <= {vc.palette}, edge palette <= {ec.palette}")
    return 0


def _cmd_check_quasihom(args, mw: reports.ManifestWriter) -> int:
    g = graph.from_edge_list(mw.read(args.input))
    p = quasihom.QuasihomParams(args.epsilon, args.lam, args.delta, args.radius)
    if args.exact:
        verdict = quasihom.check_exact(g, p)
    else:
        verdict = quasihom.falsify_heuristic(g, p, args.budget, args.seed)
    _note_resolution(p.R, p.delta)
    print(f"status: {verdict.status}"
          + (f", witness size {len(verdict.witness)}" if verdict.witness else ""))
    mw.write(args.out, reports.quasihom_verdict_to_json(verdict, p))
    return 0


def _cmd_decompose(args, mw: reports.ManifestWriter) -> int:
    g = graph.from_edge_list(mw.read(args.input))
    p = dec.decompose(g, args.delta, args.lam, args.kmax,
                      args.signature_radius, args.seed, args.threshold_mode)
    doc = reports.partition_to_json(p)
    if args.epsilon is not None:
        verdict = dec.verify_partition(
            g, p, args.delta, args.lam, args.epsilon, args.radius,
            dec.MODE_HEURISTIC, args.threshold_mode, args.budget, args.seed,
        )
        _note_resolution(args.radius, args.delta)
        # the partition schema leaves its embedded verdict unchecked
        doc["verdict"] = reports.validate_document(reports.partition_verdict_to_json(verdict))
    mw.write(args.out, doc)
    sizes = p.part_sizes()
    print(f"K={p.K} deleted={len(p.deleted_edges)} sizes={dict(sorted(sizes.items()))}")
    return 0


def _cmd_verify_partition(args, mw: reports.ManifestWriter) -> int:
    g = graph.from_edge_list(mw.read(args.input))
    p = reports.partition_from_json(_read_json(mw, args.partition))
    verdict = dec.verify_partition(
        g, p, args.delta, args.lam, args.epsilon, args.radius,
        args.mode, args.threshold_mode, args.budget, args.seed,
    )
    _note_resolution(args.radius, args.delta)
    print(f"passed: {verdict.passed} (deleted_ok={verdict.deleted_ok}, "
          f"empty_ok={verdict.empty_part_ok}, sizes_ok={verdict.sizes_ok}, "
          f"quasihom_ok={verdict.parts_quasihom_ok})")
    mw.write(args.out, reports.partition_verdict_to_json(verdict))
    return 0


def _cmd_split_diagnostics(args, mw: reports.ManifestWriter) -> int:
    if len(args.inputs) != len(args.partitions):
        raise QhError("--inputs and --partitions must pair up")
    seq = [
        (graph.from_edge_list(mw.read(gp)), reports.partition_from_json(_read_json(mw, pp)))
        for gp, pp in zip(args.inputs, args.partitions)
    ]
    rep = dec.splitting_diagnostics(seq, args.radius)
    mw.write(args.out, reports.splitting_to_json(rep))
    print(f"items={len(rep.items)} mixture_exact={[it.mixture_exact for it in rep.items]}")
    return 0


def _cmd_convergence(args, mw: reports.ManifestWriter) -> int:
    doc = reports.document_of_kind(_read_json(mw, args.specs), "family_specs")
    specs = [families.FamilySpec.from_json(d) for d in doc["specs"]]
    rep = families.sequence(specs, args.radius)
    mw.write(args.out, reports.convergence_to_json(rep))
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
