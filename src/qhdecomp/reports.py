"""JSON report documents, their schemas, and run manifests.

Every document carries ``format_version`` and ``kind`` and validates
against a schema shipped under ``qhdecomp/schemas``.  Each document is
validated once on each side: ``write_json`` checks it before writing, and
each reader checks what it reads.  The ``*_to_json`` writers only build
documents.  Rationals are serialized as integer num/den pairs plus a
convenience decimal string; the decimal is never read back.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from importlib import resources

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .coloring import EdgeColoring, VertexColoring
from .decomposer import Partition, PartitionVerdict, SplittingReport
from .errors import FormatError
from .quasihom import QuasihomParams, QuasihomVerdict, WitnessStats
from .stats import StatVector

FORMAT_VERSION = 1

_VALIDATORS: dict = {}


def _validator(kind: str):
    """The schema validator of one document kind, checked and built once
    (``jsonschema.validate`` re-checks the schema on every call)."""
    if kind not in _VALIDATORS:
        ref = resources.files("qhdecomp.schemas").joinpath(f"{kind}.schema.json")
        schema = json.loads(ref.read_text())
        cls = validator_for(schema)
        cls.check_schema(schema)
        _VALIDATORS[kind] = cls(schema)
    return _VALIDATORS[kind]


def validate_document(doc: dict) -> dict:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str):
        raise FormatError("document missing 'kind'")
    try:
        validator = _validator(kind)
    except FileNotFoundError:
        raise FormatError(f"unknown document kind {kind!r}")
    # the error jsonschema.validate would raise
    error = best_match(validator.iter_errors(doc))
    if error is not None:
        raise FormatError(f"invalid {kind} document: {error.message}")
    return doc


def document_of_kind(doc: dict, kind: str) -> dict:
    """``validate_document`` for a reader that takes one kind of document."""
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found != kind:
        raise FormatError(f"expected a {kind} document, got {found!r}")
    return validate_document(doc)


def rational(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "decimal": format(float(x), ".12g")}


def stat_vector_to_json(s: StatVector) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "stat_vector",
        "R": s.R,
        "n": s.n,
        "radii": [
            {
                "r": r,
                "entries": [
                    {"code_hex": code.hex(), "num": f.numerator, "den": f.denominator}
                    for code, f in sorted(s.at(r).items())
                ],
            }
            for r in range(1, s.R + 1)
        ],
    }


def stat_vector_from_json(doc: dict) -> StatVector:
    document_of_kind(doc, "stat_vector")
    radii = []
    for layer in doc["radii"]:
        radii.append({
            bytes.fromhex(e["code_hex"]): Fraction(e["num"], e["den"])
            for e in layer["entries"]
        })
    return StatVector(doc["R"], tuple(radii), doc.get("n"))


def distance_to_json(value: Fraction, tail: Fraction) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "distance",
        "value": rational(value),
        "tail": rational(tail),
    }


def scalar_to_json(kind: str, value: Fraction, **extra) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": kind, "value": rational(value), **extra}


def quasihom_verdict_to_json(v: QuasihomVerdict, p: QuasihomParams) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "quasihom_verdict",
        "status": v.status,
        "params": {
            "epsilon": rational(p.epsilon),
            "lambda": rational(p.lam),
            "delta": rational(p.delta),
            "radius": p.R,
        },
        "witness": list(v.witness) if v.witness is not None else None,
        "witness_stats": _witness_stats_json(v.witness_stats),
        "near_misses": v.near_misses,
        "candidates_checked": v.candidates_checked,
    }


def _witness_stats_json(ws: WitnessStats | None):
    if ws is None:
        return None
    return {
        "size_fraction": rational(ws.size_fraction),
        "boundary": ws.boundary,
        "ds_value": rational(ws.ds_value),
        "tail": rational(ws.tail),
        "certified": ws.certified,
    }


def partition_to_json(p: Partition) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "partition",
        "n": p.n,
        "K": p.K,
        "assignment": list(p.assignment),
        "deleted_edges": [list(e) for e in p.deleted_edges],
    }


def partition_from_json(doc: dict) -> Partition:
    document_of_kind(doc, "partition")
    # the partition schema types an embedded verdict only as an object
    if doc.get("verdict") is not None:
        document_of_kind(doc["verdict"], "partition_verdict")
    return Partition(
        doc["n"],
        tuple(doc["assignment"]),
        doc["K"],
        tuple((e[0], e[1]) for e in doc["deleted_edges"]),
    )


def partition_verdict_to_json(v: PartitionVerdict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "partition_verdict",
        "passed": v.passed,
        "deleted_ok": v.deleted_ok,
        "deleted_count": v.deleted_count,
        "deleted_budget": rational(v.deleted_budget),
        "empty_part_ok": v.empty_part_ok,
        "empty_fraction": rational(v.empty_fraction),
        "sizes_ok": v.sizes_ok,
        "size_threshold": rational(v.size_threshold),
        "parts_quasihom_ok": v.parts_quasihom_ok,
        "parts": [
            {
                "part": pc.part,
                "size": pc.size,
                "fraction": rational(pc.fraction),
                "big_enough": pc.big_enough,
                "quasihom_status": pc.quasihom.status if pc.quasihom else None,
            }
            for pc in v.parts
        ],
    }


def edge_coloring_to_json(g_n: int, vc: VertexColoring, ec: EdgeColoring) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "edge_coloring",
        "n": g_n,
        "vertex_palette": vc.palette,
        "vertex_colors": list(vc.colors),
        "edge_palette": ec.palette,
        "color_pairs": {
            str(idx): list(pair) for idx, pair in sorted(ec.pair_of.items())
        },
        "edges": [
            {"u": u, "v": v, "c": c} for (u, v), c in sorted(ec.colors.items())
        ],
    }


def edge_colors_from_json(doc: dict) -> dict[tuple[int, int], int]:
    document_of_kind(doc, "edge_coloring")
    return {(e["u"], e["v"]): e["c"] for e in doc["edges"]}


def splitting_to_json(rep: SplittingReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "splitting",
        "K": rep.K,
        "R": rep.R,
        "items": [
            {
                "n": it.n,
                "cross_edge_ratio": rational(it.cross_edge_ratio),
                "part_fractions": {
                    str(i): rational(f) for i, f in sorted(it.part_fractions.items())
                },
                "mixture_exact": it.mixture_exact,
            }
            for it in rep.items
        ],
        "cross_ratio_nonincreasing": rep.cross_ratio_nonincreasing,
        "part_drift": {
            str(i): [rational(v) for v in vals]
            for i, vals in sorted(rep.part_drift.items())
        },
    }


def convergence_to_json(rep) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "convergence",
        "R": rep.R,
        "sizes": rep.sizes,
        "tail": rational(rep.tail),
        "pairwise": [
            {"i": i, "j": j, "value": rational(v)}
            for (i, j), v in sorted(rep.pairwise.items())
        ],
        "consecutive": [rational(v) for v in rep.consecutive],
        "consecutive_nonincreasing": rep.consecutive_nonincreasing,
    }


def atlas_to_json(census: dict[bytes, int], r: int) -> dict:
    from .balls import decode_code

    entries = []
    for code, count in sorted(census.items()):
        ball = decode_code(code)
        entries.append({
            "code_hex": code.hex(),
            "radius": ball.radius,
            "vertices": ball.n,
            "count": count,
            "witness_adjacency": [list(nbrs) for nbrs in ball.graph.adjacency],
        })
    return {
        "format_version": FORMAT_VERSION,
        "kind": "atlas",
        "r": r,
        "entries": entries,
    }


class ManifestWriter:
    """Records enough to replay a run bit-exactly (same tool version)."""

    def __init__(self, subcommand: str, argv: list[str]):
        from . import __version__

        self.doc = {
            "format_version": FORMAT_VERSION,
            "kind": "run_manifest",
            "tool_version": __version__,
            "subcommand": subcommand,
            "argv": list(argv),
            "parameters": {},
            "seeds": {},
            "inputs": [],
            "outputs": [],
            "wall_time_s": None,
        }
        self._start = time.monotonic()

    def record(self, **params):
        for k, v in params.items():
            if isinstance(v, Fraction):
                v = rational(v)
            self.doc["parameters"][k] = v

    def seed(self, **seeds):
        self.doc["seeds"].update(seeds)

    def add_input(self, path):
        self.doc["inputs"].append(str(path))

    def add_output(self, path):
        self.doc["outputs"].append(str(path))

    def finish(self, path) -> dict:
        self.doc["wall_time_s"] = round(time.monotonic() - self._start, 6)
        write_json(path, self.doc)
        return self.doc


def write_json(path, doc: dict) -> None:
    """Validate ``doc`` against its kind's schema, then write it."""
    validate_document(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
