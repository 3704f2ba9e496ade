"""JSON report documents, their schemas, and run manifests.

Every document carries ``format_version`` and ``kind`` and validates
against a schema shipped under ``qhdecomp/schemas``; a test checks each
shipped schema against its metaschema.  Each document is validated once on
each side: ``write_json`` checks it before writing, and each reader checks
what it reads.  The only validator is ``_fault``, one function that walks a
kind's schema alongside the document: it accepts exactly what a JSON
Schema draft 2020-12 validator accepts, and on a rejection returns the path
and the schema keyword where it failed, from which ``validate_document``
words the error.  A schema is checked once when it is loaded, so it uses no
keyword the walk does not cover.  The tests compare the walk with a
reference validator; family specs, bare or listed, pass the same walk once.
The ``*_to_json`` writers only build documents.  Rationals are serialized
as integer num/den pairs plus a convenience decimal string; the decimal is
never read back.  A run manifest records every file the run reads or writes.
"""

from __future__ import annotations

import json
import numbers
import re
import time
from fractions import Fraction
from functools import cache
from importlib import resources

from . import __version__
from .balls import decode_code
from .coloring import EdgeColoring, VertexColoring
from .decomposer import Partition, PartitionVerdict, SplittingReport
from .errors import FormatError
from .families import FamilySpec
from .quasihom import QuasihomParams, QuasihomVerdict, WitnessStats
from .stats import StatVector, integer_counts

FORMAT_VERSION = 1


@cache
def _schema(kind: str) -> dict:
    """The schema of one document kind, read and checked once
    (``_refuse_uncovered``) and shared: callers must not change it."""
    ref = resources.files("qhdecomp.schemas").joinpath(f"{kind}.schema.json")
    schema = json.loads(ref.read_text())
    _refuse_uncovered(schema)
    return schema


@cache
def _kinds() -> frozenset:
    """The document kinds with a shipped schema, listed once on first use."""
    return frozenset(f.name.removesuffix(".schema.json")
                     for f in resources.files("qhdecomp.schemas").iterdir()
                     if f.name.endswith(".schema.json"))


def validate_document(doc: dict) -> dict:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str):
        raise FormatError("document missing 'kind'")
    if kind not in _kinds():
        raise FormatError(f"unknown document kind {kind!r}")
    schema = _schema(kind)
    _refuse_fault(f"{kind} document", schema, doc, schema)
    return doc


def _refuse_fault(what: str, schema, x, root: dict) -> None:
    """Raise ``FormatError`` if ``x`` fails ``schema``, a subschema of
    ``root``, naming the JSONPath from ``x`` and the keyword where it fails."""
    try:
        fault = _fault(schema, x, root)
    except RecursionError:
        raise FormatError(f"{what} nested too deeply to check") from None
    if fault is None:
        return
    keyword, path = fault
    where = "$" + "".join(
        f".{step}" if isinstance(step, str) and step.isidentifier()
        else f"[{step!r}]" for step in path)
    raise FormatError(f"invalid {what}: {where} fails {keyword!r}")


def document_of_kind(doc: dict, kind: str) -> dict:
    """``validate_document`` for a reader that takes one kind of document."""
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found != kind:
        raise FormatError(f"expected a {kind} document, got {found!r}")
    return validate_document(doc)


# --- the schema checker -------------------------------------------------------

# draft 2020-12 types; bool is no integer or number, and 1.0 is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "integer": lambda x: type(x) is int or isinstance(x, float) and x.is_integer()
    or isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: type(x) is int or type(x) is float
    or isinstance(x, numbers.Number) and not isinstance(x, bool),
}
# the keywords _fault checks; "$schema", "title" and "$defs" add no check
_KEYWORDS = {
    "$schema", "title", "$defs", "type", "const", "enum", "$ref", "minimum",
    "exclusiveMinimum", "pattern", "minItems", "maxItems", "items", "required",
    "properties", "additionalProperties",
}
_regex = cache(re.compile)  # a pattern's compiled regex, looked up in C


def _fault(schema, x, root: dict):
    """``None`` when ``x`` passes ``schema``, a subschema of ``root``, as a
    JSON Schema draft 2020-12 validator judges it; otherwise one of the
    errors such a validator reports: the keyword that fails and the path of
    keys and indices from ``x`` to the value where it fails.  Each keyword
    judges only values of its own type and passes any other value."""
    while True:
        if isinstance(schema, bool):
            return None if schema else (None, ())
        for keyword, value in schema.items():
            # the leaves of a document come first: they are checked most
            if keyword == "type":
                ok = (_TYPES[value](x) if isinstance(value, str)
                      else any(_TYPES[t](x) for t in value))
            elif keyword == "minimum":
                ok = not _TYPES["number"](x) or not x < value
            elif keyword == "exclusiveMinimum":
                ok = not _TYPES["number"](x) or not x <= value
            elif keyword == "pattern":
                ok = not isinstance(x, str) or _regex(value).search(x) is not None
            elif keyword == "properties":
                if isinstance(x, dict):
                    for k, sub in value.items():
                        if k in x and (fault := _fault(sub, x[k], root)):
                            return fault[0], (k, *fault[1])
                continue
            elif keyword == "required":
                ok = not isinstance(x, dict) or all(map(x.__contains__, value))
            elif keyword == "items":
                if isinstance(x, list):
                    for i, item in enumerate(x):
                        if fault := _fault(value, item, root):
                            return fault[0], (i, *fault[1])
                continue
            elif keyword in ("const", "enum"):
                # True is not 1 and False is not 0, but 1.0 is 1
                ok = any(x == v and isinstance(x, bool) == isinstance(v, bool)
                         for v in ((value,) if keyword == "const" else value))
            elif keyword in ("minItems", "maxItems"):
                ok = not isinstance(x, list) or not (
                    len(x) < value if keyword == "minItems" else len(x) > value)
            elif keyword == "additionalProperties":
                named = schema.get("properties", {})
                extra = [k for k in x if k not in named] if isinstance(x, dict) else []
                if value is not False:
                    for k in extra:
                        if fault := _fault(value, x[k], root):
                            return fault[0], (k, *fault[1])
                    continue
                # the fault is the object's, not the surplus key's
                ok = not extra
            else:  # "$ref" is followed below; the rest add no check
                continue
            if not ok:
                return keyword, ()
        if "$ref" not in schema:
            return None
        # the target is looked up now, so a schema may refer to itself; it
        # is checked in this frame, so a recursive schema nests less deeply
        pointer, schema = schema["$ref"], root
        for part in pointer[1:].split("/")[1:]:
            schema = schema[part.replace("~1", "/").replace("~0", "~")]


def _refuse_uncovered(schema) -> None:
    """Raise ``ValueError`` unless ``_fault`` covers ``schema`` and each
    subschema in it, so no keyword is ever silently ignored."""
    if isinstance(schema, bool):
        return
    if unknown := schema.keys() - _KEYWORDS:
        raise ValueError(f"no check for schema keywords {sorted(unknown)}")
    values = list(schema.get("enum", []))
    if "const" in schema:
        values.append(schema["const"])
    for value in values:
        if value is not None and not isinstance(value, (str, int, float)):
            raise ValueError(f"no check for const or enum value {value!r}")
    if not schema.get("$ref", "#").startswith("#"):
        raise ValueError(f"no check for $ref {schema['$ref']!r} outside the schema")
    subschemas = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values()]
    subschemas += [schema[k] for k in ("items", "additionalProperties") if k in schema]
    for sub in subschemas:
        _refuse_uncovered(sub)


def rational(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "decimal": format(float(x), ".12g")}


def _document(kind: str, **fields) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": kind, **fields}


def stat_vector_to_json(s: StatVector) -> dict:
    return _document(
        "stat_vector",
        R=s.R,
        n=s.n,
        radii=[
            {
                "r": r,
                "entries": [
                    {"code_hex": code.hex(), "num": f.numerator, "den": f.denominator}
                    for code, f in sorted(s.at(r).items())
                ],
            }
            for r in range(1, s.R + 1)
        ],
    )


def stat_vector_from_json(doc: dict) -> StatVector:
    """The StatVector of a document whose layers are radii 1..R in order,
    each a distribution: no code listed twice, frequencies summing to 1."""
    document_of_kind(doc, "stat_vector")
    R = int(doc["R"])
    if len(doc["radii"]) != R:
        raise FormatError(f"stat_vector has R = {R} but {len(doc['radii'])} radii layers")
    radii = []
    for r, layer in enumerate(doc["radii"], 1):
        if layer["r"] != r:
            raise FormatError(f"stat_vector layer {r} is marked r = {layer['r']}")
        entries = layer["entries"]
        dist = {
            bytes.fromhex(e["code_hex"]): Fraction(int(e["num"]), int(e["den"]))
            for e in entries
        }
        if len(dist) != len(entries):
            raise FormatError(f"stat_vector layer r = {r} lists a code twice")
        (counts,), common = integer_counts([dist])
        total = sum(counts.values())
        if total != common:
            raise FormatError(f"stat_vector layer r = {r} frequencies sum to "
                              f"{Fraction(total, common)}, not 1")
        radii.append(dist)
    n = doc.get("n")
    return StatVector(R, tuple(radii), n if n is None else int(n))


def family_specs_from_json(doc) -> list[FamilySpec]:
    """The specs a ``family_specs`` document lists or, for any other JSON
    value, the one bare spec it is, checked as a listed spec is."""
    if isinstance(doc, dict) and doc.get("kind") == "family_specs":
        return [_family_spec(spec) for spec in validate_document(doc)["specs"]]
    schema = _schema("family_specs")
    _refuse_fault("family spec", schema["$defs"]["family_spec"], doc, schema)
    return [_family_spec(doc)]


def _family_spec(doc: dict) -> FamilySpec:
    # the schema has checked every value, and it counts 6.0 as an integer
    return FamilySpec(doc["kind"], tuple(map(int, doc.get("params", ()))),
                      tuple(map(_family_spec, doc.get("parts", ()))),
                      int(doc.get("bridges", 0)), int(doc.get("seed", 0)))


def distance_to_json(value: Fraction, tail: Fraction) -> dict:
    return scalar_to_json("distance", value, tail=rational(tail))


def scalar_to_json(kind: str, value: Fraction, **extra) -> dict:
    return _document(kind, value=rational(value), **extra)


def quasihom_verdict_to_json(v: QuasihomVerdict, p: QuasihomParams) -> dict:
    return _document(
        "quasihom_verdict",
        status=v.status,
        params={
            "epsilon": rational(p.epsilon),
            "lambda": rational(p.lam),
            "delta": rational(p.delta),
            "radius": p.R,
        },
        witness=list(v.witness) if v.witness is not None else None,
        witness_stats=_witness_stats_json(v.witness_stats),
        near_misses=v.near_misses,
        candidates_checked=v.candidates_checked,
    )


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
    return _document(
        "partition",
        n=p.n,
        K=p.K,
        assignment=list(p.assignment),
        deleted_edges=[list(e) for e in p.deleted_edges],
    )


def partition_from_json(doc: dict) -> Partition:
    document_of_kind(doc, "partition")
    # the partition schema types an embedded verdict only as an object
    if doc.get("verdict") is not None:
        document_of_kind(doc["verdict"], "partition_verdict")
    # JSON Schema counts 1.0 as an integer, so the schema admits it
    return Partition(
        int(doc["n"]),
        tuple(map(int, doc["assignment"])),
        int(doc["K"]),
        tuple((int(e[0]), int(e[1])) for e in doc["deleted_edges"]),
    )


def partition_verdict_to_json(v: PartitionVerdict) -> dict:
    return _document(
        "partition_verdict",
        passed=v.passed,
        deleted_ok=v.deleted_ok,
        deleted_count=v.deleted_count,
        deleted_budget=rational(v.deleted_budget),
        empty_part_ok=v.empty_part_ok,
        empty_fraction=rational(v.empty_fraction),
        sizes_ok=v.sizes_ok,
        size_threshold=rational(v.size_threshold),
        parts_quasihom_ok=v.parts_quasihom_ok,
        parts=[
            {
                "part": pc.part,
                "size": pc.size,
                "fraction": rational(pc.fraction),
                "big_enough": pc.big_enough,
                "quasihom_status": pc.quasihom.status if pc.quasihom else None,
            }
            for pc in v.parts
        ],
    )


def edge_coloring_to_json(g_n: int, vc: VertexColoring, ec: EdgeColoring) -> dict:
    return _document(
        "edge_coloring",
        n=g_n,
        vertex_palette=vc.palette,
        vertex_colors=list(vc.colors),
        edge_palette=ec.palette,
        color_pairs={str(idx): list(pair) for idx, pair in sorted(ec.pair_of.items())},
        edges=[{"u": u, "v": v, "c": c} for (u, v), c in sorted(ec.colors.items())],
    )


def edge_colors_from_json(doc: dict) -> dict[tuple[int, int], int]:
    document_of_kind(doc, "edge_coloring")
    return {(int(e["u"]), int(e["v"])): int(e["c"]) for e in doc["edges"]}


def splitting_to_json(rep: SplittingReport) -> dict:
    return _document(
        "splitting",
        K=rep.K,
        R=rep.R,
        items=[
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
        cross_ratio_nonincreasing=rep.cross_ratio_nonincreasing,
        part_drift={
            str(i): [rational(v) for v in vals]
            for i, vals in sorted(rep.part_drift.items())
        },
    )


def convergence_to_json(rep) -> dict:
    return _document(
        "convergence",
        R=rep.R,
        sizes=rep.sizes,
        tail=rational(rep.tail),
        pairwise=[
            {"i": i, "j": j, "value": rational(v)}
            for (i, j), v in sorted(rep.pairwise.items())
        ],
        consecutive=[rational(v) for v in rep.consecutive],
        consecutive_nonincreasing=rep.consecutive_nonincreasing,
    )


def atlas_to_json(census: dict[bytes, int], r: int) -> dict:
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
    return _document("atlas", r=r, entries=entries)


class ManifestWriter:
    """Records enough to replay a run bit-exactly (same tool version),
    including every file the run reads or writes through it."""

    def __init__(self, subcommand: str, argv: list[str]):
        self.doc = _document(
            "run_manifest",
            tool_version=__version__,
            subcommand=subcommand,
            argv=list(argv),
            parameters={},
            seeds={},
            inputs=[],
            outputs=[],
            wall_time_s=None,
        )
        self._start = time.monotonic()

    def record(self, **params):
        for k, v in params.items():
            if isinstance(v, Fraction):
                v = rational(v)
            self.doc["parameters"][k] = v

    def seed(self, **seeds):
        self.doc["seeds"].update(seeds)

    def read(self, path) -> str:
        """The text of the input file ``path``."""
        with open(path) as fh:
            text = fh.read()
        self.doc["inputs"].append(str(path))
        return text

    def write(self, path, doc: dict | str) -> None:
        """Write a document (through ``write_json``) or text to the output
        file ``path``; without a path, do nothing."""
        if path is None:
            return
        if isinstance(doc, dict):
            write_json(path, doc)
        else:
            with open(path, "w") as fh:
                fh.write(doc)
        self.doc["outputs"].append(str(path))

    def finish(self, path) -> dict:
        """Stamp the wall time and, given a path, write the manifest there."""
        self.doc["wall_time_s"] = round(time.monotonic() - self._start, 6)
        if path:
            write_json(path, self.doc)
        return self.doc


def write_json(path, doc: dict) -> None:
    """Validate ``doc`` against its kind's schema, then write it."""
    validate_document(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
