"""JSON report documents, their schemas, and run manifests.

Every document carries ``format_version`` and ``kind`` and validates
against a schema shipped under ``qhdecomp/schemas``; a test checks each
shipped schema against its metaschema.  Each document is validated once on
each side: ``write_json`` checks it before writing, and each reader checks
what it reads.  Each kind's schema is compiled once into a checker, the
only validator: it accepts exactly what a JSON Schema draft 2020-12
validator accepts, and on a rejection returns the path and the schema
keyword where it failed, from which ``validate_document`` words the error.
The tests compare the checker with a reference validator.  The
``*_to_json`` writers only build documents.
Rationals are serialized as integer num/den pairs plus a convenience
decimal string; the decimal is never read back.  A run manifest records
every file the run reads or writes.
"""

from __future__ import annotations

import json
import numbers
import re
import time
from fractions import Fraction
from functools import cache
from importlib import resources

from .coloring import EdgeColoring, VertexColoring
from .decomposer import Partition, PartitionVerdict, SplittingReport
from .errors import FormatError
from .quasihom import QuasihomParams, QuasihomVerdict, WitnessStats
from .stats import StatVector, integer_counts

FORMAT_VERSION = 1


@cache
def _schema(kind: str) -> dict:
    """The schema of one document kind, read once and shared: callers must
    not change it."""
    ref = resources.files("qhdecomp.schemas").joinpath(f"{kind}.schema.json")
    return json.loads(ref.read_text())


@cache
def _kinds() -> frozenset:
    """The document kinds with a shipped schema, listed once on first use."""
    return frozenset(f.name.removesuffix(".schema.json")
                     for f in resources.files("qhdecomp.schemas").iterdir()
                     if f.name.endswith(".schema.json"))


@cache
def _checker(kind: str):
    """The compiled checker of one document kind, built once
    (``_compile_schema``)."""
    return _compile_schema(_schema(kind))


@cache
def _check(kind: str):
    """``_checker(kind)`` as a predicate."""
    checker = _checker(kind)
    return lambda doc: checker(doc) is True


def validate_document(doc: dict) -> dict:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str):
        raise FormatError("document missing 'kind'")
    if kind not in _kinds():
        raise FormatError(f"unknown document kind {kind!r}")
    try:
        fault = _checker(kind)(doc)
    except RecursionError:
        raise FormatError(f"{kind} document nests values too deeply to check") from None
    if fault is True:
        return doc
    where = "$" + "".join(
        f".{step}" if isinstance(step, str) and step.isidentifier()
        else f"[{step!r}]" for step in fault.path)
    raise FormatError(f"invalid {kind} document: {where} fails {fault.keyword!r}")


def document_of_kind(doc: dict, kind: str) -> dict:
    """``validate_document`` for a reader that takes one kind of document."""
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found != kind:
        raise FormatError(f"expected a {kind} document, got {found!r}")
    return validate_document(doc)


# --- the compiled checker -----------------------------------------------------

# draft 2020-12 types; bool is no integer or number, and 1.0 is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "integer": lambda x: type(x) is int or not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()),
    "number": lambda x: type(x) is int or type(x) is float or not isinstance(x, bool)
    and isinstance(x, numbers.Number),
}
# the keywords of the shipped schemas; "$schema", "title" and "$defs" add
# no check of their own
_COMPILED = {
    "$schema", "title", "$defs", "type", "const", "enum", "$ref", "minimum",
    "exclusiveMinimum", "pattern", "minItems", "maxItems", "items", "required",
    "properties", "additionalProperties",
}


class _Fault:
    """Where a compiled check rejected an instance: the path of keys and
    indices from the instance to the rejected value, and the schema keyword
    that failed there.  It is falsy, as a check's ``False`` is."""

    __slots__ = ("path", "keyword")

    def __init__(self, path: tuple, keyword):
        self.path = path
        self.keyword = keyword

    def __bool__(self):
        return False


def _fault(result, keyword, *step) -> _Fault:
    """The fault behind ``result``, a check's answer other than ``True``:
    the ``_Fault`` it returned, or ``keyword`` failing at the value it was
    given when it returned ``False``; ``step``, the key or index of that
    value, starts the path."""
    if isinstance(result, _Fault):
        return _Fault(step + result.path, result.keyword)
    return _Fault(step, keyword)


def _compile_schema(schema):
    """A check that returns ``True`` for exactly the instances a JSON
    Schema draft 2020-12 validator accepts, and for any other instance a
    ``_Fault``: the path and keyword of one of the errors such a validator
    reports for it.  It covers the keywords in ``_COMPILED``; a
    schema with any other keyword raises ``ValueError`` here, so no keyword
    is ever silently ignored."""
    return _placed(*_compile(schema, schema, {}))


def _placed(keyword, check):
    """``check`` answering a ``_Fault`` where it would answer ``False``."""

    def placed(x):
        result = check(x)
        return result if result is True else _fault(result, keyword)

    return placed


def _compile(schema, root: dict, refs: dict):
    """The check of ``schema`` and the keyword it names by ``False``: the
    check returns ``True``, ``False`` when that keyword fails at the value
    it was given, or a ``_Fault``.  The leaf checks return bools; a
    combinator that sees a check answer other than ``True`` turns the
    answer into a ``_Fault``."""
    if isinstance(schema, bool):
        # the false schema fails under no keyword
        return None, (lambda x: True) if schema else (lambda x: False)
    unknown = schema.keys() - _COMPILED
    if unknown:
        raise ValueError(f"no compiled check for schema keywords {sorted(unknown)}")
    checks = []  # (keyword, check) pairs
    declared = None
    if "type" in schema:
        declared = schema["type"]
        declared = {declared} if isinstance(declared, str) else set(declared)
        tests = [_TYPES[t] for t in sorted(declared)]
        checks.append(("type", tests[0] if len(tests) == 1
                       else lambda x: any(t(x) for t in tests)))

    def applies(types, guard, keyword_checks):
        # keyword checks see only values of their types, and other values
        # pass them; after a type check that admits no other type, they
        # need no guard of their own
        if not keyword_checks:
            return
        if declared and declared <= types:
            checks.extend(keyword_checks)
        else:
            keyword, body = _all(keyword_checks)
            checks.append((keyword, lambda x: not guard(x) or body(x)))

    if "const" in schema:
        checks.append(("const", _equals(schema["const"])))
    if "enum" in schema:
        options = [_equals(v) for v in schema["enum"]]
        checks.append(("enum", lambda x: any(e(x) for e in options)))
    if "$ref" in schema:
        checks.append(("$ref", _ref(schema["$ref"], root, refs)))
    number = []
    if "minimum" in schema:
        low = schema["minimum"]
        number.append(("minimum", lambda x: not x < low))
    if "exclusiveMinimum" in schema:
        above = schema["exclusiveMinimum"]
        number.append(("exclusiveMinimum", lambda x: not x <= above))
    applies({"integer", "number"}, _TYPES["number"], number)
    string = []
    if "pattern" in schema:
        search = re.compile(schema["pattern"]).search
        string.append(("pattern", lambda x: search(x) is not None))
    applies({"string"}, _TYPES["string"], string)
    array = []
    if "minItems" in schema:
        min_items = schema["minItems"]
        array.append(("minItems", lambda x: not len(x) < min_items))
    if "maxItems" in schema:
        max_items = schema["maxItems"]
        array.append(("maxItems", lambda x: not len(x) > max_items))
    if "items" in schema:
        item_keyword, item = _compile(schema["items"], root, refs)

        def each_item(x):
            for value in x:
                result = item(value)
                if result is not True:
                    # an item checked before is not this object, or it
                    # would have failed there
                    i = next(i for i, seen in enumerate(x) if seen is value)
                    return _fault(result, item_keyword, i)
            return True

        array.append(("items", each_item))
    applies({"array"}, _TYPES["array"], array)
    obj = []
    if "required" in schema:
        required = frozenset(schema["required"])
        obj.append(("required", lambda x: x.keys() >= required))
    properties = schema.get("properties", {})
    if properties:
        compiled = {k: _compile(sub, root, refs) for k, sub in properties.items()}
        props = [(k, check) for k, (_, check) in compiled.items()]

        def each_property(x):
            for k, check in props:
                if k in x:
                    result = check(x[k])
                    if result is not True:
                        return _fault(result, compiled[k][0], k)
            return True

        obj.append(("properties", each_property))
    if schema.get("additionalProperties") is False:
        # the fault is the object's, not the surplus key's
        named = properties.keys()
        obj.append(("additionalProperties", lambda x: x.keys() <= named))
    elif "additionalProperties" in schema:
        extra_keyword, extra = _compile(schema["additionalProperties"], root, refs)

        def each_extra(x):
            for k, v in x.items():
                if k not in properties:
                    result = extra(v)
                    if result is not True:
                        return _fault(result, extra_keyword, k)
            return True

        obj.append(("additionalProperties", each_extra))
    applies({"object"}, _TYPES["object"], obj)
    return _all(checks)


def _all(checks: list):
    """The check of every (keyword, check) pair in ``checks``, in order, and
    the keyword it names by ``False``."""
    if not checks:
        return None, lambda x: True
    if len(checks) == 1:
        return checks[0]
    if len(checks) == 2:
        (first_keyword, first), (second_keyword, second) = checks

        def both(x):
            result = first(x) and second(x)
            if result is False:
                # a bool check failed; which one, running the first again tells
                return _Fault((), first_keyword if first(x) is False else second_keyword)
            return result

        return None, both

    def every(x):
        for keyword, check in checks:
            result = check(x)
            if result is not True:
                return _fault(result, keyword)
        return True

    return None, every


def _equals(value):
    """JSON Schema equality with ``value``: ``True`` is not ``1`` and
    ``False`` is not ``0``, but ``1.0`` is ``1``."""
    if value is None or isinstance(value, bool):
        return lambda x: x is value
    if isinstance(value, (str, int, float)):
        return lambda x: x is not True and x is not False and x == value
    raise ValueError(f"no compiled check for const or enum value {value!r}")


def _ref(pointer: str, root: dict, refs: dict):
    """A check that looks the target up when it runs, so a schema may refer
    to itself."""
    if not pointer.startswith("#"):
        raise ValueError(f"no compiled check for $ref {pointer!r} outside the schema")
    if pointer not in refs:
        refs[pointer] = None  # compiling; a reference back to it resolves later
        target = root
        for part in pointer[1:].split("/")[1:]:
            target = target[part.replace("~1", "/").replace("~0", "~")]
        refs[pointer] = _placed(*_compile(target, root, refs))
    return lambda x: refs[pointer](x)


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
    return _document("atlas", r=r, entries=entries)


class ManifestWriter:
    """Records enough to replay a run bit-exactly (same tool version),
    including every file the run reads or writes through it."""

    def __init__(self, subcommand: str, argv: list[str]):
        from . import __version__

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
