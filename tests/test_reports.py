import ast
import copy
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.validators import validator_for

from importlib import resources

import qhdecomp
from qhdecomp import reports
from qhdecomp.coloring import color_edges
from qhdecomp.errors import FormatError, InfeasibleSpecError
from qhdecomp.decomposer import Partition, decompose, splitting_diagnostics, verify_partition
from qhdecomp.families import FamilySpec, generate, sequence
from qhdecomp.graph import edit_distance, to_edge_list
from qhdecomp.quasihom import QuasihomParams, check_exact, falsify_heuristic
from qhdecomp.stats import d_s, sparse_density, stat_vector

from conftest import cycle, path


_KINDS = sorted(f.name.removesuffix(".schema.json")
                for f in resources.files("qhdecomp.schemas").iterdir()
                if f.name.endswith(".schema.json"))


def _reference(kind):
    """The jsonschema validator of one shipped schema, built here so the
    schema walk is compared with jsonschema itself."""
    schema = reports._schema(kind)
    return validator_for(schema)(schema)


def _fault(kind, doc):
    """The schema walk's fault for ``doc`` judged as a ``kind`` document:
    ``None`` when it passes, else the keyword and path where it fails."""
    schema = reports._schema(kind)
    return reports._fault(schema, doc, schema)


def _check(kind):
    """The schema walk of one kind as a predicate."""
    return lambda doc: _fault(kind, doc) is None


def _documents():
    g = generate(FamilySpec("random_regular", (12, 3), seed=0))
    yield reports.stat_vector_to_json(stat_vector(g, 2))
    c12 = cycle(12)
    part = decompose(c12, Fraction(1, 10), Fraction(3, 10), 2, 1)
    yield reports.partition_to_json(part)
    # rationals, which the schemas share through $ref
    p = QuasihomParams(Fraction(1, 20), Fraction(3, 10), Fraction(1, 10), 2)
    yield reports.quasihom_verdict_to_json(check_exact(cycle(8), p), p)
    verdict = verify_partition(c12, part, Fraction(1, 10), Fraction(3, 10), Fraction(1, 12), 2,
                               budget=50)
    yield reports.partition_verdict_to_json(verdict)


def _broken(doc):
    """Invalid variants of a valid document: a field dropped, retyped, an
    unknown field added, a nested value spoiled."""
    for key in sorted(doc):
        if key == "kind":
            continue
        dropped = copy.deepcopy(doc)
        del dropped[key]
        yield dropped
        retyped = copy.deepcopy(doc)
        retyped[key] = "x" if not isinstance(doc[key], str) else 7
        yield retyped
    extra = copy.deepcopy(doc)
    extra["surplus"] = 1
    yield extra
    for key, value in sorted(doc.items()):
        if isinstance(value, list) and value:
            nested = copy.deepcopy(doc)
            nested[key][0] = None
            yield nested
            # two faults: the reported one is one of jsonschema's errors
            for other in sorted(doc):
                if other not in (key, "kind"):
                    both = copy.deepcopy(nested)
                    both[other] = "x" if not isinstance(doc[other], str) else 7
                    yield both


def _assert_names_an_error(kind, bad, errors):
    """The walk's fault for a rejected document is the path and keyword
    of one of jsonschema's ``errors`` for it, and ``validate_document``'s
    message names that path."""
    keyword, path = _fault(kind, bad)
    paths = {(tuple(e.absolute_path), e.validator): e.json_path for e in errors}
    assert (path, keyword) in paths, (bad, path, keyword)
    with pytest.raises(FormatError) as got:
        reports.validate_document(bad)
    where = paths[path, keyword]
    assert str(got.value) == f"invalid {kind} document: {where} fails {keyword!r}"


def test_validation_errors_match_jsonschema_validate():
    checked = 0
    for doc in _documents():
        assert reports.validate_document(doc) is doc
        validator = _reference(doc["kind"])
        for bad in _broken(doc):
            errors = list(validator.iter_errors(bad))
            if errors:
                _assert_names_an_error(doc["kind"], bad, errors)
                checked += 1
            else:
                assert reports.validate_document(bad) is bad
    assert checked > 10


def test_validator_built_once_per_kind():
    doc = next(_documents())
    reports.validate_document(doc)
    first = reports._schema("stat_vector")
    reports.validate_document(doc)
    assert reports._schema("stat_vector") is first
    with pytest.raises(FormatError, match="unknown document kind 'no_such_kind'"):
        reports.validate_document({"kind": "no_such_kind"})


def _writer_corpus(tmp_path):
    """Documents of every kind, each built by its writer (``family_specs``
    is only ever read; its entries come from ``FamilySpec.to_json``)."""
    g = generate(FamilySpec("random_regular", (12, 3), seed=0))
    c12 = cycle(12)
    sv = stat_vector(g, 2)
    yield reports.stat_vector_to_json(sv)
    vc, ec = color_edges(g)
    yield reports.stat_vector_to_json(stat_vector(g, 2, edge_colors=ec.colors))
    yield reports.edge_coloring_to_json(g.n, vc, ec)
    yield reports.distance_to_json(*d_s(sv, stat_vector(c12, 2)))
    yield reports.scalar_to_json("edit_distance", edit_distance(g, c12))
    yield reports.scalar_to_json("sparse_density", sparse_density(path(3), g), pattern_vertices=3)
    census = {code: int(freq * g.n) for code, freq in sv.at(2).items()}
    yield reports.atlas_to_json(census, 2)
    p = QuasihomParams(Fraction(1, 20), Fraction(3, 10), Fraction(1, 10), 2)
    yield reports.quasihom_verdict_to_json(check_exact(cycle(8), p), p)
    union = generate(FamilySpec(
        "disjoint_union", parts=(FamilySpec("cycle", (9,)), FamilySpec("grid_torus", (3, 3)))
    ))
    found = falsify_heuristic(union, p, 200)
    assert found.witness is not None
    yield reports.quasihom_verdict_to_json(found, p)
    part = decompose(c12, Fraction(1, 10), Fraction(3, 10), 2, 1)
    yield reports.partition_to_json(part)
    verdict = verify_partition(c12, part, Fraction(1, 10), Fraction(3, 10), Fraction(1, 12), 2,
                               budget=50)
    yield reports.partition_verdict_to_json(verdict)
    yield reports.splitting_to_json(splitting_diagnostics([(c12, part)], 2))
    specs = [FamilySpec("cycle", (n,)) for n in (6, 8, 10)]
    yield reports.convergence_to_json(sequence(specs, 2))
    yield {"format_version": reports.FORMAT_VERSION, "kind": "family_specs",
           "specs": [s.to_json() for s in specs]}
    mw = reports.ManifestWriter("stats", ["stats", "--radius", "2"])
    mw.record(radius=2, delta=Fraction(1, 10))
    mw.seed(seed=0)
    (tmp_path / "g.el").write_text(to_edge_list(g))
    mw.read(tmp_path / "g.el")
    mw.write(tmp_path / "s.json", reports.stat_vector_to_json(sv))
    yield mw.finish(tmp_path / "manifest.json")


def test_every_writer_output_validates(tmp_path):
    # writers only build documents; this is their schema check, and
    # write_json repeats it on every file the CLI writes
    kinds = set()
    for i, doc in enumerate(_writer_corpus(tmp_path)):
        assert reports.validate_document(doc) is doc
        out = tmp_path / f"doc{i}.json"
        reports.write_json(out, doc)
        assert json.loads(out.read_text()) == doc
        kinds.add(doc["kind"])
    assert sorted(kinds) == _KINDS and len(kinds) == 13


@pytest.mark.parametrize("kind", _KINDS)
def test_shipped_schema_is_valid(kind):
    # the runtime never checks a schema against its metaschema
    schema = reports._schema(kind)
    validator_for(schema).check_schema(schema)
    assert schema["title"] == kind


def test_accept_path_leaves_jsonschema_unimported(tmp_path):
    # the schema walk is the only validator: accepting a document,
    # rejecting one and running the CLI never import jsonschema
    src = os.path.dirname(os.path.dirname(os.path.abspath(qhdecomp.__file__)))
    code = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "from qhdecomp import reports",
        "from qhdecomp.cli import main",
        "from qhdecomp.errors import FormatError",
        "doc = reports.distance_to_json(Fraction(1, 3), Fraction(1, 4))",
        "reports.validate_document(doc)",
        "del doc['tail']",
        "try:",
        "    reports.validate_document(doc)",
        "    sys.exit('a document without its tail was accepted')",
        "except FormatError:",
        "    pass",
        "assert main(['generate', '--kind', 'cycle', '--params', '6', '--out', 'c.el']) == 0",
        "assert main(['stats', '--input', 'c.el', '--radius', '2', '--out', 's.json']) == 0",
        "assert main(['distance', '--a', 's.json', '--b', 's.json']) == 0",
        "print('jsonschema' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert "jsonschema>=4.0" in project["optional-dependencies"]["test"]


def _unused_imports(directory):
    """The imports of the modules in ``directory`` that name something
    their module never reads: left over from a deletion.  A
    "# noqa: F401" import is kept on purpose, and __all__ re-exports."""
    unused = []
    for source in sorted(Path(directory).glob("*.py")):
        text = source.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in [t.id for t in node.targets]:
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{source.name}:{node.lineno} {name}")
    return unused


def test_no_unused_imports_in_src():
    assert _unused_imports(Path(qhdecomp.__file__).parent) == []


def test_no_unused_imports_in_tests_and_scripts():
    root = Path(__file__).parents[1]
    assert _unused_imports(root / "tests") == _unused_imports(root / "scripts") == []


def test_no_unread_private_names_in_src():
    # a module-level private name that no module of src reads outside its
    # own definition is dead code, or lives on only for the tests
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(Path(qhdecomp.__file__).parent.glob("*.py"))}
    reads, defined = [], []
    for module, tree in trees.items():
        for node in tree.body:
            inner = list(ast.walk(node))
            reads.append((node, {n.id for n in inner if isinstance(n, ast.Name)
                                 and isinstance(n.ctx, ast.Load)}
                          | {n.attr for n in inner if isinstance(n, ast.Attribute)}
                          | {a.name for n in inner if isinstance(n, ast.ImportFrom)
                             for a in n.names}))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(f"{module}:{node.lineno} {name}", name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    unread = [where for where, name, node in defined
              if not any(name in names for reader, names in reads if reader is not node)]
    assert unread == []


def test_unknown_kinds_are_refused_before_any_schema_is_read(tmp_path):
    # a kind was read as a file name under the schemas package, so "../"
    # in it compiled and applied any schema file on the machine
    (tmp_path / "evil.schema.json").write_text('{"type": "object"}')
    kind = os.path.relpath(tmp_path / "evil", str(resources.files("qhdecomp.schemas")))
    assert kind.startswith("..")
    with pytest.raises(FormatError, match="unknown document kind"):
        reports.validate_document({"kind": kind, "anything": 1})


def test_manifest_records_reads_and_writes(tmp_path):
    mw = reports.ManifestWriter("generate", [])
    (tmp_path / "in.el").write_text("2 1\n0 1\n")
    assert mw.read(tmp_path / "in.el") == "2 1\n0 1\n"
    mw.write(tmp_path / "out.el", "text\n")
    mw.write(None, "never written")
    mw.write(tmp_path / "d.json", reports.distance_to_json(Fraction(1, 3), Fraction(1, 4)))
    with pytest.raises(FormatError, match="invalid distance document"):
        mw.write(tmp_path / "bad.json", {"format_version": 1, "kind": "distance"})
    assert (tmp_path / "out.el").read_text() == "text\n"
    assert json.loads((tmp_path / "d.json").read_text())["tail"]["den"] == 4
    assert not (tmp_path / "bad.json").exists()
    assert mw.doc["inputs"] == [str(tmp_path / "in.el")]
    assert mw.doc["outputs"] == [str(tmp_path / "out.el"), str(tmp_path / "d.json")]
    assert mw.finish(None)["wall_time_s"] is not None


def test_write_json_refuses_invalid_documents(tmp_path):
    doc = reports.distance_to_json(Fraction(1, 3), Fraction(1, 4))
    del doc["tail"]
    out = tmp_path / "d.json"
    with pytest.raises(FormatError, match="invalid distance document"):
        reports.write_json(out, doc)
    assert not out.exists()


def test_partition_reader_checks_embedded_verdict():
    c12 = cycle(12)
    part = decompose(c12, Fraction(1, 10), Fraction(3, 10), 2, 1)
    verdict = verify_partition(c12, part, Fraction(1, 10), Fraction(3, 10), Fraction(1, 12), 2,
                               budget=50)
    doc = reports.partition_to_json(part)
    doc["verdict"] = reports.partition_verdict_to_json(verdict)
    assert reports.partition_from_json(doc) == part
    del doc["verdict"]["passed"]
    with pytest.raises(FormatError, match="invalid partition_verdict document"):
        reports.partition_from_json(doc)
    doc["verdict"] = {"kind": "distance"}
    with pytest.raises(FormatError, match="expected a partition_verdict document"):
        reports.partition_from_json(doc)


# values a mutant puts in place of a nested value or under a surplus key
_SWAPS = [None, True, False, 0, -1, 1.0, 2.5, 10 ** 30, "", [], {}]
# surplus keys: an unknown name, and optional properties some schemas type
_SURPLUS = ["surplus", "n", "tail", "decimal", "verdict", "witness_stats", "parts", "seed"]


def _paths(node, path=()):
    """The path of every value nested in ``node``, ``node`` itself first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def _mutants(draw, corpus):
    """A corpus document's kind, and the document with one or two nested
    values swapped, keys deleted or surplus keys added."""
    doc = copy.deepcopy(draw(st.sampled_from(corpus)))
    kind = doc["kind"]
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        op = draw(st.sampled_from(["swap", "delete", "surplus"]))
        if op == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif op == "surplus" and isinstance(parent[path[-1]], dict):
            key = draw(st.sampled_from(_SURPLUS))
            parent[path[-1]][key] = copy.deepcopy(draw(st.sampled_from(_SWAPS)))
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_SWAPS)))
    return kind, doc


def test_compiled_checker_agrees_with_jsonschema(tmp_path):
    corpus = list(_writer_corpus(tmp_path))
    references = {kind: _reference(kind) for kind in _KINDS}
    for doc in corpus:
        validator = references[doc["kind"]]
        check = _check(doc["kind"])
        assert check(doc) and validator.is_valid(doc)
        for bad in _broken(doc):
            assert check(bad) == validator.is_valid(bad), bad
        for value in _SWAPS:  # no document at all
            assert not check(value) and not validator.is_valid(value)
    outcomes = []

    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(_mutants(corpus))
    def agree(mutant):
        # judged as the kind it was made from, whatever "kind" now holds
        kind, doc = mutant
        want = references[kind].is_valid(doc)
        assert _check(kind)(doc) == want, (kind, doc)
        outcomes.append(want)

    agree()
    assert outcomes.count(True) > 40 and outcomes.count(False) > 40


def test_rejections_name_one_of_jsonschemas_errors(tmp_path):
    corpus = list(_writer_corpus(tmp_path))
    references = {kind: _reference(kind) for kind in _KINDS}
    rejected = set()

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(_mutants(corpus))
    def names_an_error(mutant):
        kind, doc = mutant
        errors = list(references[kind].iter_errors(doc))
        if errors and doc.get("kind") == kind:
            _assert_names_an_error(kind, doc, errors)
            rejected.add(kind)

    names_an_error()
    assert len(rejected) > 10


# valid nested specs, and what a spec mutant puts in place of a value or
# under a key: wrong types, booleans, integral and non-integral floats,
# negative numbers, unknown kinds and keys, and parts that are no spec
_SPECS = [FamilySpec("bridged_union", bridges=2, seed=3, parts=(
              FamilySpec("cycle", (5,)), FamilySpec("random_regular", (8, 3), seed=2))),
          FamilySpec("disjoint_union", parts=(
              FamilySpec("d_ary_tree", (2, 2)),
              FamilySpec("disjoint_union", parts=(FamilySpec("grid_torus", (3, 4)),
                                                  FamilySpec("path", (3,))))))]
_SPEC_SWAPS = [None, True, False, -1, 0, 4, 4.0, 2.5, "", "cycle", "wheel", [], [4], [4.0],
               [True], {}, {"kind": "cycle", "params": [4]}, {"params": [4]}, [{"kind": "path"}]]
_SPEC_KEYS = ["surplus", "bridge", "kind", "params", "parts", "bridges", "seed"]


@st.composite
def _spec_mutants(draw):
    """A valid nested spec with one or two values swapped, keys deleted
    or keys added; the spec itself may be swapped for another value."""
    box = [draw(st.sampled_from(_SPECS)).to_json()]
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(box))[1:]))
        parent = box
        for step in path[:-1]:
            parent = parent[step]
        op = draw(st.sampled_from(["swap", "delete", "add"]))
        if op == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif op == "add" and isinstance(parent[path[-1]], dict):
            value = draw(st.sampled_from(_SPEC_SWAPS))
            parent[path[-1]][draw(st.sampled_from(_SPEC_KEYS))] = copy.deepcopy(value)
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_SPEC_SWAPS)))
    return box[0]


def _built(spec: dict) -> FamilySpec:
    """The spec a checked JSON spec describes, its integers read by value."""
    return FamilySpec(spec["kind"], tuple(int(x) for x in spec.get("params", [])),
                      tuple(_built(p) for p in spec.get("parts", [])),
                      int(spec.get("bridges", 0)), int(spec.get("seed", 0)))


def test_spec_reader_accepts_what_jsonschema_accepts():
    root = reports._schema("family_specs")
    schema = {"$schema": root["$schema"], "$defs": root["$defs"],
              "$ref": "#/$defs/family_spec"}
    reference = validator_for(schema)(schema)
    outcomes = []

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(_spec_mutants())
    def agree(spec):
        doc = {"format_version": 1, "kind": "family_specs", "specs": [spec]}
        errors = list(reference.iter_errors(spec))
        outcomes.append(not errors)
        if not errors:
            try:
                want = [_built(spec)]
            except InfeasibleSpecError as exc:  # arity, which the schema leaves open
                for read in (spec, doc):
                    with pytest.raises(InfeasibleSpecError) as got:
                        reports.family_specs_from_json(read)
                    assert str(got.value) == str(exc)
                return
            got = reports.family_specs_from_json(spec)
            assert got == want == reports.family_specs_from_json(doc), spec
            while got:  # every integer an int, at every level
                part = got.pop()
                assert all(type(x) is int for x in (*part.params, part.bridges, part.seed))
                got += part.parts
            return
        with pytest.raises(FormatError) as bare:
            reports.family_specs_from_json(spec)
        found = re.fullmatch(r"invalid family spec: (\S+) fails '(\w+)'", str(bare.value))
        assert found, str(bare.value)
        where, keyword = found.groups()
        assert (where, keyword) in {(e.json_path, e.validator) for e in errors}, spec
        # inside a document, the same fault in the document's words
        with pytest.raises(FormatError) as listed:
            reports.family_specs_from_json(doc)
        assert str(listed.value) == (f"invalid family_specs document: $.specs[0]{where[1:]} "
                                     f"fails {keyword!r}")

    agree()
    assert outcomes.count(True) > 40 and outcomes.count(False) > 40


def test_schema_loader_refuses_uncovered_keywords(monkeypatch):
    # a keyword the walk does not check would be ignored, so loading the
    # schema refuses it, wherever in the schema it sits
    for schema, message in (
        ({"type": "string", "maxLength": 3}, "maxLength"),
        ({"properties": {"a": {"items": {"uniqueItems": True}}}}, "uniqueItems"),
        ({"$ref": "#/$defs/a", "$defs": {"a": {"type": "object", "maxProperties": 2}}},
         "maxProperties"),
        ({"additionalProperties": {"format": "date"}}, "format"),
        ({"$ref": "other.json#/x"}, "outside the schema"),
        ({"const": [1, 2]}, "const or enum value"),
        ({"enum": ["a", [1]]}, "const or enum value"),
    ):
        with pytest.raises(ValueError, match=message):
            reports._refuse_uncovered(schema)
    # every shipped schema goes through that check when it is loaded
    seen = []
    monkeypatch.setattr(reports, "_refuse_uncovered", seen.append)
    assert reports._schema.__wrapped__("family_specs") == seen[0] == reports._schema("family_specs")


def test_recursive_ref_checks_nested_specs():
    validator = _reference("family_specs")
    check = _check("family_specs")
    inner = {"kind": "cycle", "params": [5]}
    union = {"kind": "disjoint_union",
             "parts": [{"kind": "bridged_union", "bridges": 1, "parts": [inner, inner]}]}
    doc = {"format_version": 1, "kind": "family_specs", "specs": [union]}
    assert check(doc) and validator.is_valid(doc)
    spoils = ({"kind": "wheel"}, {"params": [True]}, {"bridges": -1}, {"params": 5},
              {"parts": [{"params": [3]}]})  # the last part lacks its kind
    for spoil in spoils:
        bad = copy.deepcopy(doc)
        bad["specs"][0]["parts"][0]["parts"][1].update(spoil)
        assert not check(bad) and not validator.is_valid(bad), spoil
        with pytest.raises(FormatError, match="invalid family_specs document"):
            reports.validate_document(bad)


def test_family_specs_validate_as_deep_as_generate_builds():
    # a spec that generate builds from a bare spec file must also pass
    # inside a family_specs document; the check used to give up first
    def nested(depth):
        spec = FamilySpec("cycle", (3,))
        for _ in range(depth):
            spec = FamilySpec("disjoint_union", parts=(spec,))
        return spec

    built, refused = 1, 5000  # generate builds `built` levels, not `refused`
    generate(nested(built))
    with pytest.raises(InfeasibleSpecError):
        generate(nested(refused))
    while refused - built > 1:
        depth = (built + refused) // 2
        try:
            generate(nested(depth))
            built = depth
        except InfeasibleSpecError:
            refused = depth
    doc = {"format_version": 1, "kind": "family_specs", "specs": [nested(built).to_json()]}
    assert reports.validate_document(doc) is doc


def test_stat_vector_reader_takes_integral_floats():
    # JSON Schema counts 1.0 as an integer, so the schema admits these
    sv = stat_vector(cycle(8), 2)
    doc = reports.stat_vector_to_json(sv)
    doc["R"], doc["n"] = 2.0, 8.0
    for layer in doc["radii"]:
        layer["r"] = float(layer["r"])
        for e in layer["entries"]:
            e["num"], e["den"] = float(e["num"]), float(e["den"])
    back = reports.stat_vector_from_json(doc)
    assert back == sv and type(back.R) is type(back.n) is int
    # the partition and edge_coloring readers used to pass such floats on,
    # and verify-partition and stats --colors then ended in a traceback
    part = Partition(8, (1, 1, 1, 1, 2, 2, 2, 2), 2, ((0, 7), (3, 4)))
    doc = reports.partition_to_json(part)
    doc["n"], doc["K"] = 8.0, 2.0
    doc["assignment"] = [float(a) for a in doc["assignment"]]
    doc["deleted_edges"] = [[float(u), float(v)] for u, v in doc["deleted_edges"]]
    back = reports.partition_from_json(doc)
    ints = (back.n, back.K, *back.assignment, *(x for e in back.deleted_edges for x in e))
    assert back == part and all(type(x) is int for x in ints)
    vc, ec = color_edges(cycle(8))
    doc = reports.edge_coloring_to_json(8, vc, ec)
    for e in doc["edges"]:
        e["u"], e["v"], e["c"] = float(e["u"]), float(e["v"]), float(e["c"])
    colors = reports.edge_colors_from_json(doc)
    assert colors == ec.colors
    assert all(type(x) is int for (u, v), c in colors.items() for x in (u, v, c))
