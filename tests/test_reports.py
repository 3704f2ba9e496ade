import copy
from fractions import Fraction

import jsonschema
import pytest

from importlib import resources

from qhdecomp import reports
from qhdecomp.coloring import color_edges
from qhdecomp.errors import FormatError
from qhdecomp.decomposer import decompose, splitting_diagnostics, verify_partition
from qhdecomp.families import FamilySpec, generate, sequence
from qhdecomp.graph import edit_distance
from qhdecomp.quasihom import QuasihomParams, check_exact, falsify_heuristic
from qhdecomp.stats import d_s, sparse_density, stat_vector

from conftest import cycle, path


def _documents():
    g = generate(FamilySpec("random_regular", (12, 3), seed=0))
    yield reports.stat_vector_to_json(stat_vector(g, 2))
    yield reports.partition_to_json(decompose(cycle(12), Fraction(1, 10), Fraction(3, 10), 2, 1))


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
            # two faults: the reported one is jsonschema's best match, not
            # the first one found
            for other in sorted(doc):
                if other not in (key, "kind"):
                    both = copy.deepcopy(nested)
                    both[other] = "x" if not isinstance(doc[other], str) else 7
                    yield both


def test_validation_errors_match_jsonschema_validate():
    checked = 0
    for doc in _documents():
        assert reports.validate_document(doc) is doc
        schema = reports._validator(doc["kind"]).schema
        for bad in _broken(doc):
            try:
                jsonschema.validate(bad, schema)
            except jsonschema.ValidationError as want:
                with pytest.raises(FormatError) as got:
                    reports.validate_document(bad)
                assert str(got.value) == f"invalid {doc['kind']} document: {want.message}"
                checked += 1
            else:
                assert reports.validate_document(bad) is bad
    assert checked > 10


def test_validator_built_once_per_kind():
    doc = next(_documents())
    reports.validate_document(doc)
    first = reports._validator("stat_vector")
    reports.validate_document(doc)
    assert reports._validator("stat_vector") is first
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
    mw.add_input("g.el")
    mw.add_output("s.json")
    yield mw.finish(tmp_path / "manifest.json")


def test_every_writer_output_validates(tmp_path):
    # writers only build documents; this is their schema check, and
    # write_json repeats it on every file the CLI writes
    kinds = set()
    for i, doc in enumerate(_writer_corpus(tmp_path)):
        assert reports.validate_document(doc) is doc
        out = tmp_path / f"doc{i}.json"
        reports.write_json(out, doc)
        assert reports.read_json(out) == doc
        kinds.add(doc["kind"])
    schemas = resources.files("qhdecomp.schemas").iterdir()
    assert kinds == {f.name.removesuffix(".schema.json") for f in schemas if f.name.endswith(".json")}
    assert len(kinds) == 13


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
