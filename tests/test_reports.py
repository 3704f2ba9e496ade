import copy
from fractions import Fraction

import jsonschema
import pytest

from qhdecomp import reports
from qhdecomp.errors import FormatError
from qhdecomp.decomposer import decompose
from qhdecomp.families import FamilySpec, generate
from qhdecomp.stats import stat_vector

from conftest import cycle


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
