"""The field reader of transform and report documents: each kind against
a value of every JSON type, a missing key, 1e400 and an integer past the
float64 range."""

import json

import pytest

from marginforge._jsonio import json_fields
from marginforge.errors import SchemaError

# Each value as a document spells it; json reads 1e400 as inf.
VALUES = {
    "int": "2", "float": "2.5", "true": "true", "string": '"2"', "null": "null",
    "object": '{"a": 1}', "list": "[1, 2.5]", "1e400": "1e400",
    "int-past-floats": "1" + "0" * 400, "list-of-null": "[1, null]",
    "list-of-true": "[true]", "list-of-string": '["1"]', "list-of-1e400": "[1e400]",
    "list-of-int-past-floats": "[1" + "0" * 400 + "]", "nested-list": "[[1.0]]",
}
# What each kind reads, by value name; every other value is refused.
READS = {
    int: {"int": 2, "int-past-floats": 10**400},
    float: {"int": 2.0, "float": 2.5},
    float | None: {"int": 2.0, "float": 2.5, "null": None},
    bool: {"true": True},
    str: {"string": "2"},
    dict: {"object": {"a": 1}},
    list: {"list": [1.0, 2.5]},
}
KIND_IDS = ["int", "float", "float-or-null", "bool", "str", "dict", "list"]
NAMES = {int: "a whole number", float: "a number", float | None: "a number",
         bool: "a boolean", str: "a string", dict: "an object",
         list: "a list of finite numbers"}


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("kind", READS, ids=KIND_IDS)
def test_each_kind_reads_its_values_and_refuses_the_rest(kind, value):
    doc = {"v": json.loads(VALUES[value])}
    if value in READS[kind]:
        (read,) = json_fields(doc, {"v": kind}, "doc")
        want = READS[kind][value]
        assert read == want and type(read) is type(want)
        if kind is list:
            assert all(type(v) is float for v in read)
    else:
        message = f"doc: section.v is not {NAMES[kind]}"
        with pytest.raises(SchemaError, match=f"^{message}$"):
            json_fields(doc, {"v": kind}, "doc", "section.")


def test_values_come_in_the_order_of_kinds_and_the_first_fault_is_named():
    doc = {"b": 1, "a": "x", "c": "y"}
    assert json_fields(doc, {"a": str, "b": int}, "doc") == ["x", 1]
    with pytest.raises(SchemaError, match="^doc: c is not a number$"):
        json_fields(doc, {"b": int, "c": float, "d": int}, "doc")


@pytest.mark.parametrize("kind", READS, ids=KIND_IDS)
def test_a_missing_key_is_named(kind):
    with pytest.raises(SchemaError, match="^report r.json: missing field 'phi'$"):
        json_fields({"delta": []}, {"phi": kind}, "report r.json", "headline.")
