"""Parsers return valid values or raise SchemaError naming the key; the
canonical writer writes what ``json.dumps`` writes."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import DATA

from nervelab import serialize as ser
from nervelab.cat import category_of_elements
from nervelab.corpus import nonthin_two_categories, two_categories
from nervelab.errors import SchemaError
from nervelab.simplicial import standard_simplex
from nervelab.twocat import geometric_nerve


TWO = {**two_categories(), **nonthin_two_categories()}


def without(entries, prefix):
    return [e for e in entries if e[:len(prefix)] != prefix]


def test_smap_whose_source_misses_a_face_names_the_source():
    doc = json.loads((DATA / "boundary2_to_point.smap.json").read_text())
    doc["source"]["face"] = without(doc["source"]["face"], [1, 0, "01"])
    with pytest.raises(SchemaError, match=r"^smap\.source: level 1, cell '01': face-total \[0\]"):
        ser.smap_from_doc(doc)


def test_tfun_whose_source_misses_a_composite_names_the_source():
    doc = json.loads((DATA / "iota_arrow_to_terminal.tfun.json").read_text())
    doc["source"]["hcompose2"] = doc["source"]["hcompose2"][1:]
    with pytest.raises(SchemaError, match=r"^tfun\.source: hcompose2 missing/foreign on "):
        ser.tfun_from_doc(doc)


@pytest.mark.slow
def test_a_category_of_3_million_composable_triples_round_trips():
    """The elements of Delta^2 up to level 3: 1471 arrows, 67,024 composable
    pairs and 3,065,191 composable triples, each read once by the check."""
    C = category_of_elements(standard_simplex(2, 3), 3)
    assert ser.fincat_from_doc(ser.fincat_to_doc(C)) == C


def test_checking_a_large_bound_allocates_little_beyond_the_listed_levels():
    doc = json.loads((DATA / "interval.sset.json").read_text())
    doc["dim_bound"] = 5000
    doc["cells"].update({str(n): [] for n in range(2, 5001)})
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=r"^sset: level 1, cell '00': degeneracy-total \[0\]"):
            ser.sset_from_doc(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _each(*keys):
    """Parse the smap.v1 documents held under ``keys``."""
    return lambda doc: [ser.smap_from_doc(doc.get(k), k) for k in keys]


PARSERS = {
    ".sset.json": ser.sset_from_doc,
    ".smap.json": ser.smap_from_doc,
    ".fincat.json": ser.fincat_from_doc,
    ".fin2cat.json": ser.fin2cat_from_doc,
    ".tfun.json": ser.tfun_from_doc,
    "marked_": ser.marked_from_doc,
    "pres_": ser.pres_from_doc,
    "universe.json": ser.universe_from_doc,
    "problem.json": _each("i", "p", "top", "bottom"),
    "span_": _each("f", "g"),
}

DOCUMENTS = sorted(p.name for p in DATA.glob("*.json"))


def parser_for(name):
    (parse,) = [f for key, f in PARSERS.items() if name.endswith(key) or name.startswith(key)]
    return parse


def paths(node, here=()):
    """The path of every entry below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield here + (key,)
        yield from paths(value, here + (key,))


PATHS = {name: list(paths(json.loads((DATA / name).read_text()))) for name in DOCUMENTS}
OTHER_TYPES = (None, 0, 1.5, "x", [], {})


@pytest.mark.parametrize("name", DOCUMENTS)
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_a_document_with_one_entry_deleted_or_retyped_parses_or_raises_schema_error(name, data):
    doc = json.loads((DATA / name).read_text())
    *above, key = data.draw(st.sampled_from(PATHS[name]), label="path")
    parent = doc
    for step in above:
        parent = parent[step]
    if data.draw(st.booleans(), label="delete"):
        del parent[key]
    else:
        kind = type(parent[key])
        parent[key] = data.draw(
            st.sampled_from([v for v in OTHER_TYPES if type(v) is not kind]), label="retype")
    try:
        parser_for(name)(doc)
    except SchemaError:
        pass


# -- the canonical writer ---------------------------------------------------------

def dumps(doc):
    """The canonical form as ``json.dumps`` writes it."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# few strings, so that they repeat within a document, with the characters
# that need escaping
STRINGS = st.sampled_from(["", "a", "01", "é", "☃x", "\U0001f600", "\ud800", '"', "\\", '\\"',
                           "\x00", "\n\t", "\x1f\x7f", " ", "{0}>a"])
LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | STRINGS
JSON_LIKE = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=5) | st.dictionaries(STRINGS, inner, max_size=5),
    max_leaves=30)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(doc=JSON_LIKE)
def test_canonical_json_writes_what_json_dumps_writes(doc):
    assert ser.canonical_json(doc) == dumps(doc)


@pytest.mark.parametrize("name", sorted(TWO))
def test_canonical_json_of_a_geometric_nerve_is_what_json_dumps_writes(name):
    doc = ser.sset_to_doc(geometric_nerve(TWO[name], 4))
    assert ser.canonical_json(doc) == dumps(doc)


def test_canonical_json_refuses_a_set_as_json_dumps_does():
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        ser.canonical_json({"a": {1}})
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        dumps({"a": {1}})


def test_a_failed_call_leaves_the_next_one_correct():
    """Nothing of a document that failed half-written is kept: neither the
    escaped strings nor the containers it had entered, which would be
    reported as circular when written again."""
    doc = {"a": ["é", {"b": "c"}], "d": [{"e": {1}}]}
    with pytest.raises(TypeError):
        ser.canonical_json(doc)
    assert ser._escaped.cache_info().currsize == 0
    doc["d"][0]["e"] = ["é"]
    assert ser.canonical_json(doc) == dumps(doc)
