"""CLI determinism, golden files, shim equality, and error diagnostics."""

import argparse
import json
from pathlib import Path

import pytest

from cli_cases import CASES, DATA, GOLDEN, sample

from nervelab import serialize as ser
from nervelab.cat import identity_functor, nerve
from nervelab.cli import build_parser, main
from nervelab.corpus import localizer_universe_2, two_categories
from nervelab.presentations import twocat_of
from nervelab.simplicial import SimplicialMap, boundary, constant_map, standard_simplex
from nervelab.twocat import identity_two_functor


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_matches_golden_and_is_deterministic(name, argv, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes(), "two runs must be byte-identical"
    assert b1 == (GOLDEN / f"{name}.json").read_bytes(), "golden file drifted"


def test_cli_prints_to_stdout(capsys):
    assert main(["final", sample("arrow.fincat.json")]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"final": "1"}


def test_nerve_is_a_thin_shim(tmp_path):
    out = tmp_path / "n.json"
    assert main(["nerve", sample("arrow.fincat.json"), "--max-dim", "2",
                 "--out", str(out)]) == 0
    doc = ser.fincat_from_doc(json.loads(Path(sample("arrow.fincat.json")).read_text()))
    direct = ser.canonical_json(ser.sset_to_doc(nerve(doc, 2)))
    assert out.read_text() == direct


def test_round_trip_of_sample_documents():
    for name in ("boundary2.sset.json", "interval.sset.json", "circle.sset.json"):
        doc = json.loads((DATA / name).read_text())
        again = ser.sset_to_doc(ser.sset_from_doc(doc))
        assert ser.canonical_json(doc) == ser.canonical_json(again)
    doc = json.loads((DATA / "arrow.fincat.json").read_text())
    assert ser.canonical_json(doc) == ser.canonical_json(
        ser.fincat_to_doc(ser.fincat_from_doc(doc))
    )
    doc = json.loads((DATA / "iota_arrow.fin2cat.json").read_text())
    assert ser.canonical_json(doc) == ser.canonical_json(
        ser.fin2cat_to_doc(ser.fin2cat_from_doc(doc))
    )
    doc = json.loads((DATA / "universe.json").read_text())
    assert ser.canonical_json(doc) == ser.canonical_json(
        ser.universe_to_doc(ser.universe_from_doc(doc))
    )
    doc = json.loads((DATA / "pres_boundary2.json").read_text())
    assert ser.canonical_json(doc) == ser.canonical_json(
        ser.pres_to_doc(ser.pres_from_doc(doc))
    )


def test_malformed_json_is_diagnosed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and "bad.json" in err


@pytest.mark.parametrize("command,sample_name,key,value", [
    ("final", "arrow.fincat.json", "objects", ["9"]),
    ("validate", "interval.sset.json", "dim_bound", 1),
    ("evidence2", "iota_arrow_to_terminal.tfun.json", "objects", {}),
])
def test_repeated_json_key_exits_2_naming_the_key(command, sample_name, key, value, tmp_path, capsys):
    # the key comes first and again later, where the original document has it
    text = (DATA / sample_name).read_text()
    assert text.startswith("{")
    bad = tmp_path / f"repeated_{sample_name}"
    bad.write_text("{" + json.dumps(key) + ":" + json.dumps(value) + "," + text[1:])
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"repeated_{sample_name}: key {key!r} is repeated in one object" in captured.err


def test_repeated_key_of_a_nested_object_exits_2(tmp_path, capsys):
    doc = json.loads((DATA / "interval.sset.json").read_text())
    text = json.dumps(doc).replace('"cells": {', '"cells": {"1": [], ', 1)
    bad = tmp_path / "nested.json"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 2
    assert "nested.json: key '1' is repeated in one object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lift", "hpushout", "rlp"])
def test_document_that_is_not_an_object_exits_2(command, tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    assert main([command, str(bad)]) == 2
    assert "list.json: expected a JSON object" in capsys.readouterr().err


def test_validate_lists_the_identities_a_document_breaks(tmp_path, capsys):
    doc = json.loads((DATA / "interval.sset.json").read_text())
    doc["face"][0] = [1, 0, "00", "1"]  # d_0 00 should be "0"
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 0
    assert json.loads(capsys.readouterr().out) == {"violations": [
        {"identity": "ds-id", "level": 0, "indices": [0, 0], "cell": "0", "detail": "d_0 s_0 = '1', expected '0'"},
    ]}


def test_missing_key_is_named(tmp_path, capsys):
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps({"dim_bound": 1, "cells": {"0": []}}))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "face" in err


def test_malformed_level2_universe_names_file_and_key(tmp_path, capsys):
    doc = ser.universe_to_doc(localizer_universe_2())
    edge = next(e for e in doc["edges"] if e["functor"]["on1"])
    edge["functor"]["on1"][0] = edge["functor"]["on1"][0][:3]
    bad = tmp_path / "universe2.json"
    bad.write_text(json.dumps(doc))
    marked = tmp_path / "marked.json"
    marked.write_text(json.dumps({"marked": []}))
    assert main(["localizer-check", str(bad), str(marked)]) == 2
    err = capsys.readouterr().err
    assert "universe2.json" in err and f"edges[{edge['name']}].functor.on1" in err


def test_two_functor_breaking_a_hom_law_exits_2_naming_the_hom(tmp_path, capsys):
    doc = ser.tfun_to_doc(identity_two_functor(two_categories()["single2cell"]))
    doc["on2"] = [[a, b, x, "m" if x == "id_u" else y] for a, b, x, y in doc["on2"]]
    bad = tmp_path / "single2cell_id.tfun.json"
    bad.write_text(json.dumps(doc))
    assert main(["evidence2", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: hom('a', 'b'): arrow 'id_u' image has wrong endpoints" in err


@pytest.mark.parametrize("command", ["homology", "pi1"])
def test_sset_breaking_the_identities_exits_2_naming_the_cell(command, tmp_path, capsys):
    doc = json.loads((DATA / "circle.sset.json").read_text())
    doc["face"] = [e for e in doc["face"] if e[:3] != [1, 0, "R:01"]]
    bad = tmp_path / "circle_missing_face.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "circle_missing_face.json" in err and "level 1" in err
    assert "'R:01'" in err and "face-total" in err


def without(entries, prefix):
    return [e for e in entries if e[:len(prefix)] != prefix]


def d0_of_00_is_1(sset):
    """Point d_0 of the degenerate edge 00 at the vertex 1.  Done to both
    ends of an identity map, the map still commutes with every face."""
    sset["face"] = without(sset["face"], [1, 0, "00"]) + [[1, 0, "00", "1"]]


def repeat_first(entries):
    entries.append(entries[0])


def both_ends(break_sset):
    def wrap(smap):
        for side in ("source", "target"):
            break_sset(smap[side])
    return wrap


def as_generators(break_smap):
    """A generators document holding the broken smap as its only entry."""
    def wrap(doc):
        smap = dict(doc)
        break_smap(smap)
        doc.clear()
        doc["generators"] = [smap]
    return wrap


def as_identity_cfun(break_it):
    """The identity functor of the category, broken by ``break_it``."""
    def wrap(doc):
        cfun = ser.cfun_to_doc(identity_functor(ser.fincat_from_doc(doc)))
        break_it(cfun)
        doc.clear()
        doc.update(cfun)
    return wrap


def twocat_presentation_of_simplex3(doc):
    """Replace the document by the 2-category presentation of the
    3-simplex, which has one pasting relation."""
    doc.clear()
    doc.update(ser.pres_to_doc(twocat_of(standard_simplex(3, 3))))


ARGV = {
    "slice": lambda bad: ["slice", bad, "--object", "1"],
    "slice2": lambda bad: ["slice2", bad, "--object", "1"],
    "factorize --generators": lambda bad: [
        "factorize", sample("boundary2_to_point.smap.json"), "--generators", bad],
    "localizer-check": lambda bad: ["localizer-check", bad, sample("marked_empty.json")],
    "localizer-closure": lambda bad: ["localizer-closure", sample("universe.json"), bad],
    "evidence --degree 0": lambda bad: ["evidence", bad, "--degree", "0"],
}


@pytest.mark.parametrize("command,sample_name,break_it,named", [
    ("nerve", "arrow.fincat.json",
     lambda doc: doc.update(compose=without(doc["compose"], ["id_1", "0<=1"])),
     ": compose missing on ('id_1', '0<=1')"),
    ("nerve2", "iota_arrow.fin2cat.json",
     lambda doc: doc.update(hcompose2=without(doc["hcompose2"], ["0", "0", "1"])),
     ": hcompose2 missing/foreign on (0,0,1,id_id_0,id_0<=1)"),
    ("nerve2", "iota_arrow.fin2cat.json",
     lambda doc: doc["hom"][1][2].update(identity={}),
     ": hom('0', '1'): object '0<=1' has no identity arrow"),
    ("sd", "interval.sset.json",
     lambda doc: doc.update(degeneracy=[[0, 0, "0", "zz"], [0, 0, "1", "11"]]),
     ": level 0, cell '0': degeneracy-total [0]: degeneracy 'zz' not a cell"),
    ("ex", "interval.sset.json",
     lambda doc: doc.update(face=without(doc["face"], [1, 0, "01"])),
     ": level 1, cell '01': face-total [0]: missing face entry"),
    ("evidence2", "iota_arrow_to_terminal.tfun.json",
     lambda doc: doc["source"].update(hcompose2=without(doc["source"]["hcompose2"], ["0", "0", "1"])),
     ".source: hcompose2 missing/foreign on (0,0,1,id_id_0,id_0<=1)"),
    ("alpha-beta", "interval.sset.json",
     lambda doc: doc.update(face=without(doc["face"], [1, 0, "01"])),
     ": level 1, cell '01': face-total [0]: missing face entry"),
    ("cat-of", "boundary2.sset.json",
     lambda doc: doc.update(face=without(doc["face"], [1, 0, "01"])),
     ": level 1, cell '01': face-total [0]: missing face entry"),
    ("twocat-of", "interval.sset.json",
     lambda doc: doc.update(degeneracy=[[0, 0, "0", "zz"], [0, 0, "1", "11"]]),
     ": level 0, cell '0': degeneracy-total [0]: degeneracy 'zz' not a cell"),
    ("elements", "interval.sset.json",
     lambda doc: doc.update(face=without(doc["face"], [1, 0, "01"])),
     ": level 1, cell '01': face-total [0]: missing face entry"),
    ("final", "arrow.fincat.json",
     lambda doc: doc["identity"].pop("1"),
     ": object '1' has no identity"),
    ("slice", "arrow.fincat.json",
     lambda doc: doc.update(compose=without(doc["compose"], ["id_1", "0<=1"])),
     ": compose missing on ('id_1', '0<=1')"),
    ("slice2", "iota_arrow.fin2cat.json",
     lambda doc: doc["hom"][1][2].update(identity={}),
     ": hom('0', '1'): object '0<=1' has no identity arrow"),
    ("evidence", "identity_interval.smap.json", both_ends(d0_of_00_is_1),
     ".source: level 2, cell '000': dd [0, 2]: d_0 d_2 = '1' vs d_1 d_0 = '0'"),
    ("rlp", "interval_to_point.smap.json", lambda doc: d0_of_00_is_1(doc["source"]),
     ".source: level 2, cell '000': dd [0, 2]: d_0 d_2 = '1' vs d_1 d_0 = '0'"),
    ("factorize", "boundary2_to_point.smap.json",
     lambda doc: doc["source"].update(face=without(doc["source"]["face"], [1, 0, "01"])),
     ".source: level 1, cell '01': face-total [0]: missing face entry"),
    ("factorize --generators", "identity_interval.smap.json",
     as_generators(both_ends(d0_of_00_is_1)),
     ".generators[0].source: level 2, cell '000': dd [0, 2]: d_0 d_2 = '1' vs d_1 d_0 = '0'"),
    ("lift", "problem.json", lambda doc: d0_of_00_is_1(doc["p"]["target"]),
     ".p.target: level 1, cell '00': face-total [0]: face '1' not a cell"),
    ("hpushout", "span_circle.json", lambda doc: d0_of_00_is_1(doc["g"]["target"]),
     ".g.target: level 2, cell '000': dd [0, 2]: d_0 d_2 = '1' vs d_1 d_0 = '0'"),
    ("lift", "problem.json",
     lambda doc: doc.update(top=doc["bottom"], bottom=doc["top"]),
     ": top, p: composition mismatch: target of f differs from source of g"),
    ("hpushout", "span_circle.json",
     lambda doc: doc.update(g=json.loads((DATA / "interval_to_point.smap.json").read_text())),
     ": f, g: span legs must share their source"),
    ("slice", "arrow.fincat.json",
     as_identity_cfun(lambda F: F["target"].update(compose=without(F["target"]["compose"], ["id_1", "0<=1"]))),
     ".target: compose missing on ('id_1', '0<=1')"),
    ("slice2", "iota_arrow_to_terminal.tfun.json",
     lambda doc: doc["source"].update(hcompose2=without(doc["source"]["hcompose2"], ["0", "0", "1"])),
     ".source: hcompose2 missing/foreign on (0,0,1,id_id_0,id_0<=1)"),
    ("validate", "interval.sset.json",
     lambda doc: doc["face"][0].__setitem__(0, "x"),
     ".face: entries must be [n, i, src, dst] with integer n, i"),
    ("realize", "pres_boundary2.json",
     lambda doc: doc.update(relations=[[["01"]]]),
     ".relations: entries must be [lhs, rhs] lists"),
    ("realize", "pres_boundary2.json",
     lambda doc: (twocat_presentation_of_simplex3(doc), doc["relations2"][0][0][0].pop("left")),
     ".relations2[]: missing key 'left'"),
    ("realize", "pres_boundary2.json",
     lambda doc: (twocat_presentation_of_simplex3(doc), doc["relations2"][0][0].pop()),
     ": relation 0: its sides are not parallel (the first of"),
    ("localizer-check", "universe.json",
     lambda doc: doc["nodes"][0][1].update(identity={}),
     ".nodes[arrow]: object '0' has no identity arrow (the first of"),
    ("rlp", "interval_to_point.smap.json",
     lambda doc: doc["levels"]["1"].pop("00"),
     ": level 1: cell '00' unassigned (the first of"),
    ("evidence --degree 0", "interval_to_point.smap.json",
     lambda doc: doc["levels"]["0"].update(zz="0"),
     ": level 0: 'zz' assigned but not a source cell (the first of"),
    ("evidence --degree 0", "interval_to_point.smap.json",
     lambda doc: doc["levels"].update({"7": {"zz": "0"}}),
     ".levels: level 7 above the bound of the map"),
    ("evidence2", "iota_arrow_to_terminal.tfun.json",
     lambda doc: doc["objects"].update(ghost="*"),
     ": object 'ghost' assigned but not a source object (the first of"),
    ("evidence2", "iota_arrow_to_terminal.tfun.json",
     lambda doc: doc["on1"].append(["1", "0", "ghost", "1"]),
     ": 1-cell ('1', '0', 'ghost') assigned but not a source 1-cell (the first of"),
    ("evidence2", "iota_arrow_to_terminal.tfun.json",
     lambda doc: doc["on2"].append(["0", "1", "ghost", "id_1"]),
     ": 2-cell ('0', '1', 'ghost') assigned but not a source 2-cell (the first of"),
    ("slice", "arrow.fincat.json",
     as_identity_cfun(lambda F: F["arrows"].update(ghost="0<=1")),
     ": arrow 'ghost' assigned but not a source arrow (the first of"),
    ("validate", "boundary2.sset.json", lambda doc: repeat_first(doc["cells"]["0"]),
     ".cells.0: id '0' is listed twice"),
    ("final", "arrow.fincat.json", lambda doc: repeat_first(doc["objects"]),
     ".objects: id '0' is listed twice"),
    ("final", "arrow.fincat.json", lambda doc: repeat_first(doc["arrows"]),
     ".arrows: id '0<=1' is listed twice"),
    ("nerve2", "iota_arrow.fin2cat.json", lambda doc: repeat_first(doc["objects"]),
     ".objects: id '0' is listed twice"),
    ("realize", "pres_boundary2.json", lambda doc: repeat_first(doc["objects"]),
     ".objects: id '0' is listed twice"),
    ("realize", "pres_boundary2.json", lambda doc: repeat_first(doc["generators"]),
     ".generators: id '01' is listed twice"),
    ("realize", "pres_boundary2.json",
     lambda doc: (twocat_presentation_of_simplex3(doc), repeat_first(doc["two_generators"])),
     ".two_generators: id '012' is listed twice"),
    ("localizer-check", "universe.json", lambda doc: repeat_first(doc["nodes"]),
     ".nodes: id 'arrow' is listed twice"),
    ("localizer-check", "universe.json", lambda doc: repeat_first(doc["edges"]),
     ".edges: id 'col_arrow' is listed twice"),
    ("validate", "interval.sset.json", lambda doc: repeat_first(doc["face"]),
     ".face: row (1, 0, '00') is listed twice"),
    ("validate", "interval.sset.json", lambda doc: doc["degeneracy"].append([0, 0, "0", "01"]),
     ".degeneracy: row (0, 0, '0') is listed twice"),
    ("final", "arrow.fincat.json", lambda doc: repeat_first(doc["compose"]),
     ".compose: row ('0<=1', 'id_0') is listed twice"),
    ("nerve2", "iota_arrow.fin2cat.json", lambda doc: repeat_first(doc["hom"]),
     ".hom: row ('0', '0') is listed twice"),
    ("nerve2", "iota_arrow.fin2cat.json", lambda doc: repeat_first(doc["hcompose1"]),
     ".hcompose1: row ('0', '0', '0', 'id_0', 'id_0') is listed twice"),
    ("nerve2", "iota_arrow.fin2cat.json", lambda doc: repeat_first(doc["hcompose2"]),
     ".hcompose2: row ('0', '0', '0', 'id_id_0', 'id_id_0') is listed twice"),
    ("evidence2", "iota_arrow_to_terminal.tfun.json", lambda doc: repeat_first(doc["on1"]),
     ".on1: row ('0', '0', 'id_0') is listed twice"),
    ("evidence2", "iota_arrow_to_terminal.tfun.json", lambda doc: repeat_first(doc["on2"]),
     ".on2: row ('0', '0', 'id_id_0') is listed twice"),
    ("validate", "interval.sset.json", lambda doc: doc.update(dim_bound=True),
     ".dim_bound: expected int"),
    ("validate", "interval.sset.json", lambda doc: doc["face"][0].__setitem__(1, False),
     ".face: entries must be [n, i, src, dst] with integer n, i"),
    ("validate", "interval.sset.json", lambda doc: doc["cells"]["0"].__setitem__(0, 0),
     ".cells.0: ids must be strings, got 0"),
    ("validate", "interval.sset.json", lambda doc: doc["face"][0].__setitem__(3, 0),
     ".face: ids must be strings, got 0"),
    ("final", "arrow.fincat.json", lambda doc: doc["objects"].__setitem__(0, 0),
     ".objects: ids must be strings, got 0"),
    ("final", "arrow.fincat.json", lambda doc: doc["compose"][0].__setitem__(0, None),
     ".compose: ids must be strings, got null"),
    ("evidence2", "iota_arrow_to_terminal.tfun.json", lambda doc: doc["objects"].update({"0": 0}),
     ".objects: ids must be strings, got 0"),
    ("localizer-check", "universe.json", lambda doc: doc["nodes"][0].__setitem__(0, 7),
     ".nodes: ids must be strings, got 7"),
    ("validate", "interval.sset.json", lambda doc: doc["cells"].pop("1"),
     ".cells: level 1 is not listed"),
    ("validate", "interval.sset.json", lambda doc: doc["cells"].update({"01": []}),
     ".cells: level key '01' is not written in plain decimal"),
    ("validate", "interval.sset.json", lambda doc: doc["cells"].update({"7": ["zz"]}),
     ".cells: level 7 above dim_bound 1"),
    ("validate", "interval.sset.json", lambda doc: doc["face"].append([7, 9, "zz", "yy"]),
     ".face: row (7, 9, 'zz'): no level-7 rows within dim_bound 1"),
    ("validate", "interval.sset.json", lambda doc: doc["degeneracy"].append([0, 3, "0", "00"]),
     ".degeneracy: row (0, 3, '0') has index 3 outside 0..0"),
    ("validate", "interval.sset.json", lambda doc: doc["face"].append([1, 0, "ghost", "0"]),
     ".face: row (1, 0, 'ghost') is from 'ghost', not a cell of level 1"),
    ("evidence --degree 0", "interval_to_point.smap.json",
     lambda doc: doc["levels"].update({"01": doc["levels"]["1"]}),
     ".levels: level key '01' is not written in plain decimal"),
    ("localizer-closure", "marked_empty.json", lambda doc: doc.update(marked=["q", "ghost"]),
     ".marked: id 'ghost' is not an edge of the universe"),
    ("localizer-closure", "marked_empty.json", lambda doc: doc.update(marked=["q", "q"]),
     ".marked: id 'q' is listed twice"),
    ("nerve", "arrow.fincat.json",
     lambda doc: doc.update(json.loads(json.dumps(doc).replace("0<=1", "0|1"))),
     ": arrow id '0|1' may not contain '|'"),
    ("final", "arrow.fincat.json", lambda doc: doc["arrows"][0].update(src="9"),
     ": arrow '0<=1' has missing or foreign endpoints (the first of"),
    ("final", "arrow.fincat.json", lambda doc: doc["compose"].append(["ghost", "id_0", "id_0"]),
     ": compose row ('ghost', 'id_0') names an absent arrow (the first of"),
    ("slice", "arrow.fincat.json", lambda doc: doc["identity"].update(phantom="id_0"),
     ": identity row 'phantom' names an absent object (the first of"),
    ("nerve2", "iota_arrow.fin2cat.json",
     lambda doc: doc["hcompose1"].append(["0", "0", "1", "ghost", "0<=1", "0<=1"]),
     ": hcompose1 row (0,0,1,ghost,0<=1) names an absent cell (the first of"),
    ("nerve2", "iota_arrow.fin2cat.json",
     lambda doc: doc["hcompose2"].append(["0", "0", "1", "ghost", "id_0<=1", "id_0<=1"]),
     ": hcompose2 row (0,0,1,ghost,id_0<=1) names an absent cell (the first of"),
    ("nerve2", "iota_arrow.fin2cat.json", lambda doc: doc["unit"].update(phantom="id_0"),
     ": unit row 'phantom' names an absent object (the first of"),
    ("nerve2", "iota_arrow.fin2cat.json", lambda doc: doc["hom"][1][2]["compose"].append(["ghost"] * 3),
     ": hom('0', '1'): compose row ('ghost', 'ghost') names an absent arrow (the first of"),
], ids=["nerve", "nerve2", "nerve2-hom", "sd", "ex", "evidence2",
        "alpha-beta", "cat-of", "twocat-of", "elements", "final", "slice", "slice2",
        "evidence", "rlp", "factorize", "factorize-generators", "lift", "hpushout",
        "lift-top-bottom-swapped", "hpushout-legs-apart",
        "slice-cfun", "slice2-tfun", "validate-face-level", "realize-cat-relation",
        "realize-step-left", "realize-sides-not-parallel",
        "localizer-check-node", "rlp-levels",
        "evidence-stray-cell", "evidence-stray-level", "evidence2-stray-object", "evidence2-stray-1-cell",
        "evidence2-stray-2-cell", "slice-cfun-stray-arrow",
        "repeated-sset-cell", "repeated-fincat-object", "repeated-fincat-arrow", "repeated-fin2cat-object",
        "repeated-pres-object", "repeated-pres-generator", "repeated-pres-two-generator",
        "repeated-universe-node", "repeated-universe-edge",
        "repeated-sset-face", "repeated-sset-degeneracy", "repeated-fincat-compose",
        "repeated-fin2cat-hom", "repeated-fin2cat-hcompose1", "repeated-fin2cat-hcompose2",
        "repeated-tfun-on1", "repeated-tfun-on2",
        "bool-dim-bound", "bool-face-index", "integer-sset-cell", "integer-sset-face-image",
        "integer-fincat-object", "null-fincat-compose", "integer-tfun-object-image",
        "integer-universe-node", "sset-level-not-listed",
        "sset-level-key-not-plain", "sset-level-above-bound", "sset-face-above-bound",
        "sset-degeneracy-index-above-level", "sset-face-from-a-stray-cell", "smap-level-key-not-plain",
        "marked-edge-not-in-universe", "repeated-marked-edge", "nerve-arrow-id-with-bar",
        "fincat-foreign-endpoint", "fincat-compose-on-foreign-arrow", "fincat-identity-of-foreign-object",
        "fin2cat-hcompose1-on-foreign-cell", "fin2cat-hcompose2-on-foreign-cell", "fin2cat-unit-of-foreign-object",
        "fin2cat-hom-compose-on-foreign-arrow"])
def test_input_breaking_its_axioms_exits_2_naming_the_violation(
        command, sample_name, break_it, named, tmp_path, capsys):
    doc = json.loads((DATA / sample_name).read_text())
    break_it(doc)
    bad = tmp_path / f"broken_{sample_name}"
    bad.write_text(json.dumps(doc))
    assert main(ARGV.get(command, lambda bad: [command, bad])(str(bad))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"broken_{sample_name}{named}" in captured.err


def test_generators_spec_that_is_not_a_number_exits_2(capsys):
    argv = ["rlp", sample("interval_to_point.smap.json"), "--generators", "boundaries:x"]
    assert main(argv) == 2
    assert "--generators boundaries:x: expected boundaries:<n>" in capsys.readouterr().err


def test_missing_file_is_diagnosed(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_rlp_reports_decreasing_counterexample():
    golden = json.loads((GOLDEN / "rlp_interval.json").read_text())
    assert golden["has_rlp"] is False
    top = golden["counterexample"]["top"]["levels"]["0"]
    assert top == {"0": "1", "1": "0"}


def test_factorize_golden_certifies():
    golden = json.loads((GOLDEN / "factorize_boundary2.json").read_text())
    assert golden["residual"] == 0
    assert golden["stages"] >= 1
    assert golden["bound"] == 3


def test_localizer_closure_golden_marks_collapses():
    golden = json.loads((GOLDEN / "localizer_closure.json").read_text())
    for name in ("col_arrow", "col_chain2", "col_retract"):
        assert name in golden["marked"]
    assert "fold_discrete2" not in golden["marked"]


@pytest.mark.parametrize("command", ["rlp", "factorize"])
def test_boundary_generators_are_built_at_the_bound_of_the_map(command, tmp_path):
    # the source of p has bound 3 but p itself only bound 2
    p = tmp_path / "p.json"
    p.write_text(ser.canonical_json(ser.smap_to_doc(
        constant_map(boundary(2, 3), standard_simplex(0, 2), "0"))))
    out = tmp_path / "out.json"
    assert main([command, str(p), "--generators", "boundaries:2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())


@pytest.mark.parametrize("command", ["rlp", "factorize"])
def test_generators_at_another_bound_exit_2_naming_the_file(command, tmp_path, capsys):
    A, B = boundary(1, 2), standard_simplex(1, 2)
    generators = tmp_path / "generators.json"
    generators.write_text(json.dumps({"generators": [ser.smap_to_doc(
        SimplicialMap(A, B, {n: {c: c for c in A.cells[n]} for n in range(3)}))]}))
    p = tmp_path / "p.json"
    p.write_text(ser.canonical_json(ser.smap_to_doc(
        constant_map(standard_simplex(1, 1), standard_simplex(0, 3), "0"))))
    assert main([command, str(p), "--generators", str(generators)]) == 2
    assert f"{generators}: i, p: truncation bounds 2 and 1 differ" in capsys.readouterr().err


def test_localizer_check_without_terminal_node_lists_missing_collapse_edges(tmp_path, capsys):
    doc = json.loads((DATA / "universe.json").read_text())
    # drop the terminal node e and the slices, one of which is terminal too
    kept = {"arrow", "chain2", "discrete2", "parallel", "retract", "z2"}
    doc["nodes"] = [node for node in doc["nodes"] if node[0] in kept]
    doc["edges"] = [edge for edge in doc["edges"] if {edge["src"], edge["dst"]} <= kept]
    universe = tmp_path / "universe_no_terminal.json"
    universe.write_text(json.dumps(doc))
    assert main(["localizer-check", str(universe), sample("marked_empty.json")]) == 0
    found = json.loads(capsys.readouterr().out)["violations"]
    missing = [v["witness"] for v in found if v["axiom"] == "missing-collapse-edge"]
    assert missing == [{"node": node} for node in ("arrow", "chain2", "retract")]


def test_localizer_closure_with_two_terminal_nodes_marks_every_collapse(tmp_path, capsys):
    doc = json.loads((DATA / "universe.json").read_text())
    point = next(node for name, node in doc["nodes"] if name == "e")
    doc["nodes"].append(["A_point", point])
    doc["edges"].append({"name": "id_A_point", "src": "A_point", "dst": "A_point",
                         "functor": {"objects": {"*": "*"}, "arrows": {"id_*": "id_*"}}})
    universe = tmp_path / "universe_two_terminal.json"
    universe.write_text(json.dumps(doc))
    assert main(["localizer-closure", str(universe), sample("marked_empty.json")]) == 0
    golden = json.loads((GOLDEN / "localizer_closure.json").read_text())
    assert json.loads(capsys.readouterr().out)["marked"] == sorted(golden["marked"] + ["id_A_point"])


@pytest.mark.parametrize("argv,named", [
    (["delta-tilde", "-1"], "delta_tilde(-1): n must be >= 0"),
    (["homology", sample("boundary2.sset.json"), "--degree", "-3"], "degree -3 must be >= 0"),
    (["evidence", sample("identity_interval.smap.json"), "--degree", "-1"], "degree -1 must be >= 0"),
    (["evidence2", sample("iota_arrow_to_terminal.tfun.json"), "--degree", "-1"], "degree -1 must be >= 0"),
    (["localizer-closure", sample("universe.json"), sample("marked_empty.json"), "--budget", "-1"],
     "budget -1 must be >= 0"),
    (["realize", sample("pres_boundary2.json"), "--budget", "-5"], "budget -5 must be >= 0"),
    (["elements", sample("point.sset.json"), "--max-dim", "-1"], "truncation -1 must be >= 0"),
], ids=["delta-tilde", "homology", "evidence", "evidence2", "localizer-closure", "realize", "elements"])
def test_negative_parameter_exits_2_naming_the_value(argv, named, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {named}" in captured.err


def test_realize_refuses_two_arrows_of_one_name(tmp_path, capsys):
    pres = tmp_path / "a_dot_b.pres.json"
    pres.write_text(json.dumps({"kind": "cat", "objects": ["0", "1", "2"], "relations": [], "generators": [
        {"id": "a", "src": "0", "dst": "1"}, {"id": "b", "src": "1", "dst": "2"},
        {"id": "a.b", "src": "0", "dst": "2"}]}))
    assert main(["realize", str(pres)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "share the name '[0|a.b]'" in captured.err


def test_realize_of_a_long_chain_is_unknown(tmp_path, capsys):
    # 1500 generators g_i: i -> i+1 and no relations: finitely many paths,
    # but more than realization enumerates, and deeper than Python's stack
    n = 1500
    pres = tmp_path / "chain.pres.json"
    pres.write_text(json.dumps({
        "kind": "cat", "objects": [str(i) for i in range(n + 1)], "relations": [],
        "generators": [{"id": f"g{i}", "src": str(i), "dst": str(i + 1)} for i in range(n)]}))
    assert main(["realize", str(pres)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"certificate": {"reason": "arrow budget exhausted"}, "status": "unknown"}


def test_validate_golden_is_clean():
    golden = json.loads((GOLDEN / "validate_boundary2.json").read_text())
    assert golden == {"violations": []}


# Every subcommand in its help order: its positional arguments, then each
# optional flag with its (type, default, required).
OUT = {"--out": (None, None, False)}
SURFACE = {
    "validate": (["input"], OUT),
    "nerve": (["input"], {**OUT, "--max-dim": (int, 3, False)}),
    "nerve2": (["input"], {**OUT, "--max-dim": (int, 3, False)}),
    "delta-tilde": (["n"], OUT),
    "sd": (["input"], OUT),
    "ex": (["input"], {**OUT, "--max-dim": (int, None, False)}),
    "alpha-beta": (["input"], OUT),
    "cat-of": (["input"], OUT),
    "twocat-of": (["input"], OUT),
    "realize": (["input"], {**OUT, "--budget": (int, 200, False)}),
    "slice": (["input"], {**OUT, "--object": (None, None, True)}),
    "slice2": (["input"], {**OUT, "--object": (None, None, True)}),
    "elements": (["input"], {**OUT, "--max-dim": (int, None, False)}),
    "final": (["input"], OUT),
    "lift": (["input"], OUT),
    "rlp": (["input"], {**OUT, "--generators": (None, "boundaries:2", False)}),
    "factorize": (["input"], {**OUT, "--generators": (None, "boundaries:2", False),
                              "--stages": (int, 5, False)}),
    "hpushout": (["input"], OUT),
    "homology": (["input"], {**OUT, "--degree": (int, 1, False)}),
    "pi1": (["input"], {**OUT, "--basepoint": (None, None, False)}),
    "evidence": (["input"], {**OUT, "--degree": (int, 1, False)}),
    "evidence2": (["input"], {**OUT, "--max-dim": (int, 3, False), "--degree": (int, 1, False)}),
    "localizer-check": (["universe", "marked"], OUT),
    "localizer-closure": (["universe", "marked"], {**OUT, "--budget": (int, 50, False)}),
}


def test_cli_surface_is_pinned():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert subparsers.required
    surface = {}
    for name, parser in subparsers.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        positionals = [a.dest for a in actions if not a.option_strings]
        flags = {a.option_strings[0]: (a.type, a.default, a.required) for a in actions if a.option_strings}
        surface[name] = (positionals, flags)
    assert list(surface.items()) == list(SURFACE.items())
