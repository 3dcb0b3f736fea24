"""CLI determinism, golden files, shim equality, and error diagnostics."""

import json
from pathlib import Path

import pytest

from cli_cases import CASES, DATA, GOLDEN, sample

from nervelab import serialize as ser
from nervelab.cat import nerve
from nervelab.cli import main
from nervelab.corpus import localizer_universe_2
from nervelab.simplicial import boundary


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
], ids=["nerve", "nerve2", "nerve2-hom", "sd", "ex", "evidence2"])
def test_input_breaking_its_axioms_exits_2_naming_the_violation(
        command, sample_name, break_it, named, tmp_path, capsys):
    doc = json.loads((DATA / sample_name).read_text())
    break_it(doc)
    bad = tmp_path / f"broken_{sample_name}"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"broken_{sample_name}{named}" in captured.err


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


def test_validate_golden_is_clean():
    golden = json.loads((GOLDEN / "validate_boundary2.json").read_text())
    assert golden == {"violations": []}
