import json
import subprocess
import sys
import time

import pytest

from hyperhomology import cli
from hyperhomology.cli import main
from hyperhomology.errors import ParseError
from hyperhomology.hypergraphs import hyperdigraph, hypergraph
from hyperhomology.jsonio import (
    emit_hypergraph,
    parse_hypergraph,
    parse_point_sample,
)
from hyperhomology.suites import SuiteResult


def test_parse_hypergraph_canonicalizes():
    h = parse_hypergraph('{"vertices": [0, 1], "edges": [[1, 0]]}')
    assert h.edges == frozenset({(0, 1)})
    assert h.vertices == frozenset({0, 1})


def test_parse_hypergraph_directed_keeps_order():
    d = parse_hypergraph('{"vertices": [0, 1], "directed_edges": [[1, 0]]}')
    assert d.directed
    assert d.edges == frozenset({(1, 0)})


def test_parse_hypergraph_duplicate_warns():
    with pytest.warns(UserWarning):
        h = parse_hypergraph('{"edges": [[0, 1], [1, 0]]}')
    assert len(h.edges) == 1


def test_parse_hypergraph_missing_vertex_errors():
    with pytest.raises(ParseError):
        parse_hypergraph('{"vertices": [0, 1], "edges": [[0, 2]]}')


def test_parse_hypergraph_bad_json_reports_location():
    with pytest.raises(ParseError, match="line"):
        parse_hypergraph('{"edges": [[0, 1],]}')


def test_parse_hypergraph_rejects_both_kinds():
    with pytest.raises(ParseError):
        parse_hypergraph('{"edges": [[0]], "directed_edges": [[1]]}')


def test_round_trip_is_stable(tmp_path):
    h = hypergraph([[2, 0], [1]], vertices=[0, 1, 2, 9])
    path = tmp_path / "h.json"
    emit_hypergraph(h, path)
    again = parse_hypergraph(path)
    assert again == h
    assert emit_hypergraph(again) == emit_hypergraph(h)
    d = hyperdigraph([(2, 0), (0, 2)])
    assert parse_hypergraph(emit_hypergraph(d)) == d


def test_parse_point_sample_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y\n0,0,0\n1,3,4\n")
    sample = parse_point_sample(path)
    assert sample.ids == (0, 1)
    assert sample.metric.distance_sq(0, 1) == 25


def test_parse_point_sample_json_kinds():
    matrix = parse_point_sample('{"distance_matrix": [[0, 2], [2, 0]]}')
    assert matrix.metric.distance(0, 1) == 2
    circle = parse_point_sample('{"circle_angles": [0.0, 1.5]}')
    assert circle.metric.distance(0, 1) == pytest.approx(1.5)
    exact = parse_point_sample('{"circle_angles_over_pi": ["1/2", 0]}')
    assert exact.metric.exact
    with pytest.raises(ParseError):
        parse_point_sample('{"circle_angles": [0], "distance_matrix": [[0]]}')
    with pytest.raises(ParseError):
        parse_point_sample('{"nope": 1}')


def write_fixture(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_aut_matches_group_table(tmp_path, capsys):
    path = write_fixture(
        tmp_path, "pairs.json", {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [2, 3]]}
    )
    assert main(["aut", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["homeo_order"] == 8
    assert payload["results"]["stab_order"] == 4
    assert payload["results"]["aut_order"] == 2


def test_cli_homology_kinds(tmp_path, capsys):
    path = write_fixture(
        tmp_path,
        "hollow.json",
        {"vertices": [0, 1, 2], "edges": [[0], [1], [2], [0, 1], [1, 2], [0, 2]]},
    )
    assert main(["homology", "--kind", "inf", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["betti"] == {"0": 1, "1": 1}
    assert main(["homology", "--kind", "sup", "--field", "7", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["field"] == "Z7"


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nonsense")
    assert main(["homology", str(bad)]) == 2

    big = write_fixture(
        tmp_path,
        "big.json",
        {"vertices": list(range(12)), "edges": [[0, 1]]},
    )
    assert main(["aut", big]) == 3

    ok = write_fixture(tmp_path, "ok.json", {"vertices": [0, 1], "edges": [[0, 1]]})
    assert main(["quasi-check", ok]) == 0
    capsys.readouterr()


def test_cli_quotient_and_four_term(tmp_path, capsys):
    path = write_fixture(
        tmp_path,
        "mixed.json",
        {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 1, 2]]},
    )
    assert main(["quotient-check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["betti_equal"] is True
    assert payload["results"]["q_surjective"] is True
    assert main(["four-term", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["all_identity"] is False
    assert payload["results"]["surjective"] == [True, True, True]


def test_cli_closure_operations(tmp_path, capsys):
    path = write_fixture(tmp_path, "pair.json", {"vertices": [0, 1, 2], "edges": [[0, 1]]})
    assert main(["closure", path, "--operation", "independence"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["edges"] == [[0, 1], [0, 1, 2]]
    assert main(["closure", path, "--operation", "delta"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["edges"] == [[0], [1], [0, 1]]


def test_cli_persist_csv(tmp_path, capsys):
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    assert main(["persist", str(pts), "--n-max", "2", "--degrees", "0"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "degree,r_i,r_j,beta_i,beta_j,rank"
    assert len(lines) == 4  # three consecutive transitions


def test_cli_persist_json_barcode(tmp_path, capsys):
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    assert (
        main(
            [
                "persist",
                str(pts),
                "--n-max",
                "2",
                "--degrees",
                "0,1",
                "--format",
                "json",
                "--barcode",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert "barcode" in payload["results"]


def test_cli_persist_rejects_negative_degrees(tmp_path, capsys):
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    assert main(["persist", str(pts), "--n-max", "2", "--degrees=-1,0"]) == 2
    assert capsys.readouterr().out == ""


def _fake_suites(passed):
    def run_all(seed):
        time.sleep(0.01)
        return [SuiteResult("fake", checks=1, failures=[] if passed else [{"case": 0}])]

    return run_all


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 4)])
def test_cli_selftest_reports_its_timing(monkeypatch, capsys, passed, code):
    monkeypatch.setattr(cli, "run_all", _fake_suites(passed))
    assert main(["selftest", "--seed", "1"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["timing_seconds"] > 0
    assert payload["results"][0]["passed"] is passed


def test_cli_bundle_and_embed(capsys):
    assert main(["bundle-order", "--space", "surface", "--genus", "1", "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["divides"] == 4
    assert main(["bundle-order", "--space", "sphere", "--m", "2", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["divides"] == 4
    assert main(["embed-bound", "--t", "2", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["min_ambient_dimension"] == 4
    assert main(["bundle-order", "--space", "surface", "--n", "4"]) == 2  # no genus


def test_cli_isom(tmp_path, capsys):
    pts = tmp_path / "square.csv"
    pts.write_text("0,0,0\n1,1,0\n2,1,1\n3,0,1\n")
    assert main(["isom", str(pts)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["isom_order"] == 8


def test_cli_report_determinism(tmp_path):
    path = write_fixture(
        tmp_path, "h.json", {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]}
    )
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperhomology.cli", "homology", path],
            capture_output=True,
            text=True,
            check=True,
        )
        payload = json.loads(proc.stdout)
        payload.pop("timing_seconds")
        runs.append(json.dumps(payload, sort_keys=True))
    assert runs[0] == runs[1]


def test_cli_dihedral_fixture_example(tmp_path, capsys):
    # {"homeo_order": 8, "stab_order": 4, "aut_order": 2} as a JSON payload
    path = write_fixture(
        tmp_path, "pairs.json", {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [2, 3]]}
    )
    main(["aut", path])
    results = json.loads(capsys.readouterr().out)["results"]
    assert {k: results[k] for k in ("homeo_order", "stab_order", "aut_order")} == {
        "homeo_order": 8,
        "stab_order": 4,
        "aut_order": 2,
    }
