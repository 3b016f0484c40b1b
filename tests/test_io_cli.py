import argparse
import contextlib
import enum
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperhomology import cli
from hyperhomology.cli import main
from hyperhomology.errors import ParseError
from hyperhomology.fields import PrimeField
from hyperhomology.hypergraphs import delta_closure, hyperdigraph, hypergraph
from hyperhomology.jsonio import (
    _encode,
    _json_default,
    emit_hypergraph,
    parse_hypergraph,
    parse_point_sample,
)
from hyperhomology.metrics import PiValue
from hyperhomology.suites import SuiteResult, group_tables_suite, quasi_iso_suite

SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so a
    subprocess imports the package under test, installed or not."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, path] if path else [SRC])}


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


def test_parse_hypergraph_names_undeclared_and_bad_vertices():
    with pytest.raises(ParseError, match=re.escape("edges reference undeclared vertices: [2, 5]")):
        parse_hypergraph('{"vertices": [0, 1], "edges": [[0, 2], [5, 1], [2]]}')
    assert parse_hypergraph('{"vertices": [], "edges": []}').vertices == frozenset()
    with pytest.raises(ParseError, match="vertex must be a non-negative integer, got True"):
        parse_hypergraph('{"vertices": [0, 1], "edges": [[0, true]]}')
    with pytest.raises(ParseError, match="vertex must be a non-negative integer, got -3"):
        parse_hypergraph('{"vertices": [0, -3], "directed_edges": [[0]]}')


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


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 20


_UNKNOWN = object()
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e300])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FINITE,
    st.text(),  # non-ASCII and control characters included
    st.sampled_from(["", "\x00\x1f\u2028", "caf\u00e9 \U0001f600", '"\\/']),
    st.fractions(),
    st.sampled_from([_Level.LOW, _Level.HIGH, PiValue(0), PiValue("3/7")]),
    st.frozensets(st.integers(), max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, _UNKNOWN]),  # errors
)
_ROWS = st.one_of(  # the row fast path, and rows that must leave it
    st.lists(st.lists(st.integers(), min_size=1, max_size=4), max_size=4),
    st.lists(st.tuples(st.integers() | st.booleans(), st.integers()), max_size=4),
    st.lists(st.lists(_FINITE, max_size=3), max_size=3),
    st.lists(st.floats(), min_size=1, max_size=3),  # may hold nan or inf
    st.lists(st.lists(st.floats(), min_size=1, max_size=2), min_size=1, max_size=2),
    st.lists(st.lists(st.text(max_size=3) | st.none(), min_size=1, max_size=3), max_size=3),
)


def _containers(children):
    # keys of mixed kinds fail to sort, and a tuple key is refused
    odd = st.sampled_from([_Level.LOW, 1.5, True, None, math.nan, (0,)])
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(st.integers() | odd, children, max_size=3),
    )


def _outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.recursive(_SCALARS | _ROWS, _containers, max_leaves=12))
def test_encode_matches_json_dumps(value):
    def dumps(v):
        return json.dumps(v, indent=2, sort_keys=True, default=_json_default, allow_nan=False)

    assert _outcome(lambda v: _encode(v, "\n"), value) == _outcome(dumps, value)


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


def test_parsers_read_long_text_and_paths(tmp_path):
    # text longer than a file name may be (255 bytes on most systems)
    path_graph = {"edges": [[v, v + 1] for v in range(199)]}
    text = json.dumps(path_graph)
    assert len(text) > 255
    h = parse_hypergraph(text)
    assert len(h.vertices) == 200 and len(h.edges) == 199
    path = tmp_path / "path.json"
    path.write_text(text)
    assert parse_hypergraph(path) == parse_hypergraph(str(path)) == h
    rows = "".join(f"{i},{i},{2 * i}\n" for i in range(300))
    assert len(rows) > 255
    sample = parse_point_sample(rows, kind="csv")
    assert sample.ids == tuple(range(300))
    assert sample.metric.distance_sq(0, 299) == 5 * 299**2
    csv_path = tmp_path / "line.csv"
    csv_path.write_text(rows)
    assert parse_point_sample(str(csv_path)).ids == sample.ids
    matrix = json.dumps({"distance_matrix": [[abs(i - j) for j in range(60)] for i in range(60)]})
    assert len(matrix) > 255
    assert parse_point_sample(matrix).ids == tuple(range(60))


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


GOLDEN_DUMPS = Path(__file__).resolve().parent / "golden" / "homology_dump"


@pytest.mark.parametrize("field", ["Q", "7"])
def test_cli_dump_matrices_match_the_recorded_files(tmp_path, capsys, field):
    # recorded when Z/p scalars were still wrapper objects: a residue v
    # prints as "v (mod p)", and -1 over Z/7 as 6
    path = write_fixture(
        tmp_path,
        "h.json",
        {
            "vertices": [0, 1, 2, 3],
            "edges": [[0], [1], [2], [0, 1], [1, 2], [0, 2], [2, 3], [0, 1, 2], [1, 2, 3]],
        },
    )
    out = tmp_path / "dump"
    for kind in ("inf", "sup", "ambient"):
        argv = ["homology", path, "--kind", kind, "--field", field, "--dump-matrices", str(out)]
        assert main(argv) == 0
    capsys.readouterr()
    expected = {f.name: f.read_text() for f in (GOLDEN_DUMPS / field).iterdir()}
    assert {f.name: f.read_text() for f in out.iterdir()} == expected


TWO_TRIANGLES = [[0], [1], [2], [0, 1], [1, 2], [0, 2], [2, 3], [0, 1, 2], [1, 2, 3]]


def _count_ambients(monkeypatch):
    from hyperhomology import chains

    calls, build = [], chains.ambient_complex

    def counted(h, *args, **kwargs):
        calls.append(h.edges)
        return build(h, *args, **kwargs)

    for module in (chains, cli):
        monkeypatch.setattr(module, "ambient_complex", counted)
    return calls


def test_cli_four_term_and_ambient_homology_build_no_closure(tmp_path, capsys, monkeypatch):
    # the closure's dims and Betti numbers come from the nerve of the two
    # triangles, an edge; only --dump-matrices reads the closure's matrices
    calls = _count_ambients(monkeypatch)
    path = write_fixture(tmp_path, "h.json", {"vertices": [0, 1, 2, 3], "edges": TWO_TRIANGLES})
    for field in ("Q", "7"):
        assert main(["four-term", path, "--field", field]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["stage_dims"][0] == [4, 5, 2] and results["stage_betti"][0] == [1, 0, 0]
        assert main(["homology", "--kind", "ambient", path, "--field", field]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["betti"] == {"0": 1, "1": 0, "2": 0}
    assert calls == []
    out = tmp_path / "dump"
    for field in ("Q", "7"):
        argv = ["homology", path, "--kind", "ambient", "--field", field, "--dump-matrices", str(out)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["results"]["betti"] == {"0": 1, "1": 0, "2": 0}
        expected = {f.name: f.read_text() for f in (GOLDEN_DUMPS / field).glob("boundary_ambient_*")}
        assert {f.name: f.read_text() for f in out.iterdir()} == expected
    assert len(calls) == 2


def test_cli_directed_input_falls_back_to_the_closure(tmp_path, capsys, monkeypatch):
    # (1, 0) lies in no other edge as a sequence, but in (2, 0, 1) as a set:
    # a nerve of vertex sets would lose the circle that (0, 1) and (1, 0) make
    calls = _count_ambients(monkeypatch)
    edges = [[0, 1], [1, 0], [2, 0, 1], [3, 2]]
    path = write_fixture(tmp_path, "d.json", {"vertices": [0, 1, 2, 3], "directed_edges": edges})
    for field in ("Q", "2"):
        assert main(["four-term", path, "--field", field]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == {
            "all_identity": False,
            "stage_betti": [[1, 1, 0], [0, 1, 0], [0, 1, 0], [0, 0, 0]],
            "stage_dims": [[4, 5, 1], [2, 4, 1], [0, 1, 0], [0, 0, 0]],
            "surjective": [True, True, True],
        }
        assert main(["homology", "--kind", "ambient", path, "--field", field]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["betti"] == {"0": 1, "1": 1, "2": 0}
    assert len(calls) == 4


@pytest.mark.parametrize("argv", [["four-term"], ["homology", "--kind", "ambient"]])
def test_cli_a_17_vertex_edge_still_hits_the_simplex_cap(tmp_path, capsys, monkeypatch, argv):
    calls = _count_ambients(monkeypatch)
    path = write_fixture(tmp_path, "edge.json", {"edges": [list(range(17))]})
    assert main([*argv, path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: closure of a 17-vertex edge exceeds the cap of 16\n"
    assert calls == []


GOLDEN = GOLDEN_DUMPS.parent


@pytest.mark.parametrize(
    "name, options",
    [
        ("persist_report.json", ["--format", "json"]),
        ("persist_barcode.json", ["--format", "json", "--barcode"]),
        ("persist_table.csv", ["--format", "csv"]),
    ],
)
def test_cli_persist_reports_match_the_recorded_files(monkeypatch, capsys, name, options):
    # coordinates over 3, 7, 8 and 10^20, a rational distance (5) and the
    # two near-coincident pairs of the filtration tests: every radius,
    # representative and CSV float is compared as text; the reports were
    # recorded with their timing_seconds line removed
    monkeypatch.chdir(GOLDEN)
    assert main(["persist", "persist_points.csv", "--n-max", "3", *options]) == 0
    out = capsys.readouterr().out
    if name.endswith(".json"):
        out = re.sub(r',\n  "timing_seconds": [^\n]*', "", out)
    assert out == (GOLDEN / name).read_bytes().decode()  # the CSV ends rows in \r\n


RP2 = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
       [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]]


@pytest.mark.parametrize(
    "field, betti",
    [("2", {"0": 1, "1": 1, "2": 1}), ("Q", {"0": 1, "1": 0, "2": 0}), ("3", {"0": 1, "1": 0, "2": 0})],
)
def test_cli_rp2_torsion_shows_over_z2_only(tmp_path, capsys, field, betti):
    # the 6-vertex RP^2 has H_1 = Z/2 and H_2 = 0 over Z; over Z/2, where
    # -1 = 1, its ten triangles sum to a cycle
    path = write_fixture(tmp_path, "rp2.json", {"vertices": list(range(6)), "edges": RP2})
    assert main(["homology", "--kind", "ambient", "--field", field, path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["betti"] == betti


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


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("homology", {"edges": [[0.7, 1], [1, 2]]}, "got 0.7"),
        ("homology", {"edges": [[True, 1]]}, "got True"),
        ("homology", {"edges": [["3", 1]]}, "got '3'"),
        ("homology", {"edges": [[0, 1], 5]}, "an edge must be a JSON list"),
        ("homology", {"vertices": 5, "edges": [[0, 1]]}, "vertices must be a JSON list"),
        ("persist", {"distance_matrix": 5}, "distance_matrix must be a JSON list"),
        ("persist", {"distance_matrix": [1, 2]}, "a matrix row must be a JSON list"),
        ("persist", {"distance_matrix": [[0, True], [True, 0]]}, "expected a finite number, got True"),
        ("persist", {"circle_angles": [None, 1]}, "expected a finite number, got None"),
        ("persist", {"circle_angles": ["nan", 1]}, "expected a finite number"),
        ("persist", {"circle_angles_over_pi": 3}, "circle_angles_over_pi must be a JSON list"),
        ("persist", {"circle_angles_over_pi": ["1/0", 1]}, "expected a finite number"),
        ("persist", {"circle_angles_over_pi": [0, 1], "ids": 7}, "ids must be a JSON list"),
    ],
)
def test_cli_malformed_json_exits_2(tmp_path, capsys, command, data, message):
    # no traceback and no silent coercion: every one of these is a parse error
    path = write_fixture(tmp_path, "bad.json", data)
    assert main([command, path]) == 2
    assert message in capsys.readouterr().err


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


def test_cli_persist_barcode_needs_json(tmp_path, capsys):
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    assert main(["persist", str(pts), "--n-max", "2", "--barcode"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--barcode needs --format json" in captured.err


def test_cli_persist_rejects_negative_degrees(tmp_path, capsys):
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    assert main(["persist", str(pts), "--n-max", "2", "--degrees=-1,0"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_persist_field(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    argv = ["persist", str(pts), "--n-max", "2", "--format", "json"]
    assert main(argv) == 0
    over_q = json.loads(capsys.readouterr().out)
    fields, original = [], cli.persistent_betti

    def persistent_betti(*args, field, **kwargs):
        fields.append(field)
        return original(*args, field=field, **kwargs)

    monkeypatch.setattr(cli, "persistent_betti", persistent_betti)
    assert main(argv + ["--field", "7"]) == 0
    over_z7 = json.loads(capsys.readouterr().out)
    assert fields == [PrimeField(7)]
    assert over_z7["config"]["field"] == "7" and over_q["config"]["field"] == "Q"
    assert over_z7["results"] == over_q["results"]  # field only in config
    for bad in ("4", "R"):
        assert main(argv + ["--field", bad]) == 2
        assert capsys.readouterr().out == ""


def test_cli_one_30_vertex_edge(tmp_path):
    # Inf and Sup need only the edge and its faces; the closure has 2^30 - 1
    # cells and is refused at the vertex cap (exit 3) before it is built
    path = write_fixture(tmp_path, "edge.json", {"edges": [list(range(30))]})
    for argv, code in [
        (["quasi-check"], 0),
        (["homology", "--kind", "inf"], 0),
        (["homology", "--kind", "sup"], 0),
        (["homology", "--kind", "ambient"], 3),
        (["four-term"], 3),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperhomology.cli", *argv, path],
            capture_output=True,
            text=True,
            timeout=10,
            env=src_env(),
        )
        assert proc.returncode == code, (argv, proc.stderr)
        if code == 0:
            betti = json.loads(proc.stdout)["results"]["betti"]
            assert betti == {str(n): 0 for n in range(30)}
        else:
            assert "cap of 16" in proc.stderr


def test_cli_simplex_cap_bounds_every_closure(tmp_path, capsys, monkeypatch):
    path = write_fixture(tmp_path, "tetra.json", {"edges": [[0, 1, 2, 3]]})
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    commands = [
        ["homology", "--kind", "ambient", path],
        ["four-term", path],
        ["persist", str(pts), "--n-max", "3"],
    ]
    for argv in commands:
        assert main(argv) == 0
    monkeypatch.setenv("HYPERHOMOLOGY_SIMPLEX_CAP", "2")
    for argv in commands:
        assert main(argv) == 3
    assert main(["quasi-check", path]) == 0  # no closure on this path
    capsys.readouterr()


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


def test_selftest_suites_hold_no_wall_time():
    # run_all times each suite in SuiteResult.seconds; results stay deterministic
    assert group_tables_suite().details == {}
    assert quasi_iso_suite(1, hypergraphs=2, hyperdigraphs=1).details == {}


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
            env=src_env(),
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


SIX_POINTS = "id,x,y\n0,0,0\n1,3,1\n2,1,4\n3,5,5\n4,2,2\n5,7,1/2\n"


@pytest.mark.parametrize("field", ["Q", "7"])
@pytest.mark.parametrize("barcode", [False, True])
def test_cli_persist_builds_no_hypergraph(tmp_path, capsys, monkeypatch, field, barcode):
    # the persist path works from the pair steps: no step hypergraph, no
    # closure ambient, no hard-sphere enumeration
    from hyperhomology import chains, filtration, hypergraphs, metrics

    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    post_init = hypergraphs.Hypergraph.__post_init__
    monkeypatch.setattr(hypergraphs.Hypergraph, "__post_init__", counted("Hypergraph", post_init))
    for module in (chains, filtration, cli):
        monkeypatch.setattr(module, "ambient_complex", counted("ambient", chains.ambient_complex))
    for module in (metrics, filtration):
        hard_sphere = counted("hard_sphere", metrics.hard_sphere)
        monkeypatch.setattr(module, "hard_sphere", hard_sphere, raising=False)
    pts = tmp_path / "six.csv"
    pts.write_text(SIX_POINTS)
    argv = ["persist", str(pts), "--n-max", "3", "--degrees", "0,1", "--field", field]
    argv += ["--format", "json"] + (["--barcode"] if barcode else [])
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["betti_by_step"][-1] == [1, 0, 10]
    assert calls == []


@pytest.mark.parametrize(
    "points, n_max, size",
    [(SIX_POINTS, 5, 5), ("id,x\n0,0\n1,1\n2,3\n", 9, 3)],
    ids=["n_max", "points"],
)
def test_cli_persist_cap_exits_before_listing_simplices(
    tmp_path, capsys, monkeypatch, points, n_max, size
):
    from hyperhomology import filtration

    def unreachable(*args, **kwargs):
        raise AssertionError("simplices listed above the cap")

    monkeypatch.setattr(filtration._PairSteps, "births", unreachable)
    monkeypatch.setattr(filtration, "_rank_basis", unreachable)
    monkeypatch.setenv("HYPERHOMOLOGY_SIMPLEX_CAP", str(size - 1))
    pts = tmp_path / "points.csv"
    pts.write_text(points)
    assert main(["persist", str(pts), "--n-max", str(n_max), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = f"resource cap: closure of a {size}-vertex edge exceeds the cap of {size - 1}"
    assert captured.err.strip() == expected


@pytest.mark.parametrize(
    "max_degree, expected",
    [
        ("0", "max_degree 0 is below the top edge's degree 2"),
        ("-1", "max_degree must be non-negative, got -1"),
    ],
    ids=["0", "-1"],
)
def test_cli_quotient_check_rejects_an_ambient_below_the_top_edge(
    tmp_path, capsys, max_degree, expected
):
    path = write_fixture(tmp_path, "h.json", {"edges": [[0, 1], [1, 2], [0, 1, 2], [2, 3]]})
    assert main(["quotient-check", path, "--max-degree", max_degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {expected}"
    assert main(["quotient-check", path, "--max-degree", "2"]) == 0


@pytest.mark.parametrize("edges", [[], [[0, 1]], [list(range(17))]])
def test_cli_quotient_check_caps_the_full_simplex_on_17_vertices(tmp_path, capsys, edges):
    # the full simplex C is never built, but the cap still bounds its vertices
    path = write_fixture(tmp_path, "h.json", {"vertices": list(range(17)), "edges": edges})
    assert main(["quotient-check", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: full simplex on 17 vertices exceeds the cap of 16\n"
    path = write_fixture(tmp_path, "h.json", {"edges": [list(range(16))]})
    assert main(["quotient-check", path]) == 0
    capsys.readouterr()


def test_cli_quotient_check_rejects_a_negative_max_degree(tmp_path, capsys):
    # with no edge the top edge's degree is -1, so only the sign check stops -1
    path = write_fixture(tmp_path, "h.json", {"vertices": [0, 1, 2], "edges": []})
    assert main(["quotient-check", path, "--max-degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_degree must be non-negative, got -1\n"
    assert main(["quotient-check", path, "--max-degree", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["betti_ambient_mod_inf"] == [3]
    # the input checks come before the cap on the full simplex's vertices
    path = write_fixture(tmp_path, "h.json", {"vertices": list(range(17)), "edges": []})
    assert main(["quotient-check", path, "--max-degree", "-1"]) == 2
    assert capsys.readouterr().err == "error: max_degree must be non-negative, got -1\n"
    path = write_fixture(tmp_path, "d.json", {"vertices": list(range(17)), "directed_edges": [[1, 0]]})
    assert main(["quotient-check", path]) == 2
    assert capsys.readouterr().err == "error: full simplex ambient applies to unordered hypergraphs\n"


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_cli_isom_rejects_a_bad_tolerance(tmp_path, capsys, tolerance):
    pts = tmp_path / "square.csv"
    pts.write_text("0,0,0\n1,1,0\n2,1,1\n3,0,1\n")
    assert main(["isom", str(pts), "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = f"error: tolerance must be >= 0 and finite, got {float(tolerance)!r}"
    assert captured.err.strip() == expected


@pytest.mark.parametrize(
    "sample",
    ['{"distance_matrix": [[0, Infinity], [Infinity, 0]]}', '{"circle_angles": [0, NaN, 1]}'],
)
def test_cli_refuses_a_non_finite_json_number(tmp_path, capsys, sample):
    # json.loads reads these constants as floats; a report could not hold them
    path = tmp_path / "sample.json"
    path.write_text(sample)
    assert main(["persist", str(path), "--n-max", "2", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith("is not a finite JSON number")


@pytest.mark.parametrize(
    "variable, argv",
    [
        ("HYPERHOMOLOGY_SIMPLEX_CAP", ["homology", "--kind", "ambient"]),
        ("HYPERHOMOLOGY_SIMPLEX_CAP", ["four-term"]),
        ("HYPERHOMOLOGY_VERTEX_CAP", ["aut"]),
    ],
)
def test_cli_a_cap_that_is_no_integer_is_a_config_error(
    tmp_path, capsys, monkeypatch, variable, argv
):
    path = write_fixture(tmp_path, "h.json", {"edges": [[0, 1, 2]]})
    monkeypatch.setenv(variable, "x")
    assert main([*argv, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {variable} must be an integer, got 'x'"


@pytest.mark.parametrize("command", ["embed-bound", "persist"])
def test_cli_an_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    if command == "embed-bound":
        argv, out = ["embed-bound", "--t", "2", "--k", "3"], "x.json"
    else:  # the CSV report is written apart from the JSON ones
        argv, out = ["persist", str(pts), "--n-max", "2"], "x.csv"
    assert main([*argv, "--out", str(tmp_path / "missing_dir" / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_calls_stay_independent_when_the_parser_is_reused(tmp_path, capsys):
    path = write_fixture(tmp_path, "path.json", {"edges": [[0, 1], [1, 2]]})
    assert main(["homology", "--kind", "sup", path]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["kind"] == "sup"
    assert main(["homology", path]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["kind"] == "inf"
    pts = tmp_path / "line.csv"
    pts.write_text("id,x\n0,0\n1,1\n2,3\n")
    persist = ["persist", str(pts), "--n-max", "2", "--format", "json"]
    assert main([*persist, "--barcode"]) == 0
    assert "barcode" in json.loads(capsys.readouterr().out)["results"]
    assert main(persist) == 0
    assert "barcode" not in json.loads(capsys.readouterr().out)["results"]
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--kind", "bogus", path])
    assert exc.value.code == 2


def _all_actions(parser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _all_actions(sub)


def test_cli_parser_keeps_no_state_from_a_call():
    # sharing one parser is safe only while parsing cannot change it
    actions = list(_all_actions(cli.build_parser()))
    assert any(a.dest == "barcode" for a in actions)
    for action in actions:
        assert not isinstance(action, (argparse._AppendAction, argparse._AppendConstAction))
        assert not isinstance(action.default, (list, dict, set))


def test_cli_builds_its_parser_on_the_first_call_only(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    argv = ["embed-bound", "--t", "2", "--k", "3"]
    assert main(argv) == 0
    assert "hyperhomology" in built
    built.clear()
    assert main(argv) == 0
    assert built == []


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import hyperhomology.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=30,
        env=src_env(),
    )
    assert proc.stdout.strip() == "0"


@st.composite
def relabelled_inputs(draw, directed):
    """Two JSON texts of one hypergraph, the closure of a few edges on at
    most 6 vertices less some of its edges: on vertices 0..n-1 with its
    edges in sorted order, and relabelled onto non-contiguous ids in
    scrambled order, with the vertex list and the edge order shuffled and,
    for unordered edges, the vertices of each edge too."""
    n = draw(st.integers(1, 6))
    build = hyperdigraph if directed else hypergraph
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True)
    closed = delta_closure(build(draw(st.lists(edge, min_size=1, max_size=3)))).sorted_edges()
    keep = draw(st.lists(st.booleans(), min_size=len(closed), max_size=len(closed)))
    h = build([e for e, k in zip(closed, keep) if k] or closed[-1:], range(n))
    gap = draw(st.integers(2, 9))
    ids = [gap * k + 1 for k in draw(st.permutations(range(n)))]
    key = "directed_edges" if directed else "edges"
    shuffled = [e if directed else draw(st.permutations(e)) for e in draw(st.permutations(h.sorted_edges()))]
    original = {"vertices": list(range(n)), key: [list(e) for e in h.sorted_edges()]}
    relabelled = {"vertices": draw(st.permutations(ids)), key: [[ids[v] for v in e] for e in shuffled]}
    return json.dumps(original), json.dumps(relabelled)


# a triangle, one of its sides and seven more pairs, and the same relabelled
# by 0, 1, 2, 3, 4 -> 9, 3, 7, 1, 5 with its edges and their vertices
# reordered: the nerve of its maximal edges outgrows the closure, so the
# closure is listed from the faces of its edges
RELABELLED_GRAPH = tuple(
    json.dumps({"vertices": vertices, "edges": edges})
    for vertices, edges in (
        ([0, 1, 2, 3, 4], [[0, 1], [0, 3], [0, 4], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [0, 1, 2]]),
        ([5, 1, 9, 3, 7], [[3, 5], [7, 9, 3], [1, 3], [3, 9], [5, 9], [1, 7], [1, 9], [5, 7], [1, 5]]),
    )
)

# a filled triangle with all its faces, and the same relabelled by
# 0, 1, 2 -> 7, 1, 4 with only the triangle's vertices out of order: a parse
# that kept them so would find two of its sides missing
RELABELLED_TRIANGLE = tuple(
    json.dumps({"vertices": vertices, "edges": edges})
    for vertices, edges in (
        ([0, 1, 2], [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]),
        ([4, 7, 1], [[7, 1, 4], [1, 4], [4], [1, 7], [7], [4, 7], [1]]),
    )
)


def _cli_outcome(argv) -> tuple:
    """Exit code, report without its timing, and stderr of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report.pop("timing_seconds")
    return code, report, err.getvalue()


@pytest.mark.parametrize(
    "command",
    [
        ["homology", "--kind", "inf"],
        ["homology", "--kind", "sup"],
        ["homology", "--kind", "ambient"],
        ["quasi-check"],
        ["four-term"],
        ["quotient-check"],
    ],
    ids=" ".join,
)
def test_cli_reports_do_not_depend_on_vertex_names_or_edge_order(tmp_path_factory, command):
    # a metamorphic check: the report of a relabelled and reordered input is
    # the report of the original, written to the same path; quotient-check
    # takes unordered input only
    path = tmp_path_factory.mktemp("order") / "h.json"
    kinds = st.just(False) if command == ["quotient-check"] else st.booleans()

    @settings(max_examples=25, deadline=None)
    @given(kinds.flatmap(relabelled_inputs), st.sampled_from(["Q", "2", "7"]))
    @example(RELABELLED_GRAPH, "Q")
    @example(RELABELLED_TRIANGLE, "7")
    def check(texts, field):
        outcomes = []
        for text in texts:
            path.write_text(text)
            outcomes.append(_cli_outcome(command + [str(path), "--field", field]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0

    check()


@pytest.mark.parametrize("command", ["persist", "isom"])
@pytest.mark.parametrize(
    "data",
    [
        {"distance_matrix": [[0, 1], [1, 0]], "ids": [1, 1]},
        {"distance_matrix": [[0, 1], [1, 0]], "ids": [4]},
        {"circle_angles_over_pi": [0, 1], "ids": [3, 3]},
    ],
    ids=["matrix-repeated", "matrix-short", "circle-repeated"],
)
def test_cli_point_ids_must_be_distinct(tmp_path, capsys, command, data):
    # a repeated distance-matrix id once gave persist a zero distance and
    # isom an "identity missing" failure
    path = write_fixture(tmp_path, "ids.json", data)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ids must be distinct and match the number of points" in captured.err


@st.composite
def relabelled_points(draw):
    """Two CSV texts of one sample of at most 7 planar points, on a small
    grid (many tied distances) or with rational coordinates: with ids 0..n-1
    in row order, and with non-contiguous ids in scrambled order and the
    rows shuffled."""
    coords = st.integers(0, 3) if draw(st.booleans()) else st.fractions(-2, 2, max_denominator=4)
    points = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=7, unique=True))
    gap = draw(st.integers(2, 9))
    ids = [gap * k + 1 for k in draw(st.permutations(range(len(points))))]
    shuffled = draw(st.permutations([(ids[k], p) for k, p in enumerate(points)]))
    return tuple(
        "id,x,y\n" + "".join(f"{i},{x},{y}\n" for i, (x, y) in rows)
        for rows in (list(enumerate(points)), shuffled)
    )


def test_cli_persist_does_not_depend_on_point_ids_or_row_order(tmp_path_factory):
    # a metamorphic check: permuted ids and shuffled rows give the same
    # report, results, CSV text and barcode included
    path = tmp_path_factory.mktemp("order") / "points.csv"

    @settings(max_examples=25, deadline=None)
    @given(relabelled_points(), st.integers(1, 4), st.sampled_from(["Q", "2", "7"]))
    def check(texts, n_max, field):
        outcomes = []
        for text in texts:
            path.write_text(text)
            argv = ["persist", str(path), "--n-max", str(n_max), "--degrees", "0,1,2"]
            outcomes.append(_cli_outcome(argv + ["--field", field, "--format", "json", "--barcode"]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0

    check()


def test_cli_isom_does_not_depend_on_point_ids_or_row_order(tmp_path_factory):
    path = tmp_path_factory.mktemp("order") / "points.csv"

    @settings(max_examples=25, deadline=None)
    @given(relabelled_points())
    def check(texts):
        outcomes = []
        for text in texts:
            path.write_text(text)
            outcomes.append(_cli_outcome(["isom", str(path)]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0

    check()


def test_cli_aut_orders_do_not_depend_on_vertex_names_or_edge_order(tmp_path_factory):
    # the greedy aut_generators depend on the labels by design: only the
    # three orders are compared
    path = tmp_path_factory.mktemp("order") / "h.json"
    orders = ("homeo_order", "stab_order", "aut_order")

    @settings(max_examples=25, deadline=None)
    @given(st.booleans().flatmap(relabelled_inputs))
    @example(RELABELLED_GRAPH)
    @example(RELABELLED_TRIANGLE)
    def check(texts):
        outcomes = []
        for text in texts:
            path.write_text(text)
            code, report, err = _cli_outcome(["aut", str(path)])
            outcomes.append((code, report and [report["results"][k] for k in orders], err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0

    check()
