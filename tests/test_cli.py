import json
import math

import numpy as np
import pytest

from inka import REPORT_COLUMNS, Layout, parse_layout_csv, write_layout_csv
from inka.cli import main


@pytest.fixture
def drawing_files(tmp_path):
    graph = tmp_path / "square.edges"
    graph.write_text("0 1\n2 3\n")
    layout = tmp_path / "diagonals.csv"
    write_layout_csv(
        Layout(np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0], [10.0, 0.0]])),
        path=layout,
    )
    return str(graph), str(layout)


def run(argv):
    return main(argv)


def test_analyze_csv(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["analyze", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("graph_name,")
    cells = lines[1].split(",")
    ink = float(cells[REPORT_COLUMNS.index("ink")])
    assert ink == pytest.approx(14.9848, abs=0.01)
    assert int(cells[REPORT_COLUMNS.index("cr")]) == 1
    assert any(line.startswith("# bounds ") for line in lines)
    assert any(line.startswith("# clarity ") for line in lines)


def test_analyze_json(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["analyze", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["report"]
    assert report["n"] == 4 and report["m"] == 2
    assert report["feasible"] is True
    clarity = payload["clarity"]
    recomposed = (
        clarity["clarity_nodes"] + clarity["clarity_edges"] - clarity["ambiguity_overlap"]
    )
    assert recomposed == pytest.approx(report["ink"])
    assert payload["bounds"]["r_interval"] is not None


def test_analyze_out_file(drawing_files, tmp_path, capsys):
    graph, layout = drawing_files
    dest = tmp_path / "report.csv"
    code = run(["analyze", "--graph", graph, "--layout", layout, "--out", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text().startswith("graph_name,")


def test_analyze_fixed_area(drawing_files, capsys):
    graph, layout = drawing_files
    run(["analyze", "--graph", graph, "--layout", layout, "--area", "1000",
         "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["A"] == 1000.0


def test_analyze_rejects_bad_area(drawing_files, capsys):
    graph, layout = drawing_files
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--graph", graph, "--layout", layout, "--area", "-5"])
    assert exc.value.code == 2


def test_bounds_json(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["bounds", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1", "--length", "10",
                "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    lo, hi = payload["r_interval"]
    assert lo <= 1.0 <= hi
    assert payload["cr_bound"] == pytest.approx(2 * 10 / 0.1)
    assert payload["cr"] == 1


def test_layout_roundtrip_and_determinism(tmp_path, capsys):
    graph = tmp_path / "path.edges"
    graph.write_text("0 1\n1 2\n2 3\n")
    args = ["layout", "--graph", str(graph), "--algorithm", "force-directed",
            "--seed", "11", "--iterations", "60"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lay = parse_layout_csv(first, node_count=4)
    assert np.isfinite(lay.positions).all()


def test_layout_unknown_algorithm_is_usage_error(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n")
    with pytest.raises(SystemExit) as exc:
        run(["layout", "--graph", str(graph), "--algorithm", "fm3"])
    assert exc.value.code == 2


def test_transform_scale(drawing_files, tmp_path, capsys):
    graph, layout = drawing_files
    dest = tmp_path / "scaled.csv"
    code = run(["transform", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1", "--scale", "2",
                "--format", "json", "--out", str(dest)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transform"] == "scale"
    assert payload["measured_delta"] == pytest.approx(payload["predicted_delta"], rel=1e-9)
    scaled = parse_layout_csv(dest.read_text(), node_count=4)
    # distances doubled
    d0 = np.hypot(10.0, 10.0)
    d1 = float(np.hypot(*(scaled.positions[1] - scaled.positions[0])))
    assert d1 == pytest.approx(2 * d0)


def test_transform_zoom(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["transform", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1", "--zoom", "4",
                "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radius_after"] == pytest.approx(2.0)
    assert payload["measured_ink"] == pytest.approx(payload["predicted_ink"], rel=1e-9)


def test_transform_partial(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["transform", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1", "--partial", "0.5",
                "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stub_count"] == 4
    assert payload["crossings_partial"] == 0
    assert payload["necessity_holds"] is True


def test_transform_flags_are_exclusive(drawing_files):
    graph, layout = drawing_files
    with pytest.raises(SystemExit) as exc:
        run(["transform", "--graph", graph, "--layout", layout,
             "--scale", "2", "--zoom", "4"])
    assert exc.value.code == 2


def test_partial_sweep_csv(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["partial", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("p,")
    assert len(lines) == 5  # header + default ratios 0.1,0.25,0.5,1


def test_partial_sweep_json_formula_matches_measured(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["partial", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1", "--ratios", "0.5,1",
                "--format", "json"])
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert [rec["p"] for rec in records] == [0.5, 1.0]
    for rec in records:
        assert rec["ink_measured"] == pytest.approx(rec["ink_formula"], rel=1e-9)


def test_partial_bad_ratios(drawing_files, capsys):
    graph, layout = drawing_files
    assert run(["partial", "--graph", graph, "--layout", layout,
                "--ratios", "0.5,banana"]) == 2
    assert "error" in capsys.readouterr().err


def test_render_svg_output(drawing_files, tmp_path, capsys):
    graph, layout = drawing_files
    dest = tmp_path / "pic.svg"
    assert run(["render", "--graph", graph, "--layout", layout,
                "--out", str(dest)]) == 0
    text = dest.read_text()
    assert text.count("<circle") == 4
    assert text.count("<line") == 2


def test_raster_gap_small_without_crossings(tmp_path, capsys):
    graph = tmp_path / "sides.edges"
    graph.write_text("0 1\n2 3\n")
    layout = tmp_path / "sides.csv"
    write_layout_csv(
        Layout(np.array([[0.0, 0.0], [0.0, 10.0], [10.0, 0.0], [10.0, 10.0]])),
        path=layout,
    )
    code = run(["raster", "--graph", str(graph), "--layout", str(layout),
                "--radius", "1", "--width", "0.1",
                "--resolution", "512", "--supersample", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["relative_gap"]) < 0.05
    assert payload["raster_ink"] == pytest.approx(payload["analytic_ink"], rel=0.05)


def test_bench_command(tmp_path, capsys):
    graph = tmp_path / "ring.edges"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "settings": [[1, 0], [1, 1]],
        "graphs": [{"name": "ring", "path": "ring.edges"}],
        "layouts": [
            {"algorithm": "random", "seed": 1},
            {"algorithm": "circular"},
        ],
    }))
    out = tmp_path / "report.csv"
    code = run(["bench", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert summary["rows"] == 4
    assert out.read_text().count("\n") == 5  # header + 4 rows
    assert summary["base_least_ink"]["violations"] == []


def test_bench_abort_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "graphs": [{"name": "ghost", "path": "missing.edges"}],
        "layouts": [{"algorithm": "circular"}],
    }))
    out = tmp_path / "report.csv"
    code = run(["bench", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err
    assert (tmp_path / "report.csv.MANIFEST").exists()


@pytest.mark.parametrize("missing", ["name", "path"])
def test_bench_config_entry_without_key_is_an_error(tmp_path, capsys, missing):
    entry = {"name": "ring", "path": "ring.edges"}
    del entry[missing]
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "graphs": [{"name": "a", "path": "a.edges"}, entry],
        "layouts": [{"algorithm": "circular"}],
    }))
    code = run(["bench", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "graph entry 1" in captured.err


@pytest.mark.parametrize(
    "config, message",
    [
        ([{"name": "a", "path": "a.edges"}], "JSON object"),
        ({"layouts": ["circular"]}, "layout entry 0 must be"),
        ({"layouts": [{"algorithm": "force-directed", "iterations": "300"}]},
         "layout entry 0: iterations must be an integer"),
        ({"layouts": [{"algorithm": "circular"}, {"iterations": 2.5}]},
         "layout entry 1: iterations must be an integer"),
        ({"gamma": None}, '"gamma" must be a number'),
        ({"gamma": 2.0}, "gamma must be in"),
        ({"area": None}, '"area" must be a number'),
        ({"settings": [[1, 0], 5]}, "setting 1 must be an"),
        ({"settings": [[1, "w"]]}, "setting 0 must be a number"),
        ({"settings": [[-1, 0]]}, "radius must be"),
        ({"layouts": 3}, '"layouts" must be a list'),
        ({"raster": "false"}, "raster must be true or false"),
        ({"graphs": [{"name": "ring", "path": 5}]}, 'graph entry 0 needs a "name" and a "path"'),
    ],
    ids=["top-level-list", "layout-string", "iterations-str", "iterations-float",
         "gamma-null", "gamma-range", "area-null", "setting-not-pair",
         "setting-str", "setting-negative", "layouts-not-list", "raster-str",
         "path-not-str"],
)
def test_bench_config_holes_are_errors(tmp_path, capsys, config, message):
    (tmp_path / "ring.edges").write_text("0 1\n1 2\n2 0\n")
    if isinstance(config, dict):
        config = {"graphs": [{"name": "ring", "path": "ring.edges"}],
                  "layouts": [{"algorithm": "circular"}], **config}
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r.csv"
    code = run(["bench", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert message in captured.err
    # rejected while loading, before any graph runs
    assert not out.exists()
    assert not (tmp_path / "r.csv.MANIFEST").exists()


def test_partial_stub_csv_holds_plain_numbers(drawing_files, tmp_path, capsys):
    graph, layout = drawing_files
    out = tmp_path / "stubs.csv"
    assert run(["transform", "--graph", graph, "--layout", layout,
                "--partial", "0.5", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "parent,px,py,qx,qy"
    assert [float(v) for v in rows[0].split(",")] == [0.0, 0.0, 0.0, 2.5, 2.5]


def test_missing_graph_file_is_structured_error(tmp_path, capsys):
    layout = tmp_path / "lay.csv"
    write_layout_csv(Layout(np.zeros((1, 2))), path=layout)
    code = run(["analyze", "--graph", str(tmp_path / "nope.edges"),
                "--layout", str(layout)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_layout_node_count_mismatch(drawing_files, tmp_path, capsys):
    graph, _ = drawing_files
    short = tmp_path / "short.csv"
    write_layout_csv(Layout(np.zeros((2, 2))), path=short)
    code = run(["analyze", "--graph", graph, "--layout", str(short)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err
