import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from inka import REPORT_COLUMNS, Layout, parse_layout_csv, write_layout_csv
from inka.cli import _plain, main


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


@pytest.mark.parametrize("command", ["analyze", "bounds"])
@pytest.mark.parametrize("area", ["nan", "inf", "-inf", "0"])
def test_fixed_area_must_be_finite_and_positive(drawing_files, capsys, command, area):
    graph, layout = drawing_files
    with pytest.raises(SystemExit) as exc:
        run([command, "--graph", graph, "--layout", layout, f"--area={area}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"fixed area must be finite and > 0, got {float(area)}" in captured.err


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


@pytest.mark.parametrize("length", ["-1", "0", "nan", "inf"])
def test_bounds_rejects_bad_length(drawing_files, capsys, length):
    graph, layout = drawing_files
    code = run(["bounds", "--graph", graph, "--layout", layout, "--length", length])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: edge length must be finite and > 0, got {float(length)}\n"


@pytest.mark.parametrize("length", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("shape", ["edgeless", "zero-width"])
def test_bounds_rejects_bad_length_without_length_bounds(
    drawing_files, edgeless_files, capsys, shape, length
):
    # no equal-length bounds are computed here, but the flag is still checked
    graph, layout = edgeless_files if shape == "edgeless" else drawing_files
    extra = ["--width", "0"] if shape == "zero-width" else []
    code = run(["bounds", "--graph", graph, "--layout", layout, "--length", length, *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: edge length must be finite and > 0, got {float(length)}\n"


def test_memory_error_is_an_error_line(drawing_files, capsys, monkeypatch):
    # a valid header can ask for more memory than exists; raising here
    # stands in for that allocation without attempting it
    def exhausted(g, config):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr("inka.cli.compute_layout", exhausted)
    graph, _ = drawing_files
    code = run(["layout", "--graph", graph, "--algorithm", "circular"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 7.28 TiB\n"


def test_plain_renders_non_finite_floats():
    assert _plain(float("nan")) == "nan"
    assert _plain(float("inf")) == "inf"
    assert _plain(float("-inf")) == "-inf"
    assert _plain({"v": [1.5, float("nan")]}) == {"v": [1.5, "nan"]}


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


def test_transform_zoom_far_down_keeps_the_crossing(drawing_files, capsys):
    # at zeta = 1e-14 the 10 x 10 square's orientations are about 1e-12; the
    # sign test against 0 still sees its crossing, so ink scales by zeta
    # (pytest.approx would allow 1e-12 of absolute slack, more than the ink)
    graph, layout = drawing_files
    code = run(["transform", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "1", "--zoom", "1e-14", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.isclose(payload["measured_ink"], payload["predicted_ink"], rel_tol=1e-9)


@pytest.mark.parametrize("flag, name", [("--scale", "length multiplier"),
                                        ("--zoom", "area magnification")])
@pytest.mark.parametrize("factor", ["nan", "inf"])
def test_transform_rejects_non_finite_factor(drawing_files, capsys, flag, name, factor):
    graph, layout = drawing_files
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = run(["transform", "--graph", graph, "--layout", layout, flag, factor])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {name} must be finite and > 0, got {factor}\n"


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


def test_partial_sweep_csv_writes_booleans_as_other_csvs_do(drawing_files, capsys):
    # lower-case true/false, as in `inka analyze` and `inka bench`
    graph, layout = drawing_files
    code = run(["partial", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1", "--ratios", "0.5,1"])
    assert code == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    col = header.split(",").index("necessity_holds")
    assert [row.split(",")[col] for row in rows] == ["true", "true"]


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
    with pytest.raises(SystemExit) as exc:
        run(["partial", "--graph", graph, "--layout", layout,
             "--ratios", "0.5,banana"])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


PARTIAL_CSV_W01 = (
    "p,stub_crossings,ink_formula,ink_measured,necessity_holds,cr_lo,cr_hi\n"
    "0.5,0,13.580584176732268,13.580584176732268,true,-14258.578643762687,"
    "141.4213562373095\n"
    "1.0,1,14.984797739105362,14.984797739105362,true,-14117.157287525377,"
    "282.842712474619\n"
)
PARTIAL_CSV_W0 = (
    "p,stub_crossings,ink_formula,ink_measured,necessity_holds,cr_lo,cr_hi\n"
    "0.5,0,12.566370614359172,12.566370614359172,,,\n"
    "1.0,1,12.566370614359172,12.566370614359172,,,\n"
)
PARTIAL_JSON_W0 = """[
  {
    "p": 0.5,
    "stub_crossings": 0,
    "ink_formula": 12.566370614359172,
    "ink_measured": 12.566370614359172,
    "necessity_holds": null,
    "cr_lo": null,
    "cr_hi": null
  },
  {
    "p": 1.0,
    "stub_crossings": 1,
    "ink_formula": 12.566370614359172,
    "ink_measured": 12.566370614359172,
    "necessity_holds": null,
    "cr_lo": null,
    "cr_hi": null
  }
]
"""
PARTIAL_JSON_W01 = """[
  {
    "p": 0.5,
    "stub_crossings": 0,
    "ink_formula": 13.580584176732268,
    "ink_measured": 13.580584176732268,
    "necessity_holds": true,
    "cr_lo": -14258.578643762687,
    "cr_hi": 141.4213562373095
  },
  {
    "p": 1.0,
    "stub_crossings": 1,
    "ink_formula": 14.984797739105362,
    "ink_measured": 14.984797739105362,
    "necessity_holds": true,
    "cr_lo": -14117.157287525377,
    "cr_hi": 282.842712474619
  }
]
"""


@pytest.mark.parametrize(
    "width, fmt, expected",
    [("0.1", "csv", PARTIAL_CSV_W01), ("0.1", "json", PARTIAL_JSON_W01),
     ("0", "csv", PARTIAL_CSV_W0), ("0", "json", PARTIAL_JSON_W0)],
    ids=["csv", "json", "csv-w0", "json-w0"],
)
def test_partial_sweep_exact_bytes(drawing_files, capsys, width, fmt, expected):
    # at w = 0 there is no crossing interval and no necessity verdict:
    # empty CSV cells, JSON nulls
    graph, layout = drawing_files
    assert run(["partial", "--graph", graph, "--layout", layout, "--radius", "1",
                "--width", width, "--ratios", "0.5,1", "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("ratios", [",", " ", ""])
def test_partial_empty_ratios(drawing_files, capsys, ratios):
    graph, layout = drawing_files
    with pytest.raises(SystemExit) as exc:
        run(["partial", "--graph", graph, "--layout", layout, "--ratios", ratios])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--ratios" in err


def test_render_svg_output(drawing_files, tmp_path, capsys):
    graph, layout = drawing_files
    dest = tmp_path / "pic.svg"
    assert run(["render", "--graph", graph, "--layout", layout,
                "--out", str(dest)]) == 0
    text = dest.read_text()
    assert text.count("<circle") == 4
    assert text.count("<line") == 2


@pytest.mark.parametrize("command", ["render", "analyze", "raster", "transform"])
def test_overflowing_bounding_box_is_an_error_line(drawing_files, tmp_path, capsys, command):
    # r = 1e308 puts the box's sides at 2e308 = inf
    graph, layout = drawing_files
    dest = tmp_path / "pic.svg"
    extra = ["--scale", "2"] if command == "transform" else []
    code = run([command, "--graph", graph, "--layout", layout, "--radius", "1e308",
                "--out", str(dest), *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and not dest.exists()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "raster", "partial", "render"])
def test_layout_whose_squared_span_overflows_is_an_error_line(tmp_path, capsys, command):
    # finite coordinates near 1e308: read whole, they reach no numpy arithmetic
    graph, layout = tmp_path / "tri.edges", tmp_path / "big.csv"
    graph.write_text("0 1\n1 2\n0 2\n")
    layout.write_text("node,x,y\n0,0,0\n1,1e308,0\n2,0,1e308\n")
    dest = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = run([command, "--graph", str(graph), "--layout", str(layout), "--out", str(dest)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and not dest.exists()
    assert captured.err == (f"error: {layout}: layout span 1e+308 x 1e+308 is too large "
                            "to square\n")


@pytest.mark.parametrize("algorithm", ["random", "force-directed", "multilevel", "circular"])
def test_layout_ideal_length_that_overflows_is_an_error_line(drawing_files, capsys, algorithm):
    # sqrt(4) * 1e308 overflows the random start square, and n * 1e308 the circle
    graph, _ = drawing_files
    code = run(["layout", "--graph", graph, "--algorithm", algorithm,
                "--ideal-length", "1e308", "--iterations", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: ideal edge length 1e+308 is too large for 4 nodes\n"


@pytest.mark.parametrize("algorithm", ["force-directed", "multilevel"])
def test_spring_layout_whose_squared_scale_overflows_is_an_error_line(capsys, algorithm):
    # 1e307 fits the start square of can_144 (sqrt(144) * 1e307), but k * k
    # and the squared distances of the repulsion overflow: the check comes
    # before any spring step, so numpy prints nothing first
    graph = str(Path(__file__).resolve().parents[1] / "data" / "graphs" / "can_144.mtx")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = run(["layout", "--graph", graph, "--algorithm", algorithm,
                    "--ideal-length", "1e307", "--iterations", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: ideal edge length 1e+307 is too large for 144 nodes\n"


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


def test_raster_bad_resolution_is_structured_error(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["raster", "--graph", graph, "--layout", layout, "--resolution", "32"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: resolution must be >= 64")


def test_raster_huge_resolution_is_structured_error(drawing_files, capsys):
    graph, layout = drawing_files
    code = run(["raster", "--graph", graph, "--layout", layout,
                "--resolution", "100000000", "--supersample", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: resolution * supersampling must be <= 2**20, got 100000000 * 1\n"


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


@pytest.mark.parametrize(
    "flag, env, message",
    [
        (["--threads", "-2"], None, "error: thread count must be >= 0 (0 = auto), got -2\n"),
        ([], "-2", "error: INKA_THREADS must be >= 0 (0 = no cap), got '-2'\n"),
    ],
)
def test_bench_rejects_negative_thread_counts(tmp_path, capsys, monkeypatch, flag, env, message):
    (tmp_path / "ring.edges").write_text("0 1\n1 2\n2 0\n")
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "graphs": [{"name": "ring", "path": "ring.edges"}],
        "layouts": [{"algorithm": "circular"}],
    }))
    if env is None:
        monkeypatch.delenv("INKA_THREADS", raising=False)
    else:
        monkeypatch.setenv("INKA_THREADS", env)
    code = run(["bench", "--config", str(cfg), "--out", str(tmp_path / "r.csv"), *flag])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == message  # one error line, no traceback
    assert not (tmp_path / "r.csv").exists()


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
        ({"graphs": [{"name": "ring", "path": "ring.edges", "format": 5}]},
         'graph entry 0: "format" must be null or one of'),
        ({"graphs": [{"name": "ring", "path": "ring.edges", "format": "gml"}]},
         "got 'gml'"),
        ({"setting": [[1, 1]]}, 'top level: unknown key "setting"'),
        ({"graphs": [{"name": "ring", "path": "ring.edges", "fmt": "chaco"}]},
         'graph entry 0: unknown key "fmt"'),
        ({"layouts": [{"algorithm": "circular", "iteration": 3}]},
         'layout entry 0: unknown key "iteration"'),
        ({"graphs": [{"name": 7, "path": "ring.edges"}]},
         'graph entry 0 needs a "name" and a "path" string'),
        ({"layouts": [{"name": ["x"], "algorithm": "circular"}]},
         'layout entry 0: "name" must be a string, got [\'x\']'),
        ({"area": -5}, "fixed area must be finite and > 0, got -5.0"),
        ({"area": float("nan")}, "fixed area must be finite and > 0, got nan"),
        ({"area": float("inf")}, "fixed area must be finite and > 0, got inf"),
        ({"graphs": [{"name": "ring", "path": "ring.edges"}] * 2},
         "graph entry 1: name 'ring' is already used by graph entry 0"),
        ({"layouts": [{"name": "r", "algorithm": "random"}, {"algorithm": "circular"},
                      {"name": "r", "algorithm": "circular"}]},
         "layout entry 2: name 'r' is already used by layout entry 0"),
    ],
    ids=["top-level-list", "layout-string", "iterations-str", "iterations-float",
         "gamma-null", "gamma-range", "area-null", "setting-not-pair",
         "setting-str", "setting-negative", "layouts-not-list", "raster-str",
         "path-not-str", "format-int", "format-unknown", "top-level-typo",
         "graph-key-typo", "layout-key-typo", "graph-name-int", "layout-name-list",
         "area-negative", "area-nan", "area-inf", "graph-name-repeated",
         "layout-name-repeated"],
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


def test_partial_stub_csv_exact_bytes_at_zero_width(drawing_files, tmp_path, capsys):
    graph, layout = drawing_files
    out = tmp_path / "stubs.csv"
    assert run(["transform", "--graph", graph, "--layout", layout, "--radius", "1",
                "--width", "0", "--partial", "0.25", "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("necessity_holds=None\n")
    assert out.read_text() == (
        "parent,px,py,qx,qy\n0,0.0,0.0,1.25,1.25\n0,10.0,10.0,8.75,8.75\n"
        "1,0.0,10.0,1.25,8.75\n1,10.0,0.0,8.75,1.25\n"
    )


def test_bench_config_bad_json_names_path_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{graphs: []}\n")
    out = tmp_path / "r.csv"
    code = run(["bench", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}:1: Expecting property name")
    assert not out.exists()


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


@pytest.fixture
def edgeless_files(tmp_path):
    # three isolated nodes: nothing caps the width, so w_interval's upper
    # end is infinite
    graph = tmp_path / "lonely.mtx"
    graph.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 0\n")
    layout = tmp_path / "lonely.csv"
    write_layout_csv(Layout(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])), path=layout)
    return str(graph), str(layout)


EDGELESS_BOUNDS = {
    "r_interval": [0.0, 3.9088200952233594],
    "w_interval": [0.0, "inf"],
    "l_interval": None,
    "cr_bound": None,
    "planar_l_max": 140.57522203923062,
}


def test_edgeless_bounds_text_forms(edgeless_files, capsys):
    graph, layout = edgeless_files
    assert run(["bounds", "--graph", graph, "--layout", layout]) == 0
    assert capsys.readouterr().out == (
        "n=3\nm=0\nL=0.0\ncr=0\nA=144.0\n"
        "r_interval=[0.0, 3.9088200952233594]\nw_interval=[0.0, 'inf']\n"
        "l_interval=None\ncr_bound=None\nplanar_l_max=140.57522203923062\n"
    )
    assert run(["bounds", "--graph", graph, "--layout", layout, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"w_interval": [\n    0.0,\n    "inf"\n  ],' in out
    expected = {"n": 3, "m": 0, "L": 0.0, "cr": 0, "A": 144.0, **EDGELESS_BOUNDS}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_edgeless_analyze_text_forms(edgeless_files, capsys):
    graph, layout = edgeless_files
    assert run(["analyze", "--graph", graph, "--layout", layout]) == 0
    assert capsys.readouterr().out == (
        "graph_name,layout_name,n,m,r,w,gamma,L,cr,A,ink,density,feasible,"
        "raster_ink,log10_ink\n"
        "lonely,lonely,3,0,1.0,1.0,1.0,0.0,0,144.0,9.42477796076938,"
        "0.06544984694978735,true,,0.9742711274137963\n"
        "# bounds r_interval=[0.0, 3.9088200952233594] w_interval=[0.0, 'inf'] "
        "l_interval=None cr_bound=None planar_l_max=140.57522203923062\n"
        "# clarity clarity_nodes=9.42477796076938 clarity_edges=0.0 "
        "ambiguity_overlap=0.0\n"
    )
    assert run(["analyze", "--graph", graph, "--layout", layout, "--format", "json"]) == 0
    report = {
        "graph_name": "lonely", "layout_name": "lonely", "n": 3, "m": 0, "r": 1.0,
        "w": 1.0, "gamma": 1.0, "L": 0.0, "cr": 0, "A": 144.0,
        "ink": 9.42477796076938, "density": 0.06544984694978735, "feasible": True,
        "raster_ink": None, "log10_ink": 0.9742711274137963,
    }
    clarity = {"clarity_nodes": 9.42477796076938, "clarity_edges": 0.0,
               "ambiguity_overlap": 0.0}
    expected = {"report": report, "bounds": EDGELESS_BOUNDS, "clarity": clarity}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_transform_partial_key_value_text(drawing_files, tmp_path, capsys):
    graph, layout = drawing_files
    out = tmp_path / "stubs.csv"
    assert run(["transform", "--graph", graph, "--layout", layout, "--radius", "1",
                "--width", "0.1", "--partial", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "transform=partial\nfactor=0.5\nstub_count=4\n"
        "stub_total_length=14.142135623730951\ncrossings_full=1\n"
        "crossings_partial=0\nink_full=14.984797739105362\n"
        "ink_partial=13.580584176732268\nnecessity_holds=True\n"
    )
    assert out.read_text() == (
        "parent,px,py,qx,qy\n0,0.0,0.0,2.5,2.5\n0,10.0,10.0,7.5,7.5\n"
        "1,0.0,10.0,2.5,7.5\n1,10.0,0.0,7.5,2.5\n"
    )
