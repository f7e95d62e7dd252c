import json
import math
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import mutated_text
from inka import (
    REPORT_COLUMNS,
    Layout,
    LayoutConfig,
    RasterConfig,
    RenderParams,
    parse_layout_csv,
    write_layout_csv,
)
from inka.cli import _build_parser, _plain, main
from inka.model import _MAX_NODES


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


def test_analyze_layout_field_past_the_csv_limit(drawing_files, tmp_path, capsys):
    graph, _layout = drawing_files
    layout = tmp_path / "long.csv"
    layout.write_text("node,x,y\n0,0,0\n1," + "1" * 131_073 + ",0\n2,0,10\n3,10,0\n")
    code = run(["analyze", "--graph", graph, "--layout", str(layout)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [f"error: {layout}:3: field larger than field limit (131072)"]


def test_analyze_matrix_market_past_the_node_limit(drawing_files, tmp_path, capsys):
    # the size line names the fault, as every other Matrix Market fault does
    _graph, layout = drawing_files
    graph = tmp_path / "big.mtx"
    graph.write_text("%%MatrixMarket matrix coordinate pattern general\n4000000000 4000000000 0\n")
    code = run(["analyze", "--graph", str(graph), "--layout", layout])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {graph}:2: node_count must be an integer in 0..{_MAX_NODES}, got 4000000000"]


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


def test_analyze_shows_a_parse_warning_as_one_line(drawing_files, tmp_path, capsys):
    # a Chaco header that declares 3 edges over 5 listed ones is a warning,
    # one stderr line naming the file, not Python's source-line format
    _, layout = drawing_files
    graph = tmp_path / "square.graph"
    graph.write_text("4 3\n2 3 4\n1 3 4\n1 2\n1 2\n")
    code = run(["analyze", "--graph", str(graph), "--layout", layout])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {graph}: header declares 3 edges, found 5 after deduplication"]


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


def _answer(argv, capsys):
    """The exit code, stdout and stderr of one in-process call."""
    try:
        code = main(argv)
    except SystemExit as e:  # a usage error
        code = e.code
    return (code, *capsys.readouterr())


def test_a_reused_parser_answers_as_a_fresh_one(drawing_files, capsys):
    graph, layout = drawing_files
    drawing = ["--graph", graph, "--layout", layout]
    calls = [["analyze", *drawing, "--strict", "--width", "20"], ["analyze", *drawing],
             ["transform", *drawing, "--scale", "2"], ["transform", *drawing, "--zoom", "2"],
             ["partial", *drawing, "--ratios", "0.5"], ["partial", *drawing],
             ["analyze", *drawing, "--bogus"], ["bounds", *drawing, "--format", "json"]]
    assert _build_parser() is _build_parser()
    reused = [_answer(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(_answer(argv, capsys))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert reused[0][1] != reused[1][1] and reused[2][1] != reused[3][1]


def test_parsed_defaults_are_the_records_defaults():
    drawing = ["--graph", "g.edges", "--layout", "l.csv"]
    commands = [(["layout", "--graph", "g.edges", "--algorithm", "random"], LayoutConfig),
                (["raster", *drawing], RasterConfig), (["raster", *drawing], RenderParams),
                (["analyze", *drawing], RenderParams)]
    for argv, record in commands:
        args = _build_parser().parse_args(argv)
        defaults = {f.name: f.default for f in fields(record)  # --algorithm is required
                    if f.default is not MISSING and f.name != "algorithm"}
        assert defaults and {name: getattr(args, name) for name in defaults} == defaults


def test_transform_scale(drawing_files, tmp_path, capsys):
    graph, layout = drawing_files
    dest = tmp_path / "scaled.csv"
    code = run(["transform", "--graph", graph, "--layout", layout,
                "--radius", "1", "--width", "0.1", "--scale", "2",
                "--format", "json", "--out", str(dest)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transform"] == "scale"
    assert payload["measured_delta"] == pytest.approx(payload["predicted_delta"],
                                                      rel=1e-9, abs=0)
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
    assert payload["measured_ink"] == pytest.approx(payload["predicted_ink"], rel=1e-9, abs=0)


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
        assert rec["ink_measured"] == pytest.approx(rec["ink_formula"], rel=1e-9, abs=0)


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
    # sqrt(4) * 1e308 overflows the random and spring start squares, and
    # n * 1e308 the circle's box
    graph, _ = drawing_files
    code = run(["layout", "--graph", graph, "--algorithm", algorithm,
                "--ideal-length", "1e308", "--iterations", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    box = {"random": "random square", "circular": "circle box"}.get(algorithm, "start square")
    assert captured.err == (f"error: ideal edge length 1e+308 for 4 nodes: {box} inf x inf "
                            "is too large to square\n")


@pytest.mark.parametrize("algorithm", ["force-directed", "multilevel"])
def test_spring_layout_whose_squared_scale_overflows_is_an_error_line(capsys, algorithm):
    # 1e307 fits the side of can_144's start square (sqrt(144) * 1e307),
    # but not its square, which bounds k * k and the squared distances of
    # the repulsion: the check comes before any spring step, so numpy
    # prints nothing first
    graph = str(Path(__file__).resolve().parents[1] / "data" / "graphs" / "can_144.mtx")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = run(["layout", "--graph", graph, "--algorithm", algorithm,
                    "--ideal-length", "1e307", "--iterations", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: ideal edge length 1e+307 for 144 nodes: start square "
                            "1.2e+308 x 1.2e+308 is too large to square\n")


@pytest.mark.parametrize("algorithm", ["force-directed", "multilevel"])
def test_spring_reach_that_does_not_square_is_an_error_line(capsys, algorithm):
    # 5e152 squares within the start square of can_144, but 100 cooling
    # steps of at most t each can spread the nodes past a span that
    # squares: the reach is tested before the first step (multilevel's
    # first spring runs on a coarse level, but names the user's length
    # and the component's nodes)
    graph = str(Path(__file__).resolve().parents[1] / "data" / "graphs" / "can_144.mtx")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = run(["layout", "--graph", graph, "--algorithm", algorithm,
                    "--ideal-length", "5e152", "--iterations", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    span = {"force-directed": "2.971021518490544e+154 x 2.9811628056309125e+154",
            "multilevel": "2.9659255010672666e+154 x 2.9343568973708504e+154"}[algorithm]
    assert captured.err == (f"error: ideal edge length 5e+152 for 144 nodes: spring reach "
                            f"{span} is too large to square\n")


def test_scale_far_from_the_origin_keeps_its_centroid_sum_finite(drawing_files, tmp_path,
                                                                  capsys):
    # every x at 1.7e308: the span squares, but a sum of the coordinates
    # would overflow, so the centroid is the low corner plus the mean offset
    graph, _ = drawing_files
    layout = tmp_path / "far.csv"
    layout.write_text("node,x,y\n0,1.7e308,0\n1,1.7e308,10\n2,1.7e308,10\n3,1.7e308,0\n")
    dest = tmp_path / "scaled.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = run(["transform", "--graph", graph, "--layout", str(layout), "--scale", "2",
                    "--out", str(dest), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["measured_delta"] == 20.0
    assert parse_layout_csv(dest.read_text()).positions.tolist() == [
        [1.7e308, -5.0], [1.7e308, 15.0], [1.7e308, 15.0], [1.7e308, -5.0]]


@pytest.mark.parametrize("components", [1, 4, 9])
def test_every_layout_near_the_overflow_is_refused_or_drawable(tmp_path, capsys, components):
    # Components are paths of 2, 3 and 4 nodes in turn. Each run is one
    # error line naming k and the node count of the graph or of a component,
    # or a layout that analyze reads and measures, with no RuntimeWarning.
    sizes = [2 + c % 3 for c in range(components)]
    starts = np.cumsum([0, *sizes])
    graph = tmp_path / "paths.edges"
    graph.write_text("".join(f"{v} {v + 1}\n" for s, size in zip(starts, sizes)
                             for v in range(s, s + size - 1)))
    layout = tmp_path / "lay.csv"
    names = {int(starts[-1]), *sizes}
    runs = [("random", "1", "0.5"), ("circular", "1", "0.5")] + [
        (algorithm, iterations, cooling) for algorithm in ("force-directed", "multilevel")
        for iterations in ("1", "30") for cooling in ("0.5", "0.95")]
    failures = []
    for k in np.logspace(140, 160, 21).tolist():
        for algorithm, iterations, cooling in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run(["layout", "--graph", str(graph), "--algorithm", algorithm,
                            "--ideal-length", repr(k), "--iterations", iterations,
                            "--cooling", cooling, "--out", str(layout)])
                err = capsys.readouterr().err
                if code == 0:
                    code = run(["analyze", "--graph", str(graph), "--layout", str(layout),
                                "--radius", "0", "--width", "0"])
                    err = capsys.readouterr().err
                    ok = code == 0 and err == ""
                else:
                    named = err.removeprefix(f"error: ideal edge length {k!r} for ")
                    ok = (code == 1 and err.count("\n") == 1 and named != err
                          and int(named.split(" nodes: ")[0]) in names
                          and err.endswith(" is too large to square\n"))
            if not ok:
                failures.append((k, algorithm, iterations, cooling, code, err))
    assert failures == []


@pytest.mark.parametrize("argv, message", [
    (["transform", "--scale", "1e200"], "scaled layout span 9.999999999999999e+200 x "
                                        "9.999999999999999e+200 is too large to square"),
    (["transform", "--zoom", "1e308", "--area", "100"],
     "zoomed drawing box 1.2e+155 x 1.2e+155 is too large to square"),
    (["raster", "--area", "100", "--radius", "1e200"],
     "drawing box 2e+200 x 2e+200 is too large to square"),
    (["bounds", "--area", "100", "--width", "1e200"],
     "drawing box 1e+200 x 1e+200 is too large to square"),
    (["analyze", "--area", "5e-324"], "ink or its density is not finite at r=1.0, w=1.0, "
                                      "L=28.284271247461902, cr=1, A=5e-324"),
    (["analyze", "--radius", "1e150", "--width", "1e150", "--area", "1e-300"],
     "ink or its density is not finite at r=1e+150, w=1e+150, L=28.284271247461902, "
     "cr=1, A=1e-300"),
])
def test_overflowing_arithmetic_is_one_error_line_naming_inputs(drawing_files, capsys,
                                                                 argv, message):
    graph, layout = drawing_files
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = run([argv[0], "--graph", graph, "--layout", layout, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["partial", "--ratios", "0.5"],
                                     ["transform", "--partial", "0.5"]])
def test_width_whose_square_underflows_reports_the_crossing_bracket(drawing_files, capsys,
                                                                    command):
    # w * w is 0 at w = 5e-324: the bracket's budget term divides by w
    # twice, and the bracket, (inf - inf, inf), is left out
    graph, layout = drawing_files
    code = run([*command, "--graph", graph, "--layout", layout, "--width", "5e-324",
                "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    payload = json.loads(captured.out)
    if command[0] == "partial":
        assert (payload[0]["cr_lo"], payload[0]["cr_hi"]) == (None, None)


_EDGE_VALUES = ("0", "-0", "5e-324", "1e152", "1e200", "1e308", "nan", "inf", "-inf",
                str(2**63))
_DRAWING_COMMANDS = (["analyze"], ["bounds"], ["raster"], ["render"], ["partial"],
                     ["transform", "--scale", "2"], ["transform", "--zoom", "4"],
                     ["transform", "--partial", "0.5"])


_HUGE = (2**63, 2**64)
_PAST = _MAX_NODES + 1
_EDGE_FILES = {
    "empty.edges": "", "comments.edges": "# no edges\n", "empty.mtx": "",
    "header.mtx": "%%MatrixMarket matrix coordinate pattern general\n",
    "empty.graph": "", "header.graph": "4 2\n",
    "huge.edges": f"0 {_HUGE[0]}\n{_HUGE[1]} 3\n",
    "huge.mtx": f"%%MatrixMarket matrix coordinate pattern general\n{_HUGE[0]} {_HUGE[0]} 0\n",
    "huge.graph": f"{_HUGE[1]} 0\n",
    "count.mtx": f"%%MatrixMarket matrix coordinate pattern general\n{_PAST} {_PAST} 0\n",
    "count.graph": f"{_PAST} 0\n",
    "empty.csv": "", "header.csv": "node,x,y\n",
    "huge.csv": f"node,x,y\n0,0,0\n{_HUGE[0]},10,10\n{_HUGE[1]},0,10\n3,10,0\n",
    "huge_tail.csv": f"node,x,y\n0,0,0\n1,10,10\n2,0,10\n3,10,0\n{_HUGE[0]},1,1\n",
}


def _edge_value_cases(graph, layout):
    """argv lists: every drawing command with each edge value in --radius,
    --width and --gamma, and in the transform factors, each at auto area
    and at --area 100, then in --area itself; then layouts at huge ideal
    edge lengths; then empty, header-only and huge-id graph and layout
    files; then bench configs with each edge value in one field."""
    here = Path(graph).parent
    for name, text in _EDGE_FILES.items():
        (here / name).write_text(text)
    yield from _file_cases(graph, layout, here)
    yield from _bench_cases(graph, here)
    files = ["--graph", graph, "--layout", layout]
    for value in _EDGE_VALUES:
        for area in ([], ["--area", "100"]):
            for command in _DRAWING_COMMANDS:
                for flag in ("--radius", "--width", "--gamma"):
                    yield [*command, *files, flag, value, *area]
            for flag in ("--scale", "--zoom", "--partial"):
                yield ["transform", *files, flag, value, *area]
        for command in _DRAWING_COMMANDS:
            yield [*command, *files, "--area", value]
    can_144 = str(Path(__file__).resolve().parents[1] / "data" / "graphs" / "can_144.mtx")
    for value in (*_EDGE_VALUES, "5e152"):
        for algorithm in ("random", "circular", "force-directed", "multilevel"):
            yield ["layout", "--graph", graph, "--algorithm", algorithm,
                   "--ideal-length", value, "--iterations", "20"]
        yield ["layout", "--graph", can_144, "--algorithm", "force-directed",
               "--ideal-length", value, "--iterations", "100"]


def _file_cases(graph, layout, here):
    graphs = [graph, *(str(here / n) for n in _EDGE_FILES if not n.endswith(".csv"))]
    layouts = [layout, *(str(here / n) for n in _EDGE_FILES if n.endswith(".csv"))]
    for g in graphs:
        for lay in layouts:
            for command in _DRAWING_COMMANDS:
                yield [*command, "--graph", g, "--layout", lay]
        for algorithm in ("random", "circular", "force-directed", "multilevel"):
            yield ["layout", "--graph", g, "--algorithm", algorithm, "--iterations", "20"]


def _bench_cases(graph, here):
    config, out = here / "bench.json", str(here / "bench.csv")
    layout = {"algorithm": "force-directed", "iterations": 20}
    for value in _EDGE_VALUES:
        v = int(value) if value.isdigit() else float(value)
        for change in ({"gamma": v}, {"area": v}, {"settings": [[v, 1]]}, {"settings": [[1, v]]},
                       {"layouts": [{**layout, "iterations": v}]},
                       {"layouts": [{**layout, "ideal_edge_length": v}]}):
            config.write_text(json.dumps({"graphs": [{"name": "g", "path": graph}],
                                          "settings": [[1, 1]], "layouts": [layout], **change}))
            yield ["bench", "--config", str(config), "--out", out]


def test_edge_values_end_in_an_exit_code_and_at_most_one_error_line(drawing_files, capsys):
    # Each run exits 0, 1 or 2 with nothing raised and no RuntimeWarning
    # (in a bench worker one becomes the abort's cause, numpy's "...
    # encountered in ..."); stderr is empty, one error: line (a bench abort
    # adds its line naming the partial results), or argparse's usage and
    # error (exit 2).
    failures = []
    for argv in _edge_value_cases(*drawing_files):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = run(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # collected, so one run names every failing case
                code = f"raised {e!r}"
        err = capsys.readouterr().err.splitlines()
        if err[1:2] and err[1].startswith("partial results: ") and argv[0] == "bench":
            del err[1]
        ok = code in (0, 1, 2) and not any(" encountered in " in line for line in err) and (
            (code == 2 and err and err[0].startswith("usage: ") and ": error: " in err[-1])
            or err == [] or (len(err) == 1 and err[0].startswith("error: ")))
        if not ok:
            failures.append((argv, code, err))
    assert failures == []


# A 4-cycle with the diagonal (0, 2), laid out at four extremes: a plain
# square, a box of the least subnormal side, a layout whose diagonal is
# nearly vertical and 1e154 long, and a 1e154 box.
_EXTREME_LAYOUTS = (
    [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
    [(0.0, 0.0), (5e-324, 0.0), (5e-324, 5e-324), (0.0, 5e-324)],
    [(0.5, 1e10), (3.0, 5e-324), (1e-160, 1e154), (0.0, 0.0)],
    [(0.0, 0.0), (1e154, 0.0), (1e154, 1e154), (0.0, 1e154)],
)
_EXTREME_PARAMS = (("0", "0"), ("1", "1"), ("5e-324", "1e-300"), ("1e150", "1e150"))
_SINGLE_DRAWING_COMMANDS = (["analyze"], ["bounds"], ["partial"], ["render"],
                            ["raster", "--resolution", "64", "--supersample", "1"],
                            ["transform", "--scale", "2"], ["transform", "--zoom", "4"],
                            ["transform", "--partial", "0.5"])


def _unclean_exit(argv, capsys):
    """None when main(argv) exits 0 with nothing on stderr, or 1 with one
    error: line (a bench abort adds its partial results line), raising
    nothing and with RuntimeWarnings as errors; else argv, the exit code
    or the exception, and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = run(argv)
        except Exception as e:  # collected, so one run names every failing case
            code = f"raised {e!r}"
    err = capsys.readouterr().err.splitlines()
    if err[1:2] and err[1].startswith("partial results: ") and argv[0] == "bench":
        del err[1]
    if code == 0 and err == [] or code == 1 and len(err) == 1 and err[0].startswith("error: "):
        return None
    return argv, code, err


def test_single_drawing_commands_on_extreme_drawings_exit_cleanly(tmp_path, capsys):
    # Every single-drawing command on every layout and (r, w) above exits
    # 0 with nothing on stderr, or 1 with one error: line; nothing raised,
    # no RuntimeWarning.  The raster once divided by a row height that
    # underflowed to 0 and warned of an overflow on the steep diagonal.
    graph = tmp_path / "diagonal.edges"
    graph.write_text("0 1\n1 2\n2 3\n0 3\n0 2\n")
    failures = []
    for k, positions in enumerate(_EXTREME_LAYOUTS):
        layout = tmp_path / f"layout{k}.csv"
        write_layout_csv(Layout(np.array(positions)), path=layout)
        for r, w in _EXTREME_PARAMS:
            for command in _SINGLE_DRAWING_COMMANDS:
                failures.append(_unclean_exit([*command, "--graph", str(graph), "--layout",
                                               str(layout), "--radius", r, "--width", w], capsys))
    assert failures == [None] * len(failures)


# The 4-cycle with its diagonal in the three graph formats, and a bench
# config over them with only the random and circular layouts and no raster
# key, so no mutation of it starts a long run.
_CYCLE_FILES = {
    "cycle.edges": "0 1\n1 2\n2 3\n0 3\n0 2\n",
    "cycle.mtx": "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 5\n"
                 "2 1\n3 2\n4 3\n4 1\n3 1\n",
    "cycle.graph": "4 5\n2 4 3\n1 3\n2 4 1\n3 1\n",
}
_CYCLE_BENCH = {
    "gamma": 1.0, "area": "auto", "settings": [[1, 0], [1, 1], [0.5, 2]],
    "graphs": [{"name": "edges", "path": "cycle.edges", "format": "edge-list"},
               {"name": "mtx", "path": "cycle.mtx", "format": "matrix-market"},
               {"name": "chaco", "path": "cycle.graph", "format": "chaco"}],
    "layouts": [{"name": "random", "algorithm": "random", "seed": 1},
                {"name": "circular", "algorithm": "circular"}],
}


@pytest.mark.filterwarnings("ignore::inka.ParseWarning")
def test_mutated_files_through_the_cli_exit_cleanly(tmp_path, capsys):
    # Seeded character mutations of each graph file and of the layout go to
    # analyze, of the bench config to bench on one thread: each run exits
    # as _unclean_exit asks, so a bad file is one error: line, never a
    # traceback or a RuntimeWarning.  A Chaco edge count that disagrees
    # with the edges found is a ParseWarning by design, so it is let pass.
    for name, text in _CYCLE_FILES.items():
        (tmp_path / name).write_text(text)
    graph, layout = tmp_path / "cycle.edges", tmp_path / "cycle.csv"
    write_layout_csv(Layout(np.array(_EXTREME_LAYOUTS[0])), path=layout)
    seeds = [*_CYCLE_FILES.items(), ("cycle.csv", layout.read_text()),
             ("bench.json", json.dumps(_CYCLE_BENCH))]
    rng = np.random.default_rng(44)
    failures = []
    for _ in range(100):
        for name, text in seeds:
            path = tmp_path / f"mutated-{name}"
            path.write_text(mutated_text(rng, text), encoding="utf-8")
            if name == "bench.json":
                argv = ["bench", "--config", str(path), "--out", str(tmp_path / "report.csv"),
                        "--threads", "1"]
            elif name == "cycle.csv":
                argv = ["analyze", "--graph", str(graph), "--layout", str(path)]
            else:
                argv = ["analyze", "--graph", str(path), "--layout", str(layout)]
            failures.append(_unclean_exit(argv, capsys))
    assert failures == [None] * len(failures)


@pytest.mark.parametrize("name", ["huge.mtx", "count.mtx", "huge.graph", "count.graph"])
def test_graph_file_with_a_count_past_the_node_limit_names_the_file(tmp_path, capsys, name):
    # the Matrix Market node count reaches build_graph, whose GraphError
    # names no file; Chaco stops first at its missing adjacency lines
    path = tmp_path / name
    path.write_text(_EDGE_FILES[name])
    code = run(["layout", "--graph", str(path), "--algorithm", "random"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith(f"error: {path}:")


def test_bench_abort_with_no_rows_says_no_report_was_written(tmp_path, capsys):
    (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n")
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"graphs": [{"name": "g", "path": "g.edges"}],
                               "settings": [[1e200, 1]], "layouts": [{"algorithm": "circular"}]}))
    out = tmp_path / "rep.csv"
    code = run(["bench", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 2 and err[0].startswith("error: bench aborted at graph 'g'")
    assert err[1] == f"partial results: 0 rows, so no report written to {out} (see {out}.MANIFEST)"
    assert not out.exists() and (tmp_path / "rep.csv.MANIFEST").exists()


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
    assert payload["raster_ink"] == pytest.approx(payload["analytic_ink"], rel=0.05, abs=0)


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


def test_bench_raster_fills_the_raster_column(tmp_path, capsys):
    graph = tmp_path / "path.edges"
    graph.write_text("0 1\n1 2\n")
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"settings": [[1, 1]], "layouts": [{"algorithm": "circular"}],
                               "graphs": [{"name": "p", "path": "path.edges"}]}))
    out = tmp_path / "report.csv"
    assert run(["bench", "--config", str(cfg), "--out", str(out), "--raster"]) == 0
    capsys.readouterr()
    row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
    assert float(row["raster_ink"]) > 0


def test_area_flag_takes_auto_or_a_number(drawing_files, capsys):
    graph, layout = drawing_files
    files = ["--graph", graph, "--layout", layout, "--format", "json"]
    assert run(["bounds", *files, "--area", "auto"]) == 0
    assert json.loads(capsys.readouterr().out)["A"] == 144.0  # (10 + 2r)^2 at r = 1
    with pytest.raises(SystemExit) as exc:
        run(["bounds", *files, "--area", "big"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "argument --area: area must be 'auto' or a number, got 'big'")


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


def test_bench_config_number_too_long_to_read_names_the_path(tmp_path, capsys):
    cfg = tmp_path / "long.json"
    cfg.write_text('{"gamma": ' + "1" * 5001 + "}\n")
    out = tmp_path / "r.csv"
    code = run(["bench", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: Exceeds the limit (4300 digits)")
    assert captured.err.count("\n") == 1
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
