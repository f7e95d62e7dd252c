import json
import math
from pathlib import Path

import pytest

from inka import (
    BenchAbort,
    BenchConfig,
    BenchGraph,
    InkaError,
    LayoutConfig,
    ParseError,
    build_graph,
    load_bench_config,
    run_bench,
    run_bench_to_files,
    summarize,
    worker_count,
    write_edge_list,
)


@pytest.fixture
def tiny_setup(tmp_path):
    g1 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    g2 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    write_edge_list(g1, tmp_path / "ring.edges")
    write_edge_list(g2, tmp_path / "path.edges")
    config = BenchConfig(
        graphs=(
            BenchGraph("ring", str(tmp_path / "ring.edges")),
            BenchGraph("path", str(tmp_path / "path.edges")),
        ),
        layouts=(
            ("random", LayoutConfig(algorithm="random", seed=3)),
            ("circular", LayoutConfig(algorithm="circular")),
        ),
        settings=((1.0, 0.0), (1.0, 1.0), (2.0, 1.0)),
    )
    return config


def test_run_bench_row_grid_and_order(tiny_setup):
    rows = run_bench(tiny_setup)
    assert len(rows) == 2 * 2 * 3
    key = [(r.graph_name, r.layout_name, r.r, r.w) for r in rows]
    expected = [
        (g, l, r, w)
        for g in ("ring", "path")
        for l in ("random", "circular")
        for r, w in ((1.0, 0.0), (1.0, 1.0), (2.0, 1.0))
    ]
    assert key == expected


def test_rows_recompute_from_their_own_columns(tiny_setup):
    for row in run_bench(tiny_setup):
        ink = (
            row.n * math.pi * row.r**2
            + row.w * (row.L - 2 * row.m * row.r)
            - row.w**2 * row.cr
        )
        assert row.ink == pytest.approx(ink, rel=1e-12, abs=0)
        assert row.density == pytest.approx(row.ink / row.A, rel=1e-12, abs=0)
        if row.ink > 0:
            assert row.log10_ink == pytest.approx(math.log10(row.ink))


def test_run_bench_deterministic_across_thread_counts(tiny_setup):
    a = run_bench(tiny_setup, threads=1)
    b = run_bench(tiny_setup, threads=2)
    assert a == b


def test_fixed_area_override(tiny_setup, tmp_path):
    config = BenchConfig(
        graphs=tiny_setup.graphs,
        layouts=tiny_setup.layouts,
        settings=tiny_setup.settings,
        area=5000.0,
    )
    assert all(row.A == 5000.0 for row in run_bench(config))


def test_raster_column(tiny_setup):
    config = BenchConfig(
        graphs=tiny_setup.graphs[:1],
        layouts=tiny_setup.layouts[:1],
        settings=((1.0, 0.5),),
        raster=True,
    )
    rows = run_bench(config)
    assert rows[0].raster_ink is not None
    assert rows[0].raster_ink > 0
    assert all(r.raster_ink is None for r in run_bench(tiny_setup))


def test_worker_count_rules(monkeypatch):
    monkeypatch.delenv("INKA_THREADS", raising=False)
    assert worker_count(4, jobs=8) == 4
    assert worker_count(4, jobs=2) == 2
    assert worker_count(None, jobs=100) >= 1
    monkeypatch.setenv("INKA_THREADS", "1")
    assert worker_count(8, jobs=8) == 1
    monkeypatch.setenv("INKA_THREADS", "0")  # 0 means no cap
    assert worker_count(3, jobs=8) == 3


def test_worker_count_rejects_non_integer_env(monkeypatch):
    monkeypatch.setenv("INKA_THREADS", "abc")
    with pytest.raises(InkaError, match="INKA_THREADS.*'abc'"):
        worker_count(2, jobs=4)


def test_worker_count_rejects_negative_counts(monkeypatch):
    monkeypatch.delenv("INKA_THREADS", raising=False)
    assert worker_count(0, jobs=100) == worker_count(None, jobs=100)  # 0 = auto
    with pytest.raises(InkaError, match="thread count.*got -2"):
        worker_count(-2, jobs=4)
    monkeypatch.setenv("INKA_THREADS", " -2 ")
    with pytest.raises(InkaError, match="INKA_THREADS.*'-2'"):
        worker_count(2, jobs=4)


def test_load_bench_config_resolves_paths(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)])
    (tmp_path / "sub").mkdir()
    write_edge_list(g, tmp_path / "sub" / "g.edges")
    cfg_file = tmp_path / "bench.json"
    cfg_file.write_text(
        json.dumps(
            {
                "gamma": 0.8,
                "area": "auto",
                "settings": [[1, 0], [1, 1]],
                "graphs": [{"name": "g", "path": "sub/g.edges", "format": "edge-list"}],
                "layouts": [
                    {"name": "rand", "algorithm": "random", "seed": 5},
                    {"algorithm": "circular"},
                ],
            }
        )
    )
    config = load_bench_config(cfg_file)
    assert config.gamma == 0.8
    assert config.area is None
    assert config.settings == ((1.0, 0.0), (1.0, 1.0))
    assert Path(config.graphs[0].path).is_absolute()
    assert config.graphs[0].format == "edge-list"
    assert [name for name, _ in config.layouts] == ["rand", "circular"]
    rows = run_bench(config)
    assert len(rows) == 1 * 2 * 2
    assert all(row.gamma == 0.8 for row in rows)


@pytest.mark.parametrize("kind", ["graph", "layout"])
def test_load_bench_config_rejects_a_repeated_name(tmp_path, kind):
    # summarize keys cells by (graph, layout) name: two graphs named g and
    # two layouts named r would merge four cells into one
    write_edge_list(build_graph(3, [(0, 1), (1, 2)]), tmp_path / "g.edges")
    graphs = [{"name": "g", "path": "g.edges"}, {"name": "h", "path": "g.edges"}]
    layouts = [{"name": "r", "algorithm": "random", "seed": 1},
               {"name": "c", "algorithm": "circular"},
               {"name": "s", "algorithm": "random", "seed": 2}]
    entries = {"graph": graphs, "layout": layouts}[kind]
    entries[-1]["name"] = entries[0]["name"]
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"graphs": graphs, "layouts": layouts}))
    index = len(entries) - 1
    with pytest.raises(ParseError, match=f"{kind} entry {index}: name '{entries[0]['name']}' "
                                         f"is already used by {kind} entry 0"):
        load_bench_config(cfg)


def test_load_bench_config_unnamed_layouts_take_their_algorithm_name(tmp_path):
    # a layout's default name is its algorithm, so two unnamed layouts of
    # one algorithm are a repeated name
    write_edge_list(build_graph(2, [(0, 1)]), tmp_path / "g.edges")
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "graphs": [{"name": "g", "path": "g.edges"}],
        "layouts": [{"algorithm": "random", "seed": 1}, {"algorithm": "random", "seed": 2}],
    }))
    with pytest.raises(ParseError, match="layout entry 1: name 'random' is already used"):
        load_bench_config(cfg)


def test_load_bench_config_bad_json_is_a_parse_error(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text('{"graphs": [], oops}\n')
    with pytest.raises(ParseError) as exc:
        load_bench_config(cfg)
    assert (exc.value.path, exc.value.line) == (str(cfg), 1)
    assert str(exc.value).startswith(f"{cfg}:1: Expecting property name")


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_load_bench_config_unreadable_is_a_parse_error(tmp_path, kind):
    cfg = tmp_path / "bench.json"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(b'{"gamma": "\xff"}')
    with pytest.raises(ParseError) as exc:
        load_bench_config(cfg)
    assert isinstance(exc.value, InkaError)
    assert exc.value.path == str(cfg)
    assert str(exc.value).startswith(f"{cfg}: cannot read file:")


def test_bench_config_validation(tiny_setup):
    with pytest.raises(ValueError):
        BenchConfig(graphs=(), layouts=tiny_setup.layouts)
    with pytest.raises(ValueError):
        BenchConfig(graphs=tiny_setup.graphs, layouts=())
    with pytest.raises(ValueError):
        BenchConfig(graphs=tiny_setup.graphs, layouts=tiny_setup.layouts, settings=())


def test_bench_abort_carries_completed_rows(tiny_setup, tmp_path):
    config = BenchConfig(
        graphs=tiny_setup.graphs + (BenchGraph("ghost", str(tmp_path / "missing.edges")),),
        layouts=tiny_setup.layouts,
        settings=tiny_setup.settings,
    )
    with pytest.raises(BenchAbort) as exc:
        run_bench(config, threads=1)
    assert exc.value.graph_name == "ghost"
    # both healthy graphs completed before the verdict
    assert {r.graph_name for r in exc.value.rows} == {"ring", "path"}


def test_run_bench_to_files_flushes_manifest_on_abort(tiny_setup, tmp_path):
    config = BenchConfig(
        graphs=(BenchGraph("ghost", str(tmp_path / "missing.edges")),) + tiny_setup.graphs,
        layouts=tiny_setup.layouts,
        settings=tiny_setup.settings,
    )
    out = tmp_path / "report.csv"
    with pytest.raises(BenchAbort):
        run_bench_to_files(config, out, threads=2)
    manifest = tmp_path / "report.csv.MANIFEST"
    assert manifest.exists()
    text = manifest.read_text()
    assert "# aborted: ghost" in text
    assert out.exists()  # partial rows flushed
    assert out.read_text().startswith("graph_name,")


def test_run_bench_to_files_writes_report_and_summary(tiny_setup, tmp_path):
    out = tmp_path / "report.json"
    rows, summary = run_bench_to_files(tiny_setup, out, format="json")
    assert json.loads(out.read_text())[0]["graph_name"] == "ring"
    assert summary["rows"] == len(rows)
    assert not (tmp_path / "report.json.MANIFEST").exists()


def test_summarize_checks(tiny_setup):
    rows = run_bench(tiny_setup)
    summary = summarize(rows)
    assert summary["rows"] == 12
    assert summary["cells"] == 4
    base = summary["base_least_ink"]
    assert base["checked"] > 0
    assert base["violations"] == []
    small = summary["small_radius_change"]
    assert small["checked"] == 4
    assert 0 <= small["max_relative_change"]
    assert set(summary["least_ink_layout"]) == {"ring", "path"}
