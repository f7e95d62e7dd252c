import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import inka.bench
from inka import (
    BenchAbort,
    BenchConfig,
    BenchGraph,
    InkaError,
    LayoutConfig,
    LayoutError,
    ParseError,
    build_graph,
    load_bench_config,
    run_bench,
    run_bench_to_files,
    summarize,
    worker_count,
    write_edge_list,
)
from inka.cli import main

ROOT = Path(__file__).resolve().parent.parent


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


def test_run_bench_deterministic_across_thread_counts(tiny_setup, monkeypatch):
    monkeypatch.delenv("INKA_THREADS", raising=False)
    a = run_bench(tiny_setup, threads=1)
    assert run_bench(tiny_setup, threads=2) == a
    assert run_bench(tiny_setup, threads=3) == a


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


def test_import_inka_loads_no_pool_module():
    code = "import sys, inka; print(sorted(m for m in sys.modules if m.startswith(" \
           "('concurrent', 'multiprocessing'))))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_one_worker_runs_in_the_calling_thread(tiny_setup, monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a one-worker bench started a pool, thread or process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    threads, children = threading.active_count(), multiprocessing.active_children()
    rows = run_bench(tiny_setup, threads=1)
    assert len(rows) == 12
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children


def test_worker_counts_give_equal_rows_on_the_fixtures(monkeypatch):
    monkeypatch.delenv("INKA_THREADS", raising=False)
    config = load_bench_config(ROOT / "data" / "bench.json")
    config = dataclasses.replace(config, graphs=config.graphs[:2])  # can_144, mesh24
    one = run_bench(config, threads=1)
    assert len(one) == 2 * 4 * 5
    assert run_bench(config, threads=2) == one
    assert run_bench(config, threads=3) == one


@pytest.fixture
def middle_failure(tiny_setup, tmp_path):
    """The tiny graphs around a middle graph that fails: a malformed file,
    or 400 nodes, too many for the two huge layouts that the tiny graphs
    still fit.  The spring layout fails too, and with its larger cost it
    is submitted first, but the circle comes first in config order."""
    def config(kind):
        bad = tmp_path / "bad.edges"
        if kind == "parse":
            bad.write_text("0 1\n1 two\n")
        else:
            write_edge_list(build_graph(400, [(i, i + 1) for i in range(399)]), bad)
        ring, path = tiny_setup.graphs
        return BenchConfig(
            graphs=(ring, BenchGraph("bad", str(bad)), path),
            layouts=tiny_setup.layouts[:1] + (
                ("wide", LayoutConfig(algorithm="circular", ideal_edge_length=1e152)),
                ("huge", LayoutConfig(algorithm="force-directed", ideal_edge_length=6e152,
                                      iterations=50)),
            ),
            settings=tiny_setup.settings,
        )
    return config


@pytest.mark.parametrize("kind,cause", [("parse", ParseError), ("layout", LayoutError)])
def test_worker_counts_abort_alike(middle_failure, tmp_path, monkeypatch, kind, cause):
    monkeypatch.delenv("INKA_THREADS", raising=False)
    config = middle_failure(kind)
    calls = []

    def spy(name, g, layout_name, lcfg, config):
        calls.append((name, layout_name))
        return GRAPH_ROWS(name, g, layout_name, lcfg, config)

    seen = []
    for threads in (1, 2, 3):
        out = tmp_path / f"report{threads}.csv"
        with pytest.raises(BenchAbort) as exc, monkeypatch.context() as patch:
            if threads == 1:  # the pool sends its task by name, so no spy there
                patch.setattr(inka.bench, "_graph_rows", spy)
            run_bench_to_files(config, out, threads=threads)
        e = exc.value
        manifest = out.with_name(out.name + ".MANIFEST").read_text()
        seen.append((e.graph_name, type(e.cause), str(e.cause), e.rows,
                     out.read_bytes(), manifest))
    assert seen[1] == seen[0] and seen[2] == seen[0]
    name, cause_type, message, rows, _report, manifest = seen[0]
    assert (name, cause_type) == ("bad", cause)
    if kind == "layout":
        assert "ideal edge length 1e+152 for 400 nodes: circle box" in message
    assert {r.graph_name for r in rows} == {"ring", "path"}
    assert len(rows) == 2 * 3 * 3
    assert f"# aborted: bad: {message}" in manifest
    # One worker runs one cell per call, in config order, and stops a graph
    # at its first failing cell: the 400-node graph fits the first layout,
    # fails the second and never runs the third; the graph after it runs.
    layouts = [lname for lname, _ in config.layouts]
    failed = [("bad", lname) for lname in layouts[:2]] if kind == "layout" else []
    assert calls == [("ring", lname) for lname in layouts] + failed + [
        ("path", lname) for lname in layouts]


GRAPH_ROWS = inka.bench._graph_rows


def rows_or_exit(name, g, layout_name, lcfg, config):
    """inka.bench._graph_rows, except that the cells of a graph named
    "crash" end their worker process at once."""
    if name == "crash":
        os._exit(1)
    return GRAPH_ROWS(name, g, layout_name, lcfg, config)


def test_a_lost_worker_ends_as_one_error_line(tiny_setup, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("INKA_THREADS", raising=False)
    # The pool sends its task function by name, and a spawned worker
    # imports this module to find it.
    monkeypatch.setattr(inka.bench, "_graph_rows", rows_or_exit)
    ring, path = tiny_setup.graphs
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "graphs": [{"name": "crash", "path": ring.path}, {"name": "path", "path": path.path}],
        "layouts": [{"name": "random", "algorithm": "random", "seed": 3},
                    {"name": "circular", "algorithm": "circular"}],
    }))
    out = tmp_path / "report.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2, err
    assert err[0].startswith("error: bench aborted at graph 'crash': A process in the "
                             "process pool was terminated abruptly")
    assert err[1].startswith("partial results: ")
    assert multiprocessing.active_children() == []
