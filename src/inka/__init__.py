"""Ink accounting for bold node-link graph drawings.

Nodes are drawn as disks of radius r, edges as rectangles of width w;
the package computes how much area such a drawing inks, whether that fits
a density budget, what parameter ranges keep it feasible, and how
scaling, zooming, or partial-edge stubs change it.  A row-by-row raster
oracle and deterministic layout engines close the loop from graph file to
measured drawing.
"""

from .bench import (
    BASE_SETTING,
    DEFAULT_SETTINGS,
    BenchAbort,
    BenchConfig,
    BenchGraph,
    load_bench_config,
    run_bench,
    run_bench_to_files,
    summarize,
    worker_count,
)
from .errors import (
    DegenerateDrawingError,
    GraphError,
    InfeasibleError,
    InkaError,
    LayoutError,
    ParseError,
    ParseWarning,
)
from .geometry import (
    PropernessReport,
    bounding_area,
    bounding_box,
    check_proper,
    count_crossings_bruteforce,
    count_crossings_sweep,
    crossing_pairs,
    edge_lengths,
    measure,
)
from .ink import (
    BoundsReport,
    ClarityReport,
    Interval,
    bounds_report,
    check_area_constraint,
    clarity_decomposition,
    density,
    equal_length_bounds,
    ink_components,
    ink_report,
    ink_total,
    min_ink_radius,
    partial_edge_formulas,
    planar_formulas,
    radius_bounds,
    radius_delta_ink,
    radius_delta_ink_exact,
    scale_ink_delta,
    width_bounds,
    width_delta_ink,
    zoom_ink,
)
from .layout import (
    LayoutConfig,
    compute_layout,
    layout_circular,
    layout_force_directed,
    layout_multilevel,
    layout_random,
)
from .formats import (
    REPORT_COLUMNS,
    ReportRow,
    emit_report,
    load_graph,
    parse_chaco,
    parse_edge_list,
    parse_layout_csv,
    parse_matrix_market,
    read_layout_csv,
    write_edge_list,
    write_layout_csv,
)
from .model import (
    BoldDrawing,
    DrawingMetrics,
    Graph,
    InkReport,
    Layout,
    RenderParams,
    build_graph,
    graph_density,
)
from .raster import RasterConfig, rasterize_ink, render_svg
from .transforms import (
    StubSet,
    measure_stub_crossings,
    partial_crossing_counts,
    partial_edges,
    scale_layout,
    zoom_drawing,
)

__version__ = "0.1.0"
