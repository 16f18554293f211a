"""Deterministic SVG figure rendering.

Three figure kinds: lineage grids (one cell per run, rows grouped by
benchmark/method/llm, x = evaluation index, y = a PC1 score or a raw
feature), t-SNE scatter of all samples (color = method/llm, marker shape
cycles per run, size tracks normalized fitness), and a correlation
heatmap with a diverging color scale. Renderers only draw: the caller
computes the projections and passes one y value or one (x, y) row per
node, in graph order.

Each renderer returns the SVG document as a string. Every element is
written by `_el`, with fixed 2-decimal coordinates, so a given input
always renders byte-identically, and with escaped text, so any label
parses as XML. Elements carry class attributes (node, edge, point, cell,
...) so tests can count them.
"""

from __future__ import annotations

import numpy as np

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

MARKER_SHAPES = ("circle", "square", "triangle", "diamond", "cross")

BASE_RADIUS = 2.0  # lineage node radius at parent frequency 0
CELL_WIDTH = 240.0  # lineage grid cell size
CELL_HEIGHT = 170.0


# markup characters, and "\r", which a parser would read back as "\n";
# every other character that XML 1.0 cannot carry becomes U+FFFD
_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;"}
    | dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd")
)


def _esc(text: str) -> str:
    return str(text).translate(_ESCAPES)


def _f(v: float) -> str:
    out = f"{float(v):.2f}"
    return "0.00" if out == "-0.00" else out


def _tag(name: str, attrs: dict) -> str:
    """An unclosed start tag: attributes in the order given, floats
    through _f, other values as given."""
    return f"<{name}" + "".join(
        [f' {k}="{_f(v) if isinstance(v, float) else v}"' for k, v in attrs.items()]
    )


def _el(name: str, attrs: dict, text: str | None = None) -> str:
    """One SVG element on its own line, holding the escaped text if any."""
    if text is None:
        return _tag(name, attrs) + "/>\n"
    return f"{_tag(name, attrs)}>{_esc(text)}</{name}>\n"


def _svg(width: float, height: float, body: list[str]) -> str:
    """The document: the body's elements on a white background."""
    head = _tag("svg", {"xmlns": "http://www.w3.org/2000/svg", "width": width, "height": height,
                        "viewBox": f"0 0 {_f(width)} {_f(height)}",
                        "font-family": "Helvetica, Arial, sans-serif"})
    background = _el("rect", {"x": 0, "y": 0, "width": width, "height": height, "fill": "#ffffff"})
    return head + ">\n" + background + "".join(body) + "</svg>\n"


class _Scale:
    """Linear map from a data interval to a pixel interval, with padding.
    A zero-span domain maps everything to the pixel midpoint."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float, pad: float = 0.05):
        span = hi - lo
        if span <= 0:
            lo, hi = lo - 0.5, hi + 0.5
            span = hi - lo
        self.lo = lo - pad * span
        self.hi = hi + pad * span
        self.px_lo = px_lo
        self.px_hi = px_hi

    def __call__(self, v: float) -> float:
        t = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + t * (self.px_hi - self.px_lo)


_K = 0.35  # half the width of a cross's bar, over its radius
# the polygon markers' vertices about their centre, over the radius
_POLYGONS = {
    "triangle": ((0, -1), (-0.866, 0.5), (0.866, 0.5)),
    "diamond": ((0, -1), (1, 0), (0, 1), (-1, 0)),
    "cross": (
        (-_K, -1), (_K, -1), (_K, -_K), (1, -_K), (1, _K), (_K, _K),
        (_K, 1), (-_K, 1), (-_K, _K), (-1, _K), (-1, -_K), (-_K, -_K),
    ),
}


def _marker(shape: str, x: float, y: float, r: float, color: str, hollow: bool) -> str:
    style = {"fill": "none" if hollow else color, "stroke": color, "stroke-width": "1.2"}
    if shape == "circle":
        return _el("circle", {"class": "point", "cx": x, "cy": y, "r": r, **style})
    if shape == "square":
        return _el("rect", {"class": "point", "x": x - r, "y": y - r,
                            "width": 2 * r, "height": 2 * r, **style})
    points = " ".join(f"{_f(x + dx * r)},{_f(y + dy * r)}" for dx, dy in _POLYGONS[shape])
    return _el("polygon", {"class": "point", "points": points, **style})


def _per_node(table, values, row_shape: tuple, what: str) -> np.ndarray:
    """`values` as a float array holding one row of row_shape per node of
    the CegTable, in graph order; ValueError, naming `what`, otherwise."""
    n = len(table.ids)
    if not n:
        raise ValueError("empty node set")
    values = np.asarray(values, dtype=float)
    if values.shape != (n, *row_shape):
        raise ValueError(f"need one {what} per node, got shape {values.shape}")
    return values


def render_ceg(table, y_values, y_label: str, annotation: str = "") -> str:
    """Grid of lineage plots of a CegTable: rows are (benchmark, method,
    llm) groups, columns are runs, x is evaluation index and y is
    y_values, one value per node in graph order, labeled y_label. A
    non-empty annotation (such as the explained variance of PC1) is
    printed above the grid. Marker area tracks parent frequency; nodes
    whose fitness_norm is NaN are drawn hollow."""
    y_values = _per_node(table, y_values, (), "y value")
    # each group's runs are one grid row
    groups = table.group_bounds().tolist()
    rows = [range(lo, hi) for lo, hi in zip(groups, groups[1:])]
    ncols = max(len(row) for row in rows)

    margin_left, margin_top = 150.0, 50.0
    margin_right, margin_bottom = 20.0, 45.0
    gap = 14.0
    cw, ch = CELL_WIDTH, CELL_HEIGHT
    width = margin_left + ncols * cw + (ncols - 1) * gap + margin_right
    height = margin_top + len(rows) * ch + (len(rows) - 1) * gap + margin_bottom

    x_lo, x_hi = float(table.evaluation_index.min()), float(table.evaluation_index.max())
    y_lo, y_hi = float(np.min(y_values)), float(np.max(y_values))
    xs, ys = table.evaluation_index.tolist(), y_values.tolist()
    radii = (BASE_RADIUS * (1.0 + table.parent_frequency())).tolist()
    hollow = np.isnan(table.fitness_norm).tolist()
    parent, child = table.parent.tolist(), table.child.tolist()
    bounds, edge_bounds = table.run_bounds.tolist(), table.edge_bounds().tolist()

    parts = []
    if annotation:
        parts.append(_el("text", {"class": "annotation", "x": margin_left, "y": 20,
                                  "font-size": 13}, annotation))
    parts.append(_el("text", {"class": "axis-label", "x": width / 2, "y": height - 10,
                              "font-size": 12, "text-anchor": "middle"}, "evaluation index"))
    pad = 10.0
    for row, runs in enumerate(rows):
        color = PALETTE[row % len(PALETTE)]
        cell_y = margin_top + row * (ch + gap)
        parts.append(_el("text", {"class": "row-label", "x": margin_left - 10, "y": cell_y + ch / 2,
                                  "font-size": 11, "text-anchor": "end", "fill": color},
                         "/".join(table.group_keys[runs[0]])))
        for col, r in enumerate(runs):
            cell_x = margin_left + col * (cw + gap)
            sx = _Scale(x_lo, x_hi, cell_x + pad, cell_x + cw - pad)
            sy = _Scale(y_lo, y_hi, cell_y + ch - pad, cell_y + pad)
            parts.append(_el("rect", {"class": "cell-frame", "x": cell_x, "y": cell_y, "width": cw,
                                      "height": ch, "fill": "none", "stroke": "#999999"}))
            parts.append(_el("text", {"class": "col-label", "x": cell_x + cw / 2, "y": cell_y - 3,
                                      "font-size": 11, "text-anchor": "middle"}, table.run_ids[r]))
            lo, hi = bounds[r], bounds[r + 1]
            px, py = [sx(x) for x in xs[lo:hi]], [sy(y) for y in ys[lo:hi]]
            for p, c in zip(parent[edge_bounds[r]:edge_bounds[r + 1]],
                            child[edge_bounds[r]:edge_bounds[r + 1]]):
                parts.append(_el("line", {"class": "edge", "x1": px[p - lo], "y1": py[p - lo],
                                          "x2": px[c - lo], "y2": py[c - lo],
                                          "stroke": "#888888", "stroke-width": "0.8"}))
            for x, y, radius, empty in zip(px, py, radii[lo:hi], hollow[lo:hi]):
                parts.append(_el("circle", {
                    "class": "node", "cx": x, "cy": y, "r": radius,
                    "fill": "none" if empty else color, "stroke": color,
                    "stroke-width": "1.0", "fill-opacity": "0.75"}))
    parts.append(_el("text", {"class": "axis-label", "x": 14, "y": margin_top - 8,
                              "font-size": 12}, y_label))
    return _svg(width, height, parts)


def render_tsne(table, coords) -> str:
    """Scatter of every node of a CegTable at coords, one (x, y) row per
    node in graph order. Color encodes the (method, llm) pair, marker
    shape cycles per run, marker size grows with normalized fitness; a
    NaN fitness renders hollow at minimum size."""
    coords = _per_node(table, coords, (2,), "(x, y) row")
    pairs = sorted({key[1:] for key in table.group_keys})
    color_of = {p: PALETTE[i % len(PALETTE)] for i, p in enumerate(pairs)}
    run_ids = sorted(table.run_ids)
    shape_of = {r: MARKER_SHAPES[i % len(MARKER_SHAPES)] for i, r in enumerate(run_ids)}

    plot_w, plot_h = 460.0, 420.0
    margin, legend_w = 30.0, 190.0
    width = margin * 2 + plot_w + legend_w
    height = margin * 2 + plot_h

    sx = _Scale(float(coords[:, 0].min()), float(coords[:, 0].max()), margin, margin + plot_w)
    sy = _Scale(float(coords[:, 1].min()), float(coords[:, 1].max()), margin + plot_h, margin)

    r_min, r_max = 3.0, 9.0
    parts = [_el("rect", {"class": "plot-frame", "x": margin, "y": margin, "width": plot_w,
                          "height": plot_h, "fill": "none", "stroke": "#999999"})]
    xy = coords.tolist()
    fitness, bounds = table.fitness_norm.tolist(), table.run_bounds.tolist()
    for r, (run_id, key) in enumerate(zip(table.run_ids, table.group_keys)):
        for i in range(bounds[r], bounds[r + 1]):
            if fitness[i] != fitness[i]:
                radius, hollow = r_min, True
            else:
                t = min(max(fitness[i], 0.0), 1.0)
                radius, hollow = r_min + t * (r_max - r_min), False
            x, y = xy[i]
            parts.append(_marker(shape_of[run_id], sx(x), sy(y), radius, color_of[key[1:]], hollow))

    lx = margin + plot_w + 20.0
    ly = margin + 10.0
    for legend in (
        [("circle", color_of[p], "/".join(s for s in p if s) or "(unlabeled)") for p in pairs],
        [(shape_of[r], "#555555", f"run {r}") for r in run_ids],
    ):
        for shape, color, label in legend:
            parts.append(_marker(shape, lx + 6, ly, 5.0, color, False))
            parts.append(_el("text", {"class": "legend", "x": lx + 18, "y": ly + 4,
                                      "font-size": 11}, label))
            ly += 18.0
        ly += 8.0
    return _svg(width, height, parts)


def _diverging(v: float) -> str:
    """Blue (-1) through near-white (0) to red (+1), linear in RGB."""
    v = min(max(v, -1.0), 1.0)
    neg, mid, pos = (33, 102, 172), (247, 247, 247), (178, 24, 43)
    if v < 0:
        a, b, t = mid, neg, -v
    else:
        a, b, t = mid, pos, v
    rgb = tuple(round(a[i] + t * (b[i] - a[i])) for i in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_heatmap(table) -> str:
    """Correlation heatmap of an embed.CorrelationTable: one row per
    group, one column per feature, diverging color scale over [-1, 1],
    cells labeled to 2 decimals. Cells without a defined correlation stay
    gray and unlabeled."""
    if not table.groups:
        raise ValueError("empty correlation table")
    cell_w, cell_h = 52.0, 26.0
    label_w = 10.0 + 6.6 * max(len("/".join(g)) for g in table.groups)
    header_h = 12.0 + 5.4 * max(len(n) for n in table.feature_names)
    scale_h = 46.0
    width = label_w + cell_w * len(table.feature_names) + 20.0
    height = header_h + cell_h * len(table.groups) + scale_h + 16.0

    parts = []
    for j, name in enumerate(table.feature_names):
        x, y = label_w + j * cell_w + cell_w / 2, header_h - 6
        parts.append(_el("text", {"class": "col-label", "x": x, "y": y, "font-size": 10,
                                  "text-anchor": "start",
                                  "transform": f"rotate(-55 {_f(x)} {_f(y)})"}, name))
    for i, key in enumerate(table.groups):
        y = header_h + i * cell_h
        parts.append(_el("text", {"class": "row-label", "x": label_w - 8, "y": y + cell_h / 2 + 4,
                                  "font-size": 11, "text-anchor": "end"}, "/".join(key)))
        for j, v in enumerate(table.values[i]):
            x = label_w + j * cell_w
            parts.append(_el("rect", {"class": "cell cell-missing" if v is None else "cell",
                                      "x": x, "y": y, "width": cell_w, "height": cell_h,
                                      "fill": "#e0e0e0" if v is None else _diverging(v),
                                      "stroke": "#ffffff"}))
            if v is not None:
                parts.append(_el("text", {
                    "class": "cell-label", "x": x + cell_w / 2, "y": y + cell_h / 2 + 3.5,
                    "font-size": 9, "text-anchor": "middle",
                    "fill": "#ffffff" if abs(v) > 0.62 else "#1a1a1a"}, f"{v:.2f}"))
    # color scale bar with end and midpoint labels
    bar_y = header_h + cell_h * len(table.groups) + 14.0
    bar_x, bar_w, bar_h = label_w, 160.0, 10.0
    steps = 32
    for s in range(steps):
        parts.append(_el("rect", {"class": "scale", "x": bar_x + s * bar_w / steps, "y": bar_y,
                                  "width": bar_w / steps + 0.5, "height": bar_h,
                                  "fill": _diverging(-1.0 + 2.0 * s / (steps - 1))}))
    for t, lab in ((0.0, "-1"), (0.5, "0"), (1.0, "+1")):
        parts.append(_el("text", {"class": "scale-label", "x": bar_x + t * bar_w,
                                  "y": bar_y + bar_h + 12, "font-size": 10,
                                  "text-anchor": "middle"}, lab))
    return _svg(width, height, parts)
