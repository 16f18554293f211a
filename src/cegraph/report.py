"""Deterministic SVG figure rendering.

Three figure kinds: lineage grids (one cell per run, rows grouped by
benchmark/method/llm, x = evaluation index, y = a PC1 score or a raw
feature), t-SNE scatter of all samples (color = method/llm, marker shape
cycles per run, size tracks normalized fitness), and a correlation
heatmap with a diverging color scale. Renderers only draw: the caller
computes the projections and passes one y value or one (x, y) row per
node, in graph order.

Each renderer returns the SVG document as a string, assembled with fixed
2-decimal coordinates, so a given input always renders byte-identically.
Elements carry class attributes (node, edge, point, cell, ...) so tests
can count them.
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


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _f(v: float) -> str:
    out = f"{float(v):.2f}"
    return "0.00" if out == "-0.00" else out


def _svg_open(width: float, height: float) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}" '
        f'font-family="Helvetica, Arial, sans-serif">\n'
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>\n'
    )


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


def _marker(shape: str, x: float, y: float, r: float, color: str, hollow: bool) -> str:
    fill = "none" if hollow else color
    stroke = color
    style = f'fill="{fill}" stroke="{stroke}" stroke-width="1.2"'
    if shape == "circle":
        return f'<circle class="point" cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" {style}/>'
    if shape == "square":
        return (
            f'<rect class="point" x="{_f(x - r)}" y="{_f(y - r)}" '
            f'width="{_f(2 * r)}" height="{_f(2 * r)}" {style}/>'
        )
    if shape == "triangle":
        pts = f"{_f(x)},{_f(y - r)} {_f(x - 0.866 * r)},{_f(y + 0.5 * r)} {_f(x + 0.866 * r)},{_f(y + 0.5 * r)}"
        return f'<polygon class="point" points="{pts}" {style}/>'
    if shape == "diamond":
        pts = f"{_f(x)},{_f(y - r)} {_f(x + r)},{_f(y)} {_f(x)},{_f(y + r)} {_f(x - r)},{_f(y)}"
        return f'<polygon class="point" points="{pts}" {style}/>'
    # cross
    k = 0.35 * r
    pts = (
        f"{_f(x - k)},{_f(y - r)} {_f(x + k)},{_f(y - r)} {_f(x + k)},{_f(y - k)} "
        f"{_f(x + r)},{_f(y - k)} {_f(x + r)},{_f(y + k)} {_f(x + k)},{_f(y + k)} "
        f"{_f(x + k)},{_f(y + r)} {_f(x - k)},{_f(y + r)} {_f(x - k)},{_f(y + k)} "
        f"{_f(x - r)},{_f(y + k)} {_f(x - r)},{_f(y - k)} {_f(x - k)},{_f(y - k)}"
    )
    return f'<polygon class="point" points="{pts}" {style}/>'


def render_ceg(graphs, y_values, y_label: str, annotation: str = "") -> str:
    """Grid of lineage plots: rows are (benchmark, method, llm) groups,
    columns are runs, x is evaluation index and y is y_values, one value
    per node in graph order, labeled y_label. A non-empty annotation (such
    as the explained variance of PC1) is printed above the grid. Marker
    area tracks parent frequency; samples without fitness are drawn
    hollow."""
    all_nodes = [n for g in graphs for n in g.nodes]
    if not all_nodes:
        raise ValueError("empty node set")
    y_values = np.asarray(y_values, dtype=float)
    if y_values.shape != (len(all_nodes),):
        raise ValueError(f"need one y value per node, got shape {y_values.shape}")

    keys = [(g.run_id, n.sample_id) for g in graphs for n in g.nodes]
    y_of = dict(zip(keys, y_values.tolist()))

    row_keys = sorted({g.group_key for g in graphs})
    cols_per_row = {
        key: sorted(g.run_id for g in graphs if g.group_key == key)
        for key in row_keys
    }
    ncols = max(len(v) for v in cols_per_row.values())
    graph_at = {(g.group_key, g.run_id): g for g in graphs}

    margin_left, margin_top = 150.0, 50.0
    margin_right, margin_bottom = 20.0, 45.0
    gap = 14.0
    cw, ch = CELL_WIDTH, CELL_HEIGHT
    width = margin_left + ncols * cw + (ncols - 1) * gap + margin_right
    height = margin_top + len(row_keys) * ch + (len(row_keys) - 1) * gap + margin_bottom

    xs = [n.evaluation_index for n in all_nodes]
    x_lo, x_hi = float(min(xs)), float(max(xs))
    y_lo, y_hi = float(np.min(y_values)), float(np.max(y_values))

    parts = [_svg_open(width, height)]
    if annotation:
        parts.append(
            f'<text class="annotation" x="{_f(margin_left)}" y="20" font-size="13">'
            f"{_esc(annotation)}</text>\n"
        )
    parts.append(
        f'<text class="axis-label" x="{_f(width / 2)}" y="{_f(height - 10)}" '
        f'font-size="12" text-anchor="middle">evaluation index</text>\n'
    )

    for row, key in enumerate(row_keys):
        color = PALETTE[row % len(PALETTE)]
        label = "/".join(key)
        cell_y = margin_top + row * (ch + gap)
        parts.append(
            f'<text class="row-label" x="{_f(margin_left - 10)}" '
            f'y="{_f(cell_y + ch / 2)}" font-size="11" text-anchor="end" '
            f'fill="{color}">{_esc(label)}</text>\n'
        )
        for col, run_id in enumerate(cols_per_row[key]):
            g = graph_at[(key, run_id)]
            cell_x = margin_left + col * (cw + gap)
            pad = 10.0
            sx = _Scale(x_lo, x_hi, cell_x + pad, cell_x + cw - pad)
            sy = _Scale(y_lo, y_hi, cell_y + ch - pad, cell_y + pad)
            parts.append(
                f'<rect class="cell-frame" x="{_f(cell_x)}" y="{_f(cell_y)}" '
                f'width="{_f(cw)}" height="{_f(ch)}" fill="none" stroke="#999999"/>\n'
            )
            parts.append(
                f'<text class="col-label" x="{_f(cell_x + cw / 2)}" '
                f'y="{_f(cell_y - 3)}" font-size="11" text-anchor="middle">'
                f"{_esc(run_id)}</text>\n"
            )
            node_pos = {
                n.sample_id: (
                    sx(n.evaluation_index),
                    sy(y_of[(run_id, n.sample_id)]),
                )
                for n in g.nodes
            }
            for pid, cid in g.edges:
                x1, y1 = node_pos[pid]
                x2, y2 = node_pos[cid]
                parts.append(
                    f'<line class="edge" x1="{_f(x1)}" y1="{_f(y1)}" '
                    f'x2="{_f(x2)}" y2="{_f(y2)}" stroke="#888888" '
                    f'stroke-width="0.8"/>\n'
                )
            for n in g.nodes:
                x, y = node_pos[n.sample_id]
                r = BASE_RADIUS * (1.0 + n.parent_frequency)
                hollow = n.fitness_norm is None
                fill = "none" if hollow else color
                parts.append(
                    f'<circle class="node" cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" '
                    f'fill="{fill}" stroke="{color}" stroke-width="1.0" '
                    f'fill-opacity="0.75"/>\n'
                )
    parts.append(
        f'<text class="axis-label" x="14" y="{_f(margin_top - 8)}" '
        f'font-size="12">{_esc(y_label)}</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def render_tsne(graphs, coords) -> str:
    """Scatter of every node across all runs at coords, one (x, y) row
    per node in graph order. Color encodes the (method, llm) pair, marker
    shape cycles per run, marker size grows with normalized fitness;
    missing fitness renders hollow at minimum size."""
    all_nodes = [(g, n) for g in graphs for n in g.nodes]
    if not all_nodes:
        raise ValueError("empty node set")
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (len(all_nodes), 2):
        raise ValueError(f"need one (x, y) row per node, got shape {coords.shape}")

    pairs = sorted({(g.group_key[1], g.group_key[2]) for g, _ in all_nodes})
    color_of = {p: PALETTE[i % len(PALETTE)] for i, p in enumerate(pairs)}
    run_ids = sorted({g.run_id for g, _ in all_nodes})
    shape_of = {r: MARKER_SHAPES[i % len(MARKER_SHAPES)] for i, r in enumerate(run_ids)}

    plot_w, plot_h = 460.0, 420.0
    margin, legend_w = 30.0, 190.0
    width = margin * 2 + plot_w + legend_w
    height = margin * 2 + plot_h

    sx = _Scale(float(coords[:, 0].min()), float(coords[:, 0].max()), margin, margin + plot_w)
    sy = _Scale(float(coords[:, 1].min()), float(coords[:, 1].max()), margin + plot_h, margin)

    r_min, r_max = 3.0, 9.0
    parts = [_svg_open(width, height)]
    parts.append(
        f'<rect class="plot-frame" x="{_f(margin)}" y="{_f(margin)}" '
        f'width="{_f(plot_w)}" height="{_f(plot_h)}" fill="none" stroke="#999999"/>\n'
    )
    for i, (g, n) in enumerate(all_nodes):
        x, y = sx(float(coords[i, 0])), sy(float(coords[i, 1]))
        pair = (g.group_key[1], g.group_key[2])
        if n.fitness_norm is None:
            r, hollow = r_min, True
        else:
            t = min(max(float(n.fitness_norm), 0.0), 1.0)
            r, hollow = r_min + t * (r_max - r_min), False
        parts.append(
            _marker(shape_of[g.run_id], x, y, r, color_of[pair], hollow) + "\n"
        )

    lx = margin + plot_w + 20.0
    ly = margin + 10.0
    for pair in pairs:
        label = "/".join(p for p in pair if p) or "(unlabeled)"
        parts.append(
            _marker("circle", lx + 6, ly, 5.0, color_of[pair], False) + "\n"
        )
        parts.append(
            f'<text class="legend" x="{_f(lx + 18)}" y="{_f(ly + 4)}" '
            f'font-size="11">{_esc(label)}</text>\n'
        )
        ly += 18.0
    ly += 8.0
    for run_id in run_ids:
        parts.append(_marker(shape_of[run_id], lx + 6, ly, 5.0, "#555555", False) + "\n")
        parts.append(
            f'<text class="legend" x="{_f(lx + 18)}" y="{_f(ly + 4)}" '
            f'font-size="11">run {_esc(run_id)}</text>\n'
        )
        ly += 18.0
    parts.append("</svg>\n")
    return "".join(parts)


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

    parts = [_svg_open(width, height)]
    for j, name in enumerate(table.feature_names):
        x = label_w + j * cell_w + cell_w / 2
        parts.append(
            f'<text class="col-label" x="{_f(x)}" y="{_f(header_h - 6)}" '
            f'font-size="10" text-anchor="start" '
            f'transform="rotate(-55 {_f(x)} {_f(header_h - 6)})">{_esc(name)}</text>\n'
        )
    for i, key in enumerate(table.groups):
        y = header_h + i * cell_h
        parts.append(
            f'<text class="row-label" x="{_f(label_w - 8)}" y="{_f(y + cell_h / 2 + 4)}" '
            f'font-size="11" text-anchor="end">{_esc("/".join(key))}</text>\n'
        )
        for j, _ in enumerate(table.feature_names):
            v = table.values[i][j]
            x = label_w + j * cell_w
            if v is None:
                parts.append(
                    f'<rect class="cell cell-missing" x="{_f(x)}" y="{_f(y)}" '
                    f'width="{_f(cell_w)}" height="{_f(cell_h)}" fill="#e0e0e0" '
                    f'stroke="#ffffff"/>\n'
                )
                continue
            fill = _diverging(v)
            text_color = "#ffffff" if abs(v) > 0.62 else "#1a1a1a"
            parts.append(
                f'<rect class="cell" x="{_f(x)}" y="{_f(y)}" width="{_f(cell_w)}" '
                f'height="{_f(cell_h)}" fill="{fill}" stroke="#ffffff"/>\n'
            )
            parts.append(
                f'<text class="cell-label" x="{_f(x + cell_w / 2)}" '
                f'y="{_f(y + cell_h / 2 + 3.5)}" font-size="9" text-anchor="middle" '
                f'fill="{text_color}">{v:.2f}</text>\n'
            )
    # color scale bar with end and midpoint labels
    bar_y = header_h + cell_h * len(table.groups) + 14.0
    bar_x, bar_w, bar_h = label_w, 160.0, 10.0
    steps = 32
    for s in range(steps):
        v = -1.0 + 2.0 * s / (steps - 1)
        parts.append(
            f'<rect class="scale" x="{_f(bar_x + s * bar_w / steps)}" y="{_f(bar_y)}" '
            f'width="{_f(bar_w / steps + 0.5)}" height="{_f(bar_h)}" '
            f'fill="{_diverging(v)}"/>\n'
        )
    for t, lab in ((0.0, "-1"), (0.5, "0"), (1.0, "+1")):
        parts.append(
            f'<text class="scale-label" x="{_f(bar_x + t * bar_w)}" '
            f'y="{_f(bar_y + bar_h + 12)}" font-size="10" text-anchor="middle">'
            f"{lab}</text>\n"
        )
    parts.append("</svg>\n")
    return "".join(parts)
