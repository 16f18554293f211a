"""SVG rendering: element counts, encodings, determinism."""

import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cegraph.ceg import build_ceg
from cegraph.cli import main
from cegraph.embed import CorrelationTable, correlation_table, tsne
from cegraph.features import ALL_FEATURE_NAMES, featurize_dataset
from cegraph.ingest import CodeSample, Dataset, load_jsonl, validate
from cegraph.report import BASE_RADIUS, render_ceg, render_heatmap, render_tsne
import oracles
from synth import write_synthetic_log
from test_ceg import parent_and_child, scored_dataset


def make_ceg(tmp_path, objs, **ceg_kwargs):
    path = tmp_path / "log.jsonl"
    path.write_text(
        "\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8"
    )
    ds, _ = validate(load_jsonl(path))
    table, failures = featurize_dataset(ds)
    assert not failures
    return build_ceg(ds, table, **ceg_kwargs)


def chain_objs(n, run_id="chain", **common):
    objs = []
    for i in range(n):
        obj = {
            "id": f"{run_id}-{i}",
            "run_id": run_id,
            "evaluation_index": i,
            "code": f"x = {i}\n" + "y = x + 1\n" * (i + 1),
            "fitness_raw": 0.1 * (i + 1),
        }
        if i > 0:
            obj["parent_ids"] = [f"{run_id}-{i - 1}"]
        obj.update(common)
        objs.append(obj)
    return objs


def elements(svg, cls):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.get("class") == cls]


def tag(el):
    return el.tag.rsplit("}", 1)[-1]


def draw_ceg(ceg, y_axis="token_total"):
    """The lineage figure with a raw feature on the y axis."""
    return render_ceg(ceg, ceg.features_raw[:, ceg.feature_names.index(y_axis)], y_axis)


@pytest.fixture(scope="module")
def synth_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "run.jsonl"
    write_synthetic_log(path)
    return path


@pytest.fixture(scope="module")
def synth_ceg(synth_log):
    ds, _ = validate(load_jsonl(synth_log))
    table, failures = featurize_dataset(ds)
    assert not failures
    return build_ceg(ds, table)


# ------------------------------------------------------------- render_ceg


def test_ceg_chain_has_five_glyphs_four_edges(tmp_path):
    svg = draw_ceg(make_ceg(tmp_path, chain_objs(5)))
    assert len(elements(svg, "node")) == 5
    assert len(elements(svg, "edge")) == 4


def test_ceg_parentless_run_has_no_edges(tmp_path):
    objs = chain_objs(6)
    for o in objs:
        o.pop("parent_ids", None)
    svg = draw_ceg(make_ceg(tmp_path, objs))
    assert len(elements(svg, "node")) == 6
    assert len(elements(svg, "edge")) == 0


def test_ceg_radius_is_base_times_one_plus_parent_frequency(tmp_path):
    # star: one node parents 3 children
    objs = [
        {"id": "p", "run_id": "r", "evaluation_index": 0,
         "code": "x = 1\n", "fitness_raw": 0.5},
    ]
    for i in range(3):
        objs.append(
            {"id": f"c{i}", "run_id": "r", "evaluation_index": i + 1,
             "code": f"x = {i}\ny = 2\n", "fitness_raw": 0.6,
             "parent_ids": ["p"]}
        )
    svg = draw_ceg(make_ceg(tmp_path, objs))
    radii = sorted(float(c.get("r")) for c in elements(svg, "node"))
    assert radii == [BASE_RADIUS, BASE_RADIUS, BASE_RADIUS, 4.0 * BASE_RADIUS]


def test_ceg_radius_counts_the_children_on_the_edges():
    # a hand-built table: the parent's one edge makes its radius 2 * BASE_RADIUS
    nodes = elements(render_ceg(parent_and_child(), [0.0, 1.0], "f"), "node")
    assert [float(node.get("r")) for node in nodes] == [2.0 * BASE_RADIUS, BASE_RADIUS]


def test_ceg_pc1_annotation_fraction(synth_log, tmp_path, capsys):
    # the CLI computes PC1 and hands its explained variance to render_ceg
    assert main(["ceg", "--input", str(synth_log), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    svg = (tmp_path / "ceg_pc1.svg").read_text(encoding="utf-8")
    (annotation,) = elements(svg, "annotation")
    m = re.fullmatch(r"PC1 \((\d\.\d\d)\)", annotation.text)
    assert m, annotation.text
    frac = float(m.group(1))
    assert 0.0 < frac <= 1.0


def test_ceg_feature_y_axis_orders_nodes_by_raw_value(tmp_path):
    svg = draw_ceg(make_ceg(tmp_path, chain_objs(4)), "token_total")
    assert elements(svg, "annotation") == []
    circles = elements(svg, "node")
    # document order follows node order; token_total grows with i, and
    # larger y-values sit higher on the canvas (smaller cy)
    cys = [float(c.get("cy")) for c in circles]
    assert cys == sorted(cys, reverse=True)


def test_ceg_missing_fitness_rendered_hollow(synth_ceg):
    svg = draw_ceg(synth_ceg)
    hollow = [c for c in elements(svg, "node") if c.get("fill") == "none"]
    assert len(hollow) == 1


def test_ceg_one_row_label_per_group_one_col_label_per_run(synth_ceg):
    svg = draw_ceg(synth_ceg)
    labels = [t.text for t in elements(svg, "row-label")]
    assert labels == ["/".join(key) for key in sorted(set(synth_ceg.group_keys))]
    assert len(labels) == 3
    assert len(elements(svg, "col-label")) == 3


def test_ceg_byte_deterministic(synth_ceg):
    a = draw_ceg(synth_ceg)
    b = draw_ceg(synth_ceg)
    assert a == b


def test_ceg_errors(tmp_path, synth_ceg):
    with pytest.raises(ValueError, match="empty node set"):
        render_ceg(oracles.ceg_table(("y",), []), [], "y")
    with pytest.raises(ValueError, match="one y value per node"):
        render_ceg(synth_ceg, [0.0, 1.0], "y")


def test_ceg_svg_well_formed(synth_ceg):
    root = ET.fromstring(draw_ceg(synth_ceg))
    assert tag(root) == "svg"
    # three groups of one run each: one column of cells, three rows
    assert root.get("width") == f"{150 + 240 + 20:.2f}"
    assert root.get("height") == f"{50 + 3 * 170 + 2 * 14 + 45:.2f}"
    assert root.get("viewBox") == f"0 0 {root.get('width')} {root.get('height')}"


# ------------------------------------------------------------ render_tsne


def two_method_objs():
    objs = []
    for run, method in (("ra", "m1"), ("rb", "m2")):
        for i in range(5):
            objs.append(
                {
                    "id": f"{run}-{i}",
                    "run_id": run,
                    "method": method,
                    "llm": "llm-x",
                    "benchmark": "bench",
                    "evaluation_index": i,
                    "code": f"a = {i}\n" + f"b = a * {i}\n" * (i + 1),
                    "fitness_raw": 0.2 + 0.1 * i,
                }
            )
    return objs


def tsne_coords(ceg, perplexity=2.5, seed=0):
    return tsne(ceg.features_std, perplexity=perplexity, seed=seed, iterations=260).coords


def test_tsne_two_methods_two_runs_two_colors_two_shapes(tmp_path):
    ceg = make_ceg(tmp_path, two_method_objs())
    svg = render_tsne(ceg, tsne_coords(ceg))
    points = elements(svg, "point")
    # 10 data markers, 2 pair swatches, 2 run swatches
    assert len(points) == 14
    strokes = {p.get("stroke") for p in points}
    data_colors = strokes - {"#555555"}
    assert len(data_colors) == 2
    shapes = {tag(p) for p in points[:10]}
    assert shapes == {"circle", "rect"}
    legend = [t.text for t in elements(svg, "legend")]
    assert legend == ["m1/llm-x", "m2/llm-x", "run ra", "run rb"]


def test_tsne_equal_fitness_equal_sizes(tmp_path):
    objs = two_method_objs()
    for o in objs:
        o["fitness_raw"] = 0.7
    ceg = make_ceg(tmp_path, objs)
    svg = render_tsne(ceg, tsne_coords(ceg))
    points = elements(svg, "point")[:10]
    radii = {
        float(p.get("r")) if tag(p) == "circle" else float(p.get("width")) / 2
        for p in points
    }
    assert len(radii) == 1
    # all-equal fitness normalizes to 1.0, the maximum size
    assert radii == {9.0}


def test_tsne_missing_fitness_hollow_minimum_size(tmp_path):
    objs = chain_objs(6, run_id="solo")
    objs[2]["fitness_raw"] = None
    ceg = make_ceg(tmp_path, objs)
    svg = render_tsne(ceg, tsne_coords(ceg, perplexity=1.5))
    data = elements(svg, "point")[:6]
    hollow = [p for p in data if p.get("fill") == "none"]
    assert len(hollow) == 1
    assert float(hollow[0].get("r")) == 3.0


@pytest.mark.parametrize("scores, hollow_at, tsne_radii", [
    ([np.nan, 1.0, 2.0, 3.0], 0, ["3.00", "3.00", "6.00", "9.00"]),
    ([1.0, 2.0, 3.0, np.inf], 3, ["3.00", "6.00", "9.00", "3.00"]),
])
def test_non_finite_score_renders_hollow(scores, hollow_at, tsne_radii):
    # a hand-built dataset keeps the score ingest would read as null
    ceg = build_ceg(*scored_dataset(scores))
    nodes = elements(render_ceg(ceg, np.arange(4.0), "f"), "node")
    assert [node.get("fill") == "none" for node in nodes] == [i == hollow_at for i in range(4)]
    points = elements(render_tsne(ceg, np.arange(8.0).reshape(4, 2)), "point")[:4]
    assert [p.get("fill") == "none" for p in points] == [i == hollow_at for i in range(4)]
    assert [p.get("r") for p in points] == tsne_radii


def test_tsne_fixed_seed_identical_bytes(tmp_path):
    ceg = make_ceg(tmp_path, two_method_objs())
    a = render_tsne(ceg, tsne_coords(ceg, seed=4))
    b = render_tsne(ceg, tsne_coords(ceg, seed=4))
    assert a == b


def test_tsne_errors(tmp_path):
    with pytest.raises(ValueError, match="empty node set"):
        render_tsne(oracles.ceg_table(("y",), []), np.zeros((0, 2)))
    ceg = make_ceg(tmp_path, chain_objs(3))
    with pytest.raises(ValueError, match="one \\(x, y\\) row per node"):
        render_tsne(ceg, np.zeros((2, 2)))


# --------------------------------------------------------- render_heatmap


def small_table():
    return CorrelationTable(
        groups=(("b", "m", "l"), ("b2", "m2", "l2")),
        feature_names=("f1", "f2", "f3"),
        values=((1.0, -1.0, 0.0), (0.25, None, -0.62)),
    )


def test_heatmap_cell_and_label_counts():
    svg = render_heatmap(small_table())
    cells = elements(svg, "cell")
    missing = elements(svg, "cell cell-missing")
    labels = elements(svg, "cell-label")
    assert len(cells) + len(missing) == 6
    assert len(missing) == 1
    assert len(labels) == 5  # one blank cell stays unlabeled


def test_heatmap_extreme_and_neutral_colors():
    svg = render_heatmap(small_table())
    cells = elements(svg, "cell")
    labels = elements(svg, "cell-label")
    by_text = {lab.text: i for i, lab in enumerate(labels)}
    assert {"1.00", "-1.00", "0.00", "0.25", "-0.62"} == set(by_text)
    fills = [c.get("fill") for c in cells]
    assert fills[0] == "#b2182b"  # rho 1.0, darkest positive
    assert fills[1] == "#2166ac"  # rho -1.0, darkest negative
    assert fills[2] == "#f7f7f7"  # rho 0, neutral midpoint


def test_heatmap_missing_cell_is_gray_and_unlabeled():
    svg = render_heatmap(small_table())
    (missing,) = elements(svg, "cell cell-missing")
    assert missing.get("fill") == "#e0e0e0"
    # no label text sits inside the missing cell's horizontal span
    x0 = float(missing.get("x"))
    x1 = x0 + float(missing.get("width"))
    y0 = float(missing.get("y"))
    y1 = y0 + float(missing.get("height"))
    for lab in elements(svg, "cell-label"):
        lx, ly = float(lab.get("x")), float(lab.get("y"))
        assert not (x0 <= lx <= x1 and y0 <= ly <= y1)


def test_heatmap_one_row_28_columns():
    values = tuple((i % 21 - 10) / 10.0 for i in range(28))
    table = CorrelationTable(
        groups=(("b", "m", "l"),),
        feature_names=ALL_FEATURE_NAMES,
        values=(values,),
    )
    svg = render_heatmap(table)
    assert len(elements(svg, "cell")) == 28
    assert len(elements(svg, "col-label")) == 28


def test_heatmap_scale_bar():
    svg = render_heatmap(small_table())
    assert len(elements(svg, "scale")) == 32
    texts = [t.text for t in elements(svg, "scale-label")]
    assert texts == ["-1", "0", "+1"]


def test_heatmap_determinism_and_wellformed(synth_ceg):
    table = correlation_table(synth_ceg)
    a = render_heatmap(table)
    b = render_heatmap(table)
    assert a == b
    root = ET.fromstring(a)
    assert tag(root) == "svg"


def test_heatmap_empty_table_error():
    empty = CorrelationTable(groups=(), feature_names=("f",), values=())
    with pytest.raises(ValueError):
        render_heatmap(empty)


def test_coordinates_have_two_decimals(synth_ceg):
    svg = draw_ceg(synth_ceg)
    for c in elements(svg, "node"):
        for attr in ("cx", "cy", "r"):
            assert re.fullmatch(r"-?\d+\.\d\d", c.get(attr))
    assert "-0.00" not in svg


# ------------------------------------------------------------------ labels

# the characters XML 1.0 cannot carry, which label text renders as U+FFFD
NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def xml_safe(text):
    return NOT_XML.sub("\ufffd", text)


def texts(svg, cls):
    return [el.text or "" for el in elements(svg, cls)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6), st.text(max_size=6),
                          st.text(max_size=6)), min_size=1, max_size=3, unique_by=lambda t: t[0]))
@example([("r\x01", "b\x1f", "m\r\n", "l\ufffe"), ("<&\"\t>", "", "", "\x00")])
def test_any_labels_render_parseable_svg_that_reads_them_back(runs):
    # one lineage of three samples per (run_id, benchmark, method, llm)
    samples = [
        CodeSample(id=f"{r}-{i}", name="", run_id=run_id, method=method, llm=llm,
                   benchmark=benchmark, evaluation_index=i,
                   parent_ids=(f"{r}-{i - 1}",) if i else (), fitness_raw=float(i),
                   code="x = 1\n" * (i + 1))
        for r, (run_id, benchmark, method, llm) in enumerate(runs)
        for i in range(3)
    ]
    ds, _ = validate(Dataset(tuple(samples)))
    ceg = build_ceg(ds, featurize_dataset(ds)[0])
    keys = sorted(set(ceg.group_keys))

    svg = draw_ceg(ceg)
    assert texts(svg, "row-label") == [xml_safe("/".join(k)) for k in keys]
    assert texts(svg, "col-label") == [xml_safe(run_id) for run_id in ceg.run_ids]

    n = len(ceg.ids)
    svg = render_tsne(ceg, np.arange(2.0 * n).reshape(n, 2))
    pairs = sorted({k[1:] for k in keys})
    assert texts(svg, "legend") == [
        xml_safe("/".join(p for p in pair if p) or "(unlabeled)") for pair in pairs
    ] + [xml_safe(f"run {r}") for r in sorted(ceg.run_ids)]

    table = correlation_table(ceg)
    assert texts(render_heatmap(table), "row-label") == [xml_safe("/".join(k)) for k in keys]
