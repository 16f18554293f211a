"""Evolution graph assembly: normalization, standardization, lineage."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cegraph.ceg import build_ceg, graphs_to_json
from cegraph.features import FeatureTable, featurize_dataset
from cegraph.ingest import CodeSample, Dataset, load_jsonl, validate
from synth import write_synthetic_log


def make_dataset(tmp_path, objs):
    path = tmp_path / "log.jsonl"
    path.write_text(
        "\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8"
    )
    ds, _ = validate(load_jsonl(path))
    return ds


def simple_objs(fitnesses, run_id="r", chain=False, **common):
    objs = []
    for i, f in enumerate(fitnesses):
        obj = {
            "id": f"{run_id}-s{i}",
            "run_id": run_id,
            "evaluation_index": i,
            "code": f"x = {i}\ny = x * {i + 1}\n" + "z = 0\n" * i,
            "fitness_raw": f,
        }
        if chain and i > 0:
            obj["parent_ids"] = [f"{run_id}-s{i - 1}"]
        obj.update(common)
        objs.append(obj)
    return objs


def norms(ceg):
    """fitness_norm per node, None where it is missing (NaN)."""
    return [None if f != f else f for f in ceg.fitness_norm.tolist()]


def edges_of(ceg):
    """The edges as (parent id, child id) pairs."""
    return [(ceg.ids[p], ceg.ids[c]) for p, c in zip(ceg.parent.tolist(), ceg.child.tolist())]


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "run.jsonl"
    write_synthetic_log(path)
    ds, _ = validate(load_jsonl(path))
    table, failures = featurize_dataset(ds)
    assert not failures
    return ds, table


def test_one_graph_per_run_with_expected_counts(synthetic):
    ds, table = synthetic
    ceg = build_ceg(ds, table)
    # runs sorted by (group_key, run_id)
    assert ceg.run_ids == ("pop-01", "chain-01", "rs-01")
    assert np.diff(ceg.run_bounds).tolist() == [44, 12, 10]
    assert np.diff(ceg.edge_bounds()).tolist() == [40, 11, 0]


def test_edges_match_validated_parent_ids(synthetic):
    ds, table = synthetic
    ceg = build_ceg(ds, table)
    edges, bounds = edges_of(ceg), ceg.edge_bounds()
    for r, run_id in enumerate(ceg.run_ids):
        expected = [
            (pid, s.id)
            for s in ds.samples
            if s.run_id == run_id
            for pid in s.parent_ids
        ]
        assert sorted(edges[bounds[r]:bounds[r + 1]]) == sorted(expected)


def test_parent_frequency_is_out_degree(synthetic):
    ds, table = synthetic
    ceg = build_ceg(ds, table)
    out = {sample_id: 0 for sample_id in ceg.ids}
    for p, _ in edges_of(ceg):
        out[p] += 1
    assert ceg.parent_frequency().tolist() == [out[sample_id] for sample_id in ceg.ids]


def test_minmax_per_run_example(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([10.0, 30.0, 20.0]))
    table, _ = featurize_dataset(ds)
    ceg = build_ceg(ds, table, norm_scope="run")
    assert norms(ceg) == pytest.approx([0.0, 1.0, 0.5])


def test_direction_minimize_maps_best_to_one(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([10.0, 30.0, 20.0]))
    table, _ = featurize_dataset(ds)
    ceg = build_ceg(ds, table, norm_scope="run", direction="minimize")
    assert norms(ceg) == pytest.approx([1.0, 0.0, 0.5])


def test_all_equal_fitness_maps_to_one(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([7.0, 7.0, 7.0]))
    table, _ = featurize_dataset(ds)
    ceg = build_ceg(ds, table, norm_scope="run")
    assert norms(ceg) == [1.0, 1.0, 1.0]


def test_missing_fitness_preserved(tmp_path):
    objs = simple_objs([1.0, 2.0, 3.0])
    objs[1]["fitness_raw"] = None
    ds = make_dataset(tmp_path, objs)
    table, _ = featurize_dataset(ds)
    got = norms(build_ceg(ds, table, norm_scope="run"))
    assert got[1] is None
    assert got[0] == 0.0 and got[2] == 1.0


def test_group_scope_pools_runs_sharing_benchmark_and_method(tmp_path):
    objs = simple_objs([0.0, 1.0], run_id="r1", benchmark="b", method="m")
    objs += simple_objs([2.0, 4.0], run_id="r2", benchmark="b", method="m")
    ds = make_dataset(tmp_path, objs)
    table, _ = featurize_dataset(ds)
    ceg = build_ceg(ds, table, norm_scope="group")
    got = dict(zip(ceg.ids, norms(ceg)))
    # pooled min 0, max 4
    assert got["r1-s0"] == 0.0
    assert got["r1-s1"] == pytest.approx(0.25)
    assert got["r2-s0"] == pytest.approx(0.5)
    assert got["r2-s1"] == 1.0


def test_global_scope_pools_everything(tmp_path):
    objs = simple_objs([0.0, 1.0], run_id="r1", benchmark="b1", method="m1")
    objs += simple_objs([3.0, 4.0], run_id="r2", benchmark="b2", method="m2")
    ds = make_dataset(tmp_path, objs)
    table, _ = featurize_dataset(ds)
    ceg = build_ceg(ds, table, norm_scope="global")
    got = dict(zip(ceg.ids, norms(ceg)))
    assert got["r1-s0"] == 0.0
    assert got["r2-s1"] == 1.0
    assert got["r1-s1"] == pytest.approx(0.25)


def test_normalize_none_passes_raw_through(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([10.0, 30.0, 20.0]))
    table, _ = featurize_dataset(ds)
    ceg = build_ceg(ds, table, normalize="none")
    assert norms(ceg) == [10.0, 30.0, 20.0]


def test_standardized_columns_have_zero_mean_unit_variance(synthetic):
    ds, table = synthetic
    ceg = build_ceg(ds, table)
    X, raw = ceg.features_std, ceg.features_raw
    for j in range(X.shape[1]):
        if np.var(raw[:, j]) == 0.0:
            assert np.all(X[:, j] == 0.0)
        else:
            assert abs(float(X[:, j].mean())) < 1e-9
            assert abs(float(X[:, j].var()) - 1.0) < 1e-9


def test_constant_column_standardizes_to_zero(tmp_path):
    # identical code every time: every feature column is constant
    objs = [
        {"id": f"s{i}", "run_id": "r", "evaluation_index": i,
         "code": "x = 1\n", "fitness_raw": float(i)}
        for i in range(3)
    ]
    ds = make_dataset(tmp_path, objs)
    table, _ = featurize_dataset(ds)
    ceg = build_ceg(ds, table)
    assert ceg.features_std.shape == (3, len(table.names))
    assert np.all(ceg.features_std == 0.0)


def test_samples_without_features_are_skipped_with_edges(tmp_path):
    objs = simple_objs([1.0, 2.0, 3.0], chain=True)
    objs[1]["code"] = "def broken(:\n"
    ds = make_dataset(tmp_path, objs)
    table, failures = featurize_dataset(ds)
    assert set(failures) == {"r-s1"}
    ceg = build_ceg(ds, table)
    assert ceg.ids == ("r-s0", "r-s2")
    assert len(ceg.parent) == len(ceg.child) == 0  # both edges touched the dropped node


def test_feature_name_mismatch_is_fatal(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([1.0, 2.0]))
    table, _ = featurize_dataset(ds)
    with pytest.raises(ValueError, match="mismatch"):
        FeatureTable(table.ids, ("only_one",), table.values)


@pytest.mark.parametrize("option, message", [
    ({"normalize": "zscore"}, "unknown normalize mode 'zscore'"),
    ({"direction": "up"}, "unknown direction 'up'"),
    ({"norm_scope": "llm"}, "unknown norm_scope 'llm'"),
], ids=["normalize", "direction", "norm-scope"])
def test_unknown_fitness_option_is_refused(tmp_path, option, message):
    ds = make_dataset(tmp_path, simple_objs([1.0, 2.0]))
    table, _ = featurize_dataset(ds)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_ceg(ds, table, **option)


def test_mixed_group_key_within_run_is_fatal(tmp_path):
    objs = simple_objs([1.0], run_id="r", benchmark="b1")
    extra = simple_objs([2.0], run_id="r", benchmark="b2")[0]
    extra["id"] = "other"
    extra["evaluation_index"] = 1
    ds = make_dataset(tmp_path, objs + [extra])
    table, _ = featurize_dataset(ds)
    with pytest.raises(ValueError, match="mixes"):
        build_ceg(ds, table)


def test_empty_feature_table_gives_no_graphs(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([1.0]))
    ceg = build_ceg(ds, FeatureTable((), (), np.empty((0, 0))))
    assert ceg.ids == () and ceg.run_ids == () and len(ceg.parent) == 0
    assert graphs_to_json(ceg) == json.dumps({"graphs": []}, indent=2)


def test_json_export_schema(synthetic):
    ds, table = synthetic
    payload = json.loads(graphs_to_json(build_ceg(ds, table)))
    assert set(payload) == {"graphs"}
    g = payload["graphs"][0]
    assert set(g) == {"group_key", "run_id", "feature_names", "nodes", "edges"}
    node = g["nodes"][0]
    assert set(node) == {
        "sample_id",
        "evaluation_index",
        "fitness_norm",
        "parent_frequency",
        "features_raw",
        "features_std",
    }
    assert len(node["features_raw"]) == len(g["feature_names"])
    assert len(node["features_std"]) == len(g["feature_names"])
    # fitness_norm in [0,1] when present
    for gg in payload["graphs"]:
        for n in gg["nodes"]:
            if n["fitness_norm"] is not None:
                assert 0.0 <= n["fitness_norm"] <= 1.0


def runs_of(ceg, runs):
    """The given runs of ceg as a table built by hand."""
    def run(r):
        lo, hi = int(ceg.run_bounds[r]), int(ceg.run_bounds[r + 1])
        nodes = [(ceg.ids[i], int(ceg.evaluation_index[i]),
                  None if np.isnan(ceg.fitness_norm[i]) else float(ceg.fitness_norm[i]),
                  ceg.features_raw[i], ceg.features_std[i])
                 for i in range(lo, hi)]
        edges = [(p - lo, c - lo) for p, c in zip(ceg.parent.tolist(), ceg.child.tolist())
                 if lo <= c < hi]
        return ceg.group_keys[r], ceg.run_ids[r], nodes, edges

    return oracles.ceg_table(ceg.feature_names, [run(r) for r in runs])


def test_json_export_is_one_dumps_of_every_graph(synthetic):
    # built from the table, with the bytes of one json.dumps of every run
    ds, table = synthetic
    ceg = build_ceg(ds, table)
    assert len(ceg.run_ids) == 3
    for part in (ceg, runs_of(ceg, range(3)), runs_of(ceg, [1]), runs_of(ceg, [])):
        want = json.dumps(oracles.ceg_document(part), indent=2)
        assert graphs_to_json(part) == want
    assert graphs_to_json(runs_of(ceg, range(3))) == graphs_to_json(ceg)


def _run(run_id, ids, fitness, raw, edges=(), k=2):
    raw = np.array(raw, dtype=float).reshape(len(ids), k)
    nodes = [(i, n, f, row, -row) for n, (i, f, row) in enumerate(zip(ids, fitness, raw))]
    return ("b\\", 'm"', "\u00e9"), run_id, nodes, edges


def test_json_export_writes_what_json_dumps_writes():
    # escapes in every string field, missing fitness, a run without edges,
    # non-finite and extreme features, and a table without features
    ids = ['q"uote', "back\\slash", "ctl\x00\x1f\n\t", "\u00fc\u4e2d\U0001f600", "\u2028"]
    runs = [
        _run("no edges", ids[:2], [0.25, None], [[1.0, 2.0], [3.0, 4.0]]),
        _run('run "1"', ids, [None, 0.5, 1.0, None, 1e-300],
             [[math.nan, math.inf], [-math.inf, -0.0], [5e-324, 1.7976931348623157e308],
              [0.1, 1e16], [-1.5, 3.0]],
             edges=[(0, 1), (1, 4)]),
    ]
    for part in (oracles.ceg_table(("a", "b"), runs), oracles.ceg_table(("a", "b"), runs[:1]),
                 oracles.ceg_table((), [_run("no features", ids[:1], [0.0], [], k=0)])):
        want = json.dumps(oracles.ceg_document(part), indent=2)
        assert graphs_to_json(part) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(), st.none() | st.floats(),
                          st.lists(st.floats(), min_size=2, max_size=2)),
                min_size=1, max_size=4),
       st.text())
def test_json_export_of_any_ids_and_floats_is_json_dumps(nodes, run_id):
    ids, fitness, raw = zip(*nodes)
    ceg = oracles.ceg_table(("a", "b"), [_run(run_id, ids, fitness, raw, edges=[(0, len(ids) - 1)])])
    assert graphs_to_json(ceg) == json.dumps(oracles.ceg_document(ceg), indent=2)


def test_rank_order_preserved_under_monotone_fitness_transform(tmp_path):
    fits = [3.0, 1.0, 4.0, 1.5, 9.0]
    objs_a = simple_objs(fits, run_id="ra")
    objs_b = simple_objs([math.exp(f) for f in fits], run_id="rb")
    ds_a = make_dataset(tmp_path, objs_a)
    path_b = tmp_path / "b.jsonl"
    path_b.write_text(
        "\n".join(json.dumps(o) for o in objs_b) + "\n", encoding="utf-8"
    )
    ds_b, _ = validate(load_jsonl(path_b))
    ta, _ = featurize_dataset(ds_a)
    tb, _ = featurize_dataset(ds_b)
    ranks_a = np.argsort(build_ceg(ds_a, ta, norm_scope="run").fitness_norm)
    ranks_b = np.argsort(build_ceg(ds_b, tb, norm_scope="run").fitness_norm)
    assert list(ranks_a) == list(ranks_b)


def test_fitness_range_beyond_float_still_normalizes(tmp_path):
    # hi - lo overflows to inf; inf / inf used to give NaN, which is not JSON
    ds = make_dataset(tmp_path, simple_objs([1e308, -1e308, 0.0]))
    table, _ = featurize_dataset(ds)
    ceg = build_ceg(ds, table)
    assert norms(ceg) == [1.0, 0.0, 0.5]
    json.loads(graphs_to_json(ceg), parse_constant=pytest.fail)


def scored_dataset(scores):
    """One run of samples with the given raw scores, built by hand (so
    that ingest's reading of a non-finite score as null is skipped), and
    a one-column feature table for them."""
    samples = tuple(CodeSample(f"s{i}", f"s{i}", "r", "", "", "", i, (), f, "")
                    for i, f in enumerate(scores))
    ids = tuple(s.id for s in samples)
    return Dataset(samples), FeatureTable(ids, ("f",), np.arange(len(ids), dtype=float)[:, None])


@pytest.mark.parametrize("scores, normalize, want", [
    ([math.nan, 1.0, 2.0, 3.0], "minmax", [None, 0.0, 0.5, 1.0]),
    ([1.0, 2.0, 3.0, math.inf], "minmax", [0.0, 0.5, 1.0, None]),
    ([-math.inf, 1.0, 2.0, math.nan], "none", [None, 1.0, 2.0, None]),
])
def test_non_finite_score_counts_as_missing(scores, normalize, want):
    # it joins no normalization pool, and ceg.json writes it as null
    ceg = build_ceg(*scored_dataset(scores), normalize=normalize)
    assert norms(ceg) == want
    (graph,) = json.loads(graphs_to_json(ceg), parse_constant=pytest.fail)["graphs"]
    assert [node["fitness_norm"] for node in graph["nodes"]] == want


def one_node_run(method, run_id, k=1):
    """A run of group ("b", method, "") with one node and k features, as
    oracles.ceg_table takes it."""
    return ("b", method, ""), run_id, [(run_id, 0, 0.5, [1.0] * k, [0.0] * k)], []


@pytest.mark.parametrize("runs", [
    [("m1", "r1"), ("m2", "r2"), ("m1", "r3")],
    [("m1", "r2"), ("m1", "r1")],
    [("m1", "r1"), ("m1", "r1")],
], ids=["groups-interleaved", "runs-reversed", "run-twice"])
def test_table_with_runs_out_of_order_is_rejected(runs):
    # a group must be one range of runs, as correlation_table and
    # render_ceg read it
    with pytest.raises(ValueError, match="not strictly sorted by"):
        oracles.ceg_table(("f",), [one_node_run(*run) for run in runs])


def test_group_bounds_and_column_index():
    runs = [one_node_run("m1", "r1", 2), one_node_run("m1", "r2", 2), one_node_run("m2", "r0", 2)]
    table = oracles.ceg_table(("f", "g"), runs)
    assert table.group_bounds().tolist() == [0, 2, 3]
    assert oracles.ceg_table(("f",), []).group_bounds().tolist() == [0]
    assert table.column_index(("g", "f")) == [1, 0]
    # a repeated column would be counted twice by any consumer
    with pytest.raises(ValueError, match="lists more than once: g$"):
        table.column_index(("g", "f", "g"))
    with pytest.raises(ValueError, match="^unknown feature names: h, i$"):
        table.column_index(("f", "h", "i"))
    with pytest.raises(ValueError, match="empty"):
        table.column_index(())


def parent_and_child():
    """A hand-built table of one run: node "p" at row 0 parents node "c"."""
    nodes = [("p", 0, 0.5, [1.0], [0.0]), ("c", 1, 0.5, [2.0], [0.0])]
    return oracles.ceg_table(("f",), [(("b", "m", ""), "r", nodes, [(0, 1)])])


def test_parent_frequency_is_counted_from_the_edges():
    table = parent_and_child()
    assert table.parent_frequency().tolist() == [1, 0]
    (graph,) = json.loads(graphs_to_json(table))["graphs"]
    assert [node["parent_frequency"] for node in graph["nodes"]] == [1, 0]


# any finite score or none, with the two ends of the float range drawn often,
# so that a pool's max - min can overflow
_FITNESS = (
    st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-sys.float_info.max, sys.float_info.max])
)


@st.composite
def ceg_inputs(draw):
    """Runs with lineage inside each run, any finite or missing fitness,
    and feature rows for a random subset of the samples."""
    samples = []
    for r in range(draw(st.integers(1, 3))):
        method = draw(st.sampled_from(["a", "b"]))
        for i in range(draw(st.integers(1, 6))):
            parents = draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True)) if i else []
            samples.append(CodeSample(
                id=f"r{r}-{i}", name=f"r{r}-{i}", run_id=f"r{r}", method=method,
                llm="", benchmark="", evaluation_index=i,
                parent_ids=tuple(f"r{r}-{p}" for p in parents),
                fitness_raw=draw(_FITNESS),
                code="",
            ))
    ids = tuple(s.id for s in samples if draw(st.booleans()))
    table = FeatureTable(ids, ("f",), np.arange(len(ids), dtype=float).reshape(-1, 1))
    return Dataset(samples=tuple(samples)), table


@settings(max_examples=200, deadline=None)
@given(
    inputs=ceg_inputs(),
    direction=st.sampled_from(["maximize", "minimize"]),
    scope=st.sampled_from(["group", "run", "global"]),
)
def test_graphs_keep_their_invariants(inputs, direction, scope):
    ds, table = inputs
    by_id = ds.by_id()
    position = {s.id: k for k, s in enumerate(ds.samples)}
    ceg = build_ceg(ds, table, direction=direction, norm_scope=scope)
    n = len(ceg.ids)
    assert sorted(ceg.ids) == sorted(table.ids)
    # the run ranges partition the rows, in sorted (group_key, run_id) order
    bounds = ceg.run_bounds.tolist()
    assert bounds[0] == 0 and bounds[-1] == n
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    runs = list(zip(ceg.group_keys, ceg.run_ids))
    assert runs == sorted(set(runs)) and len(set(ceg.run_ids)) == len(runs)
    for r, (key, run_id) in enumerate(runs):
        members = [by_id[i] for i in ceg.ids[bounds[r]:bounds[r + 1]]]
        assert all(s.run_id == run_id and s.group_key == key for s in members)
        assert [position[s.id] for s in members] == sorted(position[s.id] for s in members)
    # each edge's two rows lie in one run's range
    run_of = np.repeat(np.arange(len(runs)), np.diff(ceg.run_bounds))
    assert (run_of[ceg.parent] == run_of[ceg.child]).all()
    assert ceg.parent_frequency().tolist() == np.bincount(ceg.parent, minlength=n).tolist()
    # the group ranges cover the runs, one group key each, a new key each
    groups = ceg.group_bounds().tolist()
    assert groups[0] == 0 and groups[-1] == len(runs)
    assert all(len(set(ceg.group_keys[lo:hi])) == 1 for lo, hi in zip(groups, groups[1:]))
    assert len({ceg.group_keys[r] for r in groups[:-1]}) == len(groups) - 1
    for sample_id, f in zip(ceg.ids, ceg.fitness_norm.tolist()):
        if by_id[sample_id].fitness_raw is None:
            assert math.isnan(f)
        else:
            assert 0.0 <= f <= 1.0
    json.loads(graphs_to_json(ceg), parse_constant=pytest.fail)
