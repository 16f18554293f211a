"""Evolution graph assembly: normalization, standardization, lineage."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cegraph.ceg import CegNode, EvolutionGraph, build_ceg, graphs_to_json
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
    graphs = build_ceg(ds, table)
    by_run = {g.run_id: g for g in graphs}
    assert set(by_run) == {"chain-01", "pop-01", "rs-01"}
    assert by_run["chain-01"].node_count == 12
    assert by_run["chain-01"].edge_count == 11
    assert by_run["pop-01"].node_count == 44
    assert by_run["pop-01"].edge_count == 40
    assert by_run["rs-01"].node_count == 10
    assert by_run["rs-01"].edge_count == 0
    # graphs sorted by (group_key, run_id)
    assert [g.run_id for g in graphs] == ["pop-01", "chain-01", "rs-01"]


def test_edges_match_validated_parent_ids(synthetic):
    ds, table = synthetic
    graphs = build_ceg(ds, table)
    for g in graphs:
        expected = [
            (pid, s.id)
            for s in ds.samples
            if s.run_id == g.run_id
            for pid in s.parent_ids
        ]
        assert sorted(g.edges) == sorted(expected)


def test_parent_frequency_is_out_degree(synthetic):
    ds, table = synthetic
    graphs = build_ceg(ds, table)
    for g in graphs:
        out = {n.sample_id: 0 for n in g.nodes}
        for p, _ in g.edges:
            out[p] += 1
        for n in g.nodes:
            assert n.parent_frequency == out[n.sample_id]


def test_minmax_per_run_example(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([10.0, 30.0, 20.0]))
    table, _ = featurize_dataset(ds)
    (g,) = build_ceg(ds, table, norm_scope="run")
    norms = [n.fitness_norm for n in g.nodes]
    assert norms == pytest.approx([0.0, 1.0, 0.5])


def test_direction_minimize_maps_best_to_one(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([10.0, 30.0, 20.0]))
    table, _ = featurize_dataset(ds)
    (g,) = build_ceg(ds, table, norm_scope="run", direction="minimize")
    norms = [n.fitness_norm for n in g.nodes]
    assert norms == pytest.approx([1.0, 0.0, 0.5])


def test_all_equal_fitness_maps_to_one(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([7.0, 7.0, 7.0]))
    table, _ = featurize_dataset(ds)
    (g,) = build_ceg(ds, table, norm_scope="run")
    assert [n.fitness_norm for n in g.nodes] == [1.0, 1.0, 1.0]


def test_missing_fitness_preserved(tmp_path):
    objs = simple_objs([1.0, 2.0, 3.0])
    objs[1]["fitness_raw"] = None
    ds = make_dataset(tmp_path, objs)
    table, _ = featurize_dataset(ds)
    (g,) = build_ceg(ds, table, norm_scope="run")
    norms = [n.fitness_norm for n in g.nodes]
    assert norms[1] is None
    assert norms[0] == 0.0 and norms[2] == 1.0


def test_group_scope_pools_runs_sharing_benchmark_and_method(tmp_path):
    objs = simple_objs([0.0, 1.0], run_id="r1", benchmark="b", method="m")
    objs += simple_objs([2.0, 4.0], run_id="r2", benchmark="b", method="m")
    ds = make_dataset(tmp_path, objs)
    table, _ = featurize_dataset(ds)
    graphs = build_ceg(ds, table, norm_scope="group")
    norms = {
        n.sample_id: n.fitness_norm for g in graphs for n in g.nodes
    }
    # pooled min 0, max 4
    assert norms["r1-s0"] == 0.0
    assert norms["r1-s1"] == pytest.approx(0.25)
    assert norms["r2-s0"] == pytest.approx(0.5)
    assert norms["r2-s1"] == 1.0


def test_global_scope_pools_everything(tmp_path):
    objs = simple_objs([0.0, 1.0], run_id="r1", benchmark="b1", method="m1")
    objs += simple_objs([3.0, 4.0], run_id="r2", benchmark="b2", method="m2")
    ds = make_dataset(tmp_path, objs)
    table, _ = featurize_dataset(ds)
    graphs = build_ceg(ds, table, norm_scope="global")
    norms = {n.sample_id: n.fitness_norm for g in graphs for n in g.nodes}
    assert norms["r1-s0"] == 0.0
    assert norms["r2-s1"] == 1.0
    assert norms["r1-s1"] == pytest.approx(0.25)


def test_normalize_none_passes_raw_through(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([10.0, 30.0, 20.0]))
    table, _ = featurize_dataset(ds)
    (g,) = build_ceg(ds, table, normalize="none")
    assert [n.fitness_norm for n in g.nodes] == [10.0, 30.0, 20.0]


def test_standardized_columns_have_zero_mean_unit_variance(synthetic):
    ds, table = synthetic
    graphs = build_ceg(ds, table)
    X = np.vstack([n.features_std for g in graphs for n in g.nodes])
    raw = np.vstack([n.features_raw for g in graphs for n in g.nodes])
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
    (g,) = build_ceg(ds, table)
    for n in g.nodes:
        assert np.all(n.features_std == 0.0)


def test_samples_without_features_are_skipped_with_edges(tmp_path):
    objs = simple_objs([1.0, 2.0, 3.0], chain=True)
    objs[1]["code"] = "def broken(:\n"
    ds = make_dataset(tmp_path, objs)
    table, failures = featurize_dataset(ds)
    assert set(failures) == {"r-s1"}
    (g,) = build_ceg(ds, table)
    assert g.node_count == 2
    assert g.edge_count == 0  # both edges touched the dropped node


def test_feature_name_mismatch_is_fatal(tmp_path):
    ds = make_dataset(tmp_path, simple_objs([1.0, 2.0]))
    table, _ = featurize_dataset(ds)
    with pytest.raises(ValueError, match="mismatch"):
        FeatureTable(table.ids, ("only_one",), table.values)


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
    assert build_ceg(ds, FeatureTable((), (), np.empty((0, 0)))) == []


def test_json_export_schema(synthetic):
    ds, table = synthetic
    graphs = build_ceg(ds, table)
    payload = json.loads(graphs_to_json(graphs))
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


def test_json_export_is_one_dumps_of_every_graph(synthetic):
    # built one graph at a time, with the bytes of one json.dumps of them all
    ds, table = synthetic
    graphs = build_ceg(ds, table)
    assert len(graphs) == 3
    for part in (graphs, graphs[1:2], []):
        want = json.dumps({"graphs": [g.to_dict() for g in part]}, indent=2)
        assert graphs_to_json(part) == want


def _graph(run_id, ids, fitness, raw, edges=(), names=("a", "b")):
    raw = np.array(raw, dtype=float).reshape(len(ids), len(names))
    nodes = tuple(
        CegNode(sample_id=i, evaluation_index=k, fitness_norm=f, parent_frequency=k % 2,
                features_raw=row, features_std=-row)
        for k, (i, f, row) in enumerate(zip(ids, fitness, raw))
    )
    return EvolutionGraph(group_key=("b\\", 'm"', "\u00e9"), run_id=run_id, feature_names=names,
                          nodes=nodes, edges=tuple(edges))


def test_json_export_writes_what_json_dumps_writes():
    # escapes in every string field, missing fitness, a run without edges,
    # non-finite and extreme features, and a graph without features
    ids = ['q"uote', "back\\slash", "ctl\x00\x1f\n\t", "\u00fc\u4e2d\U0001f600", "\u2028"]
    graphs = [
        _graph('run "1"', ids, [None, 0.5, 1.0, None, 1e-300],
               [[math.nan, math.inf], [-math.inf, -0.0], [5e-324, 1.7976931348623157e308],
                [0.1, 1e16], [-1.5, 3.0]],
               edges=[(ids[0], ids[1]), (ids[1], ids[4])]),
        _graph("no edges", ids[:2], [0.25, None], [[1.0, 2.0], [3.0, 4.0]]),
        _graph("no features", ids[:1], [0.0], [], names=()),
    ]
    for part in (graphs, graphs[1:], graphs[2:]):
        want = json.dumps({"graphs": [g.to_dict() for g in part]}, indent=2)
        assert graphs_to_json(part) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(), st.none() | st.floats(),
                          st.lists(st.floats(), min_size=2, max_size=2)),
                min_size=1, max_size=4),
       st.text())
def test_json_export_of_any_ids_and_floats_is_json_dumps(nodes, run_id):
    ids, fitness, raw = zip(*nodes)
    g = _graph(run_id, ids, fitness, raw, edges=[(ids[0], ids[-1])])
    assert graphs_to_json([g]) == json.dumps({"graphs": [g.to_dict()]}, indent=2)


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
    (ga,) = build_ceg(ds_a, ta, norm_scope="run")
    (gb,) = build_ceg(ds_b, tb, norm_scope="run")
    ranks_a = np.argsort([n.fitness_norm for n in ga.nodes])
    ranks_b = np.argsort([n.fitness_norm for n in gb.nodes])
    assert list(ranks_a) == list(ranks_b)


def test_fitness_range_beyond_float_still_normalizes(tmp_path):
    # hi - lo overflows to inf; inf / inf used to give NaN, which is not JSON
    ds = make_dataset(tmp_path, simple_objs([1e308, -1e308, 0.0]))
    table, _ = featurize_dataset(ds)
    (g,) = build_ceg(ds, table)
    assert [n.fitness_norm for n in g.nodes] == [1.0, 0.0, 0.5]
    json.loads(graphs_to_json([g]), parse_constant=pytest.fail)


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
    graphs = build_ceg(ds, table, direction=direction, norm_scope=scope)
    for g in graphs:
        ids = {n.sample_id for n in g.nodes}
        assert all(by_id[i].run_id == g.run_id for i in ids)
        assert all(p in ids and c in ids for p, c in g.edges)
        for n in g.nodes:
            if by_id[n.sample_id].fitness_raw is None:
                assert n.fitness_norm is None
            else:
                assert 0.0 <= n.fitness_norm <= 1.0
            assert n.parent_frequency == sum(p == n.sample_id for p, _ in g.edges)
    json.loads(graphs_to_json(graphs), parse_constant=pytest.fail)
