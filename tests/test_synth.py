"""Synthetic corpus generator: validity, determinism, designed properties."""

import ast
import random
from pathlib import Path

from cegraph.features import featurize_dataset
from cegraph.ingest import load_jsonl, validate
from synth import random_module, synthetic_samples, write_synthetic_log

BUNDLED = Path(__file__).resolve().parent.parent / "data" / "synthetic_run.jsonl"


def parents(sample):
    return tuple(sample.get("parent_ids") or ())


def test_fuzzer_output_parses_for_many_seeds():
    for seed in range(100):
        src = random_module(random.Random(seed))
        ast.parse(src)


def test_fuzzer_is_deterministic_per_seed():
    for seed in (0, 7, 99):
        a = random_module(random.Random(seed))
        b = random_module(random.Random(seed))
        assert a == b
    assert random_module(random.Random(1)) != random_module(random.Random(2))


def test_fuzzer_respects_size_knob():
    small = random_module(random.Random(5), approx_lines=10)
    large = random_module(random.Random(5), approx_lines=120)
    assert len(large.splitlines()) > len(small.splitlines())


def test_sample_set_structure():
    samples = synthetic_samples()
    assert len(samples) == 66
    by_run = {}
    for s in samples:
        by_run.setdefault(s["run_id"], []).append(s)
    assert len(by_run["chain-01"]) == 12
    assert len(by_run["pop-01"]) == 44
    assert len(by_run["rs-01"]) == 10

    chain = sorted(by_run["chain-01"], key=lambda s: s["evaluation_index"])
    assert parents(chain[0]) == ()
    for prev, cur in zip(chain, chain[1:]):
        assert parents(cur) == (prev["id"],)

    for s in by_run["rs-01"]:
        assert parents(s) == ()

    missing = [s["id"] for s in samples if s["fitness_raw"] is None]
    assert missing == ["pp11"]


def test_all_samples_parse_and_featurize():
    for s in synthetic_samples():
        ast.parse(s["code"])
    ds, violations = validate(load_jsonl(BUNDLED))
    assert violations == []
    _, failures = featurize_dataset(ds)
    assert failures == {}


def test_random_search_run_is_token_anti_monotone():
    ds, _ = validate(load_jsonl(BUNDLED))
    table, failures = featurize_dataset(ds)
    assert not failures
    rs = sorted(
        (s for s in ds.samples if s.run_id == "rs-01"),
        key=lambda s: s.fitness_raw,
    )
    row_of = table.row_of()
    col = table.names.index("token_total")
    tokens = [table.values[row_of[s.id], col] for s in rs]
    assert all(a > b for a, b in zip(tokens, tokens[1:]))


def test_log_write_is_deterministic(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_synthetic_log(p1)
    write_synthetic_log(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bundled_log_matches_generator(tmp_path):
    fresh = tmp_path / "fresh.jsonl"
    write_synthetic_log(fresh)
    assert fresh.read_bytes() == BUNDLED.read_bytes()


def test_parent_indices_precede_children():
    samples = {s["id"]: s for s in synthetic_samples()}
    for s in samples.values():
        for pid in parents(s):
            assert samples[pid]["evaluation_index"] < s["evaluation_index"]
            assert samples[pid]["run_id"] == s["run_id"]
