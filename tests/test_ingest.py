"""Run log loading, schema checks, lineage validation, round trips."""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cegraph.ceg import build_ceg
from cegraph.features import featurize_dataset
from cegraph.ingest import (
    CodeSample,
    Dataset,
    SchemaError,
    ValidationError,
    Violation,
    dump_jsonl,
    load_jsonl,
    validate,
)
from synth import synthetic_samples


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sample_line(**kw):
    base = {"id": "s1", "run_id": "r1", "evaluation_index": 0, "code": "x = 1"}
    base.update(kw)
    return json.dumps(base)


def test_minimal_sample_defaults(tmp_path):
    p = write_lines(tmp_path / "log.jsonl", [sample_line()])
    ds = load_jsonl(p)
    assert len(ds) == 1
    s = ds.samples[0]
    assert s.name == "s1"  # defaults to id
    assert s.method == s.llm == s.benchmark == ""
    assert s.parent_ids == ()
    assert s.fitness_raw is None
    assert s.code == "x = 1"


def test_blank_lines_are_skipped(tmp_path):
    p = write_lines(tmp_path / "log.jsonl", [sample_line(), "", "   "])
    assert len(load_jsonl(p)) == 1


def test_lone_cr_is_whitespace_inside_a_record(tmp_path):
    p = tmp_path / "log.jsonl"
    p.write_bytes(b'{"id": "a", "run_id": "r",\r "evaluation_index": 0, "code": "x = 1\\n"}\n')
    (s,) = load_jsonl(p).samples
    assert (s.id, s.run_id, s.evaluation_index, s.code) == ("a", "r", 0, "x = 1\n")
    # CRLF records still load: the trailing "\r" is whitespace too
    p.write_bytes(b"\r\n".join(line.encode() for line in
                               (sample_line(), sample_line(id="s2"), "")))
    assert [s.id for s in load_jsonl(p).samples] == ["s1", "s2"]


def test_log_with_utf8_bom_loads_like_without(tmp_path):
    src = write_lines(tmp_path / "log.jsonl", [json.dumps(s) for s in synthetic_samples()])
    bom = tmp_path / "bom.jsonl"
    bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
    assert load_jsonl(bom) == load_jsonl(src)


def test_code_path_resolves_relative_to_log(tmp_path):
    (tmp_path / "snippets").mkdir()
    (tmp_path / "snippets" / "a.py").write_text("y = 2\n", encoding="utf-8")
    line = json.dumps(
        {"id": "a", "run_id": "r", "evaluation_index": 0, "code_path": "snippets/a.py"}
    )
    ds = load_jsonl(write_lines(tmp_path / "log.jsonl", [line]))
    assert ds.samples[0].code == "y = 2\n"


def test_code_path_with_utf8_bom_featurizes_like_without(tmp_path):
    code = "def f(x):\n    return [x, 'caf\u00e9']\n"
    (tmp_path / "plain.py").write_bytes(code.encode("utf-8"))
    (tmp_path / "bom.py").write_bytes(b"\xef\xbb\xbf" + code.encode("utf-8"))
    lines = [
        json.dumps({"id": name, "run_id": "r", "evaluation_index": i,
                    "code_path": f"{name}.py"})
        for i, name in enumerate(("plain", "bom"))
    ]
    ds = load_jsonl(write_lines(tmp_path / "log.jsonl", lines))
    assert ds.samples[1].code == code
    table, failures = featurize_dataset(ds)
    assert failures == {}
    assert table.ids == ("plain", "bom")
    assert table.values[0].tolist() == table.values[1].tolist()


def test_code_path_not_utf8_names_line_and_file(tmp_path):
    (tmp_path / "latin.py").write_bytes(b"x = 1\xff\n")
    lines = [
        sample_line(),
        json.dumps({"id": "a", "run_id": "r", "evaluation_index": 0,
                    "code_path": "latin.py"}),
    ]
    with pytest.raises(SchemaError, match=r"line 2: code_path 'latin.py' is not UTF-8"):
        load_jsonl(write_lines(tmp_path / "log.jsonl", lines))


def test_code_and_code_path_together_rejected(tmp_path):
    p = write_lines(
        tmp_path / "log.jsonl", [sample_line(code_path="x.py")]
    )
    with pytest.raises(SchemaError, match="line 1"):
        load_jsonl(p)


def test_missing_code_path_file_is_os_error(tmp_path):
    # a missing file and a directory: both name the line and the code_path
    for code_path in ("gone.py", "."):
        line = json.dumps(
            {"id": "a", "run_id": "r", "evaluation_index": 0, "code_path": code_path}
        )
        log = write_lines(tmp_path / "log.jsonl", [sample_line(), line])
        want = rf"line 2: cannot read code_path {re.escape(repr(code_path))}"
        with pytest.raises(OSError, match=want):
            load_jsonl(log)


def test_malformed_json_names_line_number(tmp_path):
    p = write_lines(tmp_path / "log.jsonl", [sample_line(), "{broken"])
    with pytest.raises(SchemaError, match="line 2"):
        load_jsonl(p)
    deep = "[" * 100_000 + "]" * 100_000
    p = write_lines(tmp_path / "deep.jsonl", [sample_line(), deep])
    with pytest.raises(SchemaError, match="line 2: invalid JSON: nesting too deep"):
        load_jsonl(p)


@pytest.mark.parametrize(
    "mutation",
    [
        {"id": None},
        {"run_id": None},
        {"evaluation_index": None},
        {"evaluation_index": -1},
        {"evaluation_index": 1.5},
        {"evaluation_index": True},
        {"code": None},
        {"code": 5},
        {"code": None, "code_path": 5},
        {"code": None, "code_path": "a\x00.py"},  # open() refuses a NUL
        {"parent_ids": "p0"},
        {"parent_ids": [1]},
        {"fitness_raw": "high"},
        {"fitness_raw": True},
        {"evaluation_index": 2**63},  # past the graph table's int64 column
    ],
)
def test_schema_violations_are_fatal(tmp_path, mutation):
    obj = {"id": "s1", "run_id": "r1", "evaluation_index": 0, "code": "x = 1"}
    obj.update(mutation)
    obj = {k: v for k, v in obj.items() if v is not None}
    p = write_lines(tmp_path / "log.jsonl", [json.dumps(obj)])
    with pytest.raises(SchemaError, match="line 1"):
        load_jsonl(p)


# a lone surrogate is legal in a JSON string ("\ud800") but cannot be
# written to a UTF-8 artifact
SURROGATES = {
    "id": "s\ud800",
    "run_id": "r\ud800",
    "name": "\udfff",
    "method": "m\udc80",
    "llm": "\ud83d",
    "benchmark": "b\udbff",
    "parent_ids": ["s0", "s\ud800"],
    "code_path": "a\udcff.py",
}


@pytest.mark.parametrize("field", SURROGATES)
def test_a_lone_surrogate_in_a_string_field_names_line_and_field(tmp_path, field):
    obj = {"id": "s1", "run_id": "r1", "evaluation_index": 1, "code": "x = 1",
           field: SURROGATES[field]}
    if field == "code_path":
        del obj["code"]
    p = write_lines(tmp_path / "log.jsonl", [sample_line(id="s0"), json.dumps(obj)])
    want = rf"^line 2: field '{field}' holds a lone surrogate U\+D[89A-F][0-9A-F]{{2}}, "
    with pytest.raises(SchemaError, match=want):
        load_jsonl(p)


def test_a_lone_surrogate_in_code_is_a_recorded_parse_failure(tmp_path):
    p = write_lines(tmp_path / "log.jsonl", [sample_line(id="s0"),
                                              sample_line(code="x = '\ud800'\n")])
    table, failures = featurize_dataset(load_jsonl(p))
    assert table.ids == ("s0",) and list(failures) == ["s1"]
    assert "surrogates not allowed" in failures["s1"]


def test_non_object_line_rejected(tmp_path):
    p = write_lines(tmp_path / "log.jsonl", ["[1, 2, 3]"])
    with pytest.raises(SchemaError, match="line 1"):
        load_jsonl(p)


def test_duplicate_id_is_fatal(tmp_path):
    p = write_lines(tmp_path / "log.jsonl", [sample_line(), sample_line()])
    with pytest.raises(SchemaError, match="duplicate"):
        load_jsonl(p)


def test_non_finite_fitness_becomes_missing(tmp_path):
    # NaN, a float literal past float range, an integer past float range
    for fitness in ("NaN", "1e400", "1" + "0" * 400, "-1" + "0" * 400):
        p = write_lines(
            tmp_path / "log.jsonl",
            ['{"id": "a", "run_id": "r", "evaluation_index": 0, "code": "x", '
             f'"fitness_raw": {fitness}}}'],
        )
        assert load_jsonl(p).samples[0].fitness_raw is None, fitness


def test_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_jsonl(tmp_path / "absent.jsonl")


def _dataset(*samples):
    lines = [json.dumps(s) for s in samples]
    return lines


def _load(tmp_path, *objs):
    return load_jsonl(write_lines(tmp_path / "log.jsonl", _dataset(*objs)))


def test_validate_accepts_well_formed_lineage(tmp_path):
    ds = _load(
        tmp_path,
        {"id": "a", "run_id": "r", "evaluation_index": 0, "code": "x"},
        {"id": "b", "run_id": "r", "evaluation_index": 1, "code": "x",
         "parent_ids": ["a"]},
    )
    out, violations = validate(ds)
    assert violations == []
    assert out == ds


def test_validate_strict_rejects_unknown_parent(tmp_path):
    ds = _load(
        tmp_path,
        {"id": "a", "run_id": "r", "evaluation_index": 1, "code": "x",
         "parent_ids": ["ghost"]},
    )
    with pytest.raises(ValidationError, match="ghost"):
        validate(ds, policy="strict")


def test_validate_strict_rejects_cross_run_parent(tmp_path):
    ds = _load(
        tmp_path,
        {"id": "a", "run_id": "r1", "evaluation_index": 0, "code": "x"},
        {"id": "b", "run_id": "r2", "evaluation_index": 1, "code": "x",
         "parent_ids": ["a"]},
    )
    with pytest.raises(ValidationError, match="run"):
        validate(ds)


def test_validate_strict_rejects_parent_not_earlier(tmp_path):
    ds = _load(
        tmp_path,
        {"id": "a", "run_id": "r", "evaluation_index": 1, "code": "x"},
        {"id": "b", "run_id": "r", "evaluation_index": 1, "code": "x",
         "parent_ids": ["a"]},
    )
    with pytest.raises(ValidationError, match="smaller"):
        validate(ds)


def test_validate_rejects_self_parent(tmp_path):
    ds = _load(
        tmp_path,
        {"id": "a", "run_id": "r", "evaluation_index": 0, "code": "x",
         "parent_ids": ["a"]},
    )
    with pytest.raises(ValidationError):
        validate(ds)


def _listed_twice(tmp_path):
    return _load(
        tmp_path,
        {"id": "a", "run_id": "r", "evaluation_index": 0, "code": "x"},
        {"id": "b", "run_id": "r", "evaluation_index": 1, "code": "x",
         "parent_ids": ["a", "a"]},
        {"id": "c", "run_id": "r", "evaluation_index": 2, "code": "x",
         "parent_ids": ["a", "b"]},
    )


def test_validate_strict_rejects_parent_listed_twice(tmp_path):
    with pytest.raises(
        ValidationError, match="^sample 'b': parent 'a': listed more than once$"
    ):
        validate(_listed_twice(tmp_path))


def test_drop_policy_keeps_first_of_a_parent_listed_twice(tmp_path):
    out, violations = validate(_listed_twice(tmp_path), policy="drop-dangling-edges")
    assert violations == [Violation("b", "a", "listed more than once")]
    assert [s.parent_ids for s in out.samples] == [(), ("a",), ("a", "b")]
    # one edge, and one child counted, per parent
    ceg = build_ceg(out, featurize_dataset(out)[0])
    assert [(ceg.ids[p], ceg.ids[c]) for p, c in zip(ceg.parent, ceg.child)] == [
        ("a", "b"), ("a", "c"), ("b", "c")]
    assert ceg.parent_frequency().tolist() == [2, 1, 0]


def test_drop_policy_removes_offending_edges_and_reports(tmp_path):
    ds = _load(
        tmp_path,
        {"id": "a", "run_id": "r", "evaluation_index": 0, "code": "x"},
        {"id": "b", "run_id": "r", "evaluation_index": 1, "code": "x",
         "parent_ids": ["a", "ghost"]},
    )
    out, violations = validate(ds, policy="drop-dangling-edges")
    assert len(violations) == 1
    assert violations[0].sample_id == "b"
    assert violations[0].parent_id == "ghost"
    assert out.samples[1].parent_ids == ("a",)


def test_unknown_policy_rejected(tmp_path):
    ds = _load(tmp_path, {"id": "a", "run_id": "r", "evaluation_index": 0, "code": "x"})
    with pytest.raises(ValueError, match="policy"):
        validate(ds, policy="lenient")


def test_dump_load_round_trip(tmp_path):
    lines = [json.dumps(s) for s in synthetic_samples()]
    src = write_lines(tmp_path / "orig.jsonl", lines)
    ds1 = load_jsonl(src)
    dump_jsonl(ds1, tmp_path / "copy.jsonl")
    ds2 = load_jsonl(tmp_path / "copy.jsonl")
    assert ds1 == ds2
    # and dumping again is byte-identical
    dump_jsonl(ds2, tmp_path / "copy2.jsonl")
    assert (tmp_path / "copy.jsonl").read_bytes() == (tmp_path / "copy2.jsonl").read_bytes()


def test_round_trip_preserves_awkward_strings(tmp_path):
    code = "s = 'unicode: \\u00e9\\u4e2d'\nt = \"quotes \\\" and newline\"\n"
    ds = _load(
        tmp_path,
        {"id": "weird/id:1", "run_id": "r", "evaluation_index": 3,
         "code": code, "llm": "model-x", "fitness_raw": -2.5},
    )
    dump_jsonl(ds, tmp_path / "out.jsonl")
    assert load_jsonl(tmp_path / "out.jsonl") == ds


def test_grouping_helpers(tmp_path):
    ds = _load(
        tmp_path,
        {"id": "a", "run_id": "r1", "evaluation_index": 0, "code": "x",
         "benchmark": "b1", "method": "m1", "llm": "l1"},
        {"id": "b", "run_id": "r2", "evaluation_index": 0, "code": "x",
         "benchmark": "b1", "method": "m1", "llm": "l1"},
        {"id": "c", "run_id": "r3", "evaluation_index": 0, "code": "x",
         "benchmark": "b2", "method": "m2", "llm": "l2"},
    )
    assert ds.by_id()["c"].benchmark == "b2"


def one_sample(code, name="s"):
    return Dataset(samples=(CodeSample(
        id="s1", name=name, run_id="r", method="m", llm="l", benchmark="b",
        evaluation_index=0, parent_ids=(), fitness_raw=0.5, code=code,
    ),))


def test_round_trip_keeps_unicode_line_separators(tmp_path):
    # dump_jsonl writes U+2028 raw; str.splitlines would break the record there
    for sep in ("\u2028", "\u2029", "\x85"):
        ds = one_sample(f"x = '{sep}'\n")
        dump_jsonl(ds, tmp_path / "log.jsonl")
        assert load_jsonl(tmp_path / "log.jsonl") == ds


@settings(max_examples=150, deadline=None)
@given(code=st.text(st.characters(blacklist_categories=("Cs",))),
       name=st.text(st.characters(blacklist_categories=("Cs",))))
def test_round_trip_of_arbitrary_text(tmp_path_factory, code, name):
    path = tmp_path_factory.mktemp("round_trip") / "log.jsonl"
    ds = one_sample(code, name)
    dump_jsonl(ds, path)
    assert load_jsonl(path) == ds


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# a code_path without "/" stays inside the log's directory
CODE_PATHS = (
    st.sampled_from(["ok.py", "latin.py", "gone.py", ".", "", "a\x00b"])
    | st.text(max_size=300).filter(lambda s: "/" not in s)
)
FIELDS = {
    "id": st.text(max_size=3),
    "run_id": st.text(max_size=3),
    "name": st.text(max_size=3),
    "method": st.text(max_size=3),
    "evaluation_index": st.integers(-1, 5) | st.integers(),
    "parent_ids": st.lists(st.text(max_size=3), max_size=2),
    "fitness_raw": st.floats() | st.integers(),
    "code": st.text(max_size=20),
    "code_path": CODE_PATHS,
}
SAMPLE_OBJECTS = st.fixed_dictionaries(
    {}, optional={key: values | JSON_VALUES for key, values in FIELDS.items()}
)
JSONL_LINES = (
    SAMPLE_OBJECTS.map(json.dumps)
    | JSON_VALUES.map(json.dumps)
    | st.sampled_from(["1" * 5000, '{"id": ' + "9" * 5000 + "}"])
    | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"))
)


@pytest.fixture(scope="module")
def code_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("any_line")
    (path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    (path / "latin.py").write_bytes(b"x = 1\xff\n")
    return path


@settings(max_examples=400, deadline=None)
@given(line=JSONL_LINES)
@example("\r:")
def test_any_line_loads_or_names_itself(code_dir, line):
    # the only outcomes: a dataset, a SchemaError, or an OSError for an
    # unreadable code_path; each error names the line
    log = code_dir / "log.jsonl"
    log.write_text(line + "\n", encoding="utf-8")
    try:
        ds = load_jsonl(log)
    except SchemaError as exc:
        assert str(exc).startswith("line 1: ")
    except OSError as exc:
        assert str(exc).startswith("line 1: cannot read code_path ")
    else:
        assert isinstance(ds, Dataset) and len(ds) <= 1
        assert all(isinstance(s, CodeSample) for s in ds.samples)
