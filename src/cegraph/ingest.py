"""Load, validate and write run logs.

A run log is JSONL: one sample object per line. Required fields are id,
run_id, evaluation_index and one of code / code_path (code_path resolves
relative to the log file's directory). Optional: name (defaults to id),
method, llm, benchmark (default ""), parent_ids (default []), fitness_raw
(null or absent means missing). Blank lines are skipped; any malformed
line is a fatal SchemaError naming the line number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path


class SchemaError(ValueError):
    """A run log line violates the sample schema."""


class ValidationError(ValueError):
    """Lineage constraints are violated under the strict policy."""


@dataclass(frozen=True)
class CodeSample:
    id: str
    name: str
    run_id: str
    method: str
    llm: str
    benchmark: str
    evaluation_index: int
    parent_ids: tuple[str, ...]
    fitness_raw: float | None
    code: str

    @property
    def group_key(self) -> tuple[str, str, str]:
        return (self.benchmark, self.method, self.llm)


@dataclass(frozen=True)
class Violation:
    sample_id: str
    parent_id: str
    reason: str


@dataclass(frozen=True)
class Dataset:
    samples: tuple[CodeSample, ...]

    def __len__(self) -> int:
        return len(self.samples)

    def by_id(self) -> dict[str, CodeSample]:
        return {s.id: s for s in self.samples}


def _require_str(obj: dict, key: str, lineno: int, default: str | None = None) -> str:
    value = obj.get(key, default)
    if value is None:
        raise SchemaError(f"line {lineno}: missing required field {key!r}")
    if not isinstance(value, str):
        raise SchemaError(f"line {lineno}: field {key!r} must be a string")
    return value


def _parse_sample(obj: dict, lineno: int, base_dir: Path) -> CodeSample:
    sample_id = _require_str(obj, "id", lineno)
    run_id = _require_str(obj, "run_id", lineno)
    name = _require_str(obj, "name", lineno, default=sample_id)
    method = _require_str(obj, "method", lineno, default="")
    llm = _require_str(obj, "llm", lineno, default="")
    benchmark = _require_str(obj, "benchmark", lineno, default="")

    eval_index = obj.get("evaluation_index")
    if not isinstance(eval_index, int) or isinstance(eval_index, bool) or eval_index < 0:
        raise SchemaError(
            f"line {lineno}: evaluation_index must be a non-negative integer"
        )

    parents = obj.get("parent_ids", [])
    if not isinstance(parents, list) or any(not isinstance(p, str) for p in parents):
        raise SchemaError(f"line {lineno}: parent_ids must be a list of strings")

    fitness = obj.get("fitness_raw")
    if fitness is not None:
        if isinstance(fitness, bool) or not isinstance(fitness, (int, float)):
            raise SchemaError(f"line {lineno}: fitness_raw must be a number or null")
        try:
            fitness = float(fitness)
        except OverflowError:  # an integer beyond float range, like 1e400
            fitness = math.inf
        if not math.isfinite(fitness):
            fitness = None  # non-finite scores carry no rank information

    code = obj.get("code")
    code_path = obj.get("code_path")
    if code is not None and code_path is not None:
        raise SchemaError(f"line {lineno}: give either code or code_path, not both")
    if code is None:
        if code_path is None:
            raise SchemaError(f"line {lineno}: missing required field 'code' or 'code_path'")
        if not isinstance(code_path, str):
            raise SchemaError(f"line {lineno}: field 'code_path' must be a string")
        try:
            code = (base_dir / code_path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"line {lineno}: code_path {code_path!r} is not UTF-8: {exc}"
            ) from exc
        except ValueError as exc:  # a NUL character in the path
            raise SchemaError(
                f"line {lineno}: code_path {code_path!r} is not a valid path: {exc}"
            ) from exc
        except OSError as exc:
            raise OSError(
                f"line {lineno}: cannot read code_path {code_path!r}: {exc}"
            ) from exc
    elif not isinstance(code, str):
        raise SchemaError(f"line {lineno}: field 'code' must be a string")

    return CodeSample(
        id=sample_id,
        name=name,
        run_id=run_id,
        method=method,
        llm=llm,
        benchmark=benchmark,
        evaluation_index=eval_index,
        parent_ids=tuple(parents),
        fitness_raw=fitness,
        code=code,
    )


def load_jsonl(path) -> Dataset:
    """Read a run log. SchemaError on malformed content, OSError on I/O."""
    path = Path(path)
    # newline="": no newline translation, so a lone "\r", which JSON reads
    # as whitespace, stays inside its record instead of ending it;
    # utf-8-sig drops a leading byte order mark, as for code_path files
    with path.open(encoding="utf-8-sig", newline="") as fh:
        text = fh.read()
    base_dir = path.parent

    samples: list[CodeSample] = []
    seen: set[str] = set()
    # records end at "\n" only: str.splitlines would also break inside a
    # string at U+2028, U+2029 or U+0085, which dump_jsonl writes raw
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer literal past int()'s digit limit
            raise SchemaError(f"line {lineno}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise SchemaError(f"line {lineno}: invalid JSON: nesting too deep") from exc
        if not isinstance(obj, dict):
            raise SchemaError(f"line {lineno}: sample must be a JSON object")
        sample = _parse_sample(obj, lineno, base_dir)
        if sample.id in seen:
            raise SchemaError(f"line {lineno}: duplicate sample id {sample.id!r}")
        seen.add(sample.id)
        samples.append(sample)
    return Dataset(samples=tuple(samples))


def validate(dataset: Dataset, policy: str = "strict") -> tuple[Dataset, list[Violation]]:
    """Check lineage consistency.

    Every parent reference must resolve to a sample in the same run with a
    strictly smaller evaluation_index. Under "strict" the first violation
    raises ValidationError; under "drop-dangling-edges" offending parent
    references are removed and reported as Violation records.
    """
    if policy not in ("strict", "drop-dangling-edges"):
        raise ValueError(f"unknown policy {policy!r}")
    by_id = dataset.by_id()
    violations: list[Violation] = []
    cleaned: list[CodeSample] = []
    for s in dataset.samples:
        kept: list[str] = []
        for pid in s.parent_ids:
            parent = by_id.get(pid)
            if parent is None:
                reason = "parent id not found"
            elif parent.run_id != s.run_id:
                reason = f"parent belongs to run {parent.run_id!r}"
            elif parent.evaluation_index >= s.evaluation_index:
                reason = (
                    f"parent evaluation_index {parent.evaluation_index} is not "
                    f"smaller than {s.evaluation_index}"
                )
            else:
                kept.append(pid)
                continue
            if policy == "strict":
                raise ValidationError(f"sample {s.id!r}: parent {pid!r}: {reason}")
            violations.append(Violation(sample_id=s.id, parent_id=pid, reason=reason))
        if len(kept) != len(s.parent_ids):
            cleaned.append(replace(s, parent_ids=tuple(kept)))
        else:
            cleaned.append(s)
    return Dataset(samples=tuple(cleaned)), violations


def dump_jsonl(dataset: Dataset, path) -> None:
    """Write a run log with inline code; load_jsonl(dump_jsonl(d)) == d."""
    path = Path(path)
    lines = []
    for s in dataset.samples:
        obj = {
            "id": s.id,
            "name": s.name,
            "run_id": s.run_id,
            "method": s.method,
            "llm": s.llm,
            "benchmark": s.benchmark,
            "evaluation_index": s.evaluation_index,
            "parent_ids": list(s.parent_ids),
            "fitness_raw": s.fitness_raw,
            "code": s.code,
        }
        lines.append(json.dumps(obj, ensure_ascii=False))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
