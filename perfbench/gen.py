"""Seeded run-log generator for the benchmark workloads.

Self-contained on purpose: it uses the standard library only and imports
nothing from cegraph, so a change to the program under test cannot change
the inputs it is measured on. The same (workload, seed) always writes the
same bytes; `digest()` hashes them and `digests.json` pins the digest of
every seed the benchmark is run with.

A run starts from a few fresh modules. Every later evaluation picks a
parent by tournament (size 3, best fitness wins, missing fitness loses)
and mutates its top-level statements: rewrite a function, add one, drop
one, retune the constants, or (one child in ten) splice in a function from
a second parent. Mutations act on whole top-level statements, so every
child is valid Python. About 5% of evaluations have no fitness.

Planted defects (large-modules-400 only): a fixed number of samples whose
code is cut off right after an opening parenthesis, so it cannot be
parsed, and a fixed number of samples that name a parent id which does not
exist. The deep-nesting input that currently aborts a whole run with a
RecursionError is not planted (see NOTES.md).

Usage: python3 perfbench/gen.py --workload lineage-400 --seed 0 --out DIR
       python3 perfbench/gen.py --pin 0-31   (rewrite digests.json)
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


@dataclass(frozen=True)
class Spec:
    runs: int
    evals: int
    groups: tuple[tuple[str, str, str], ...]  # (benchmark, method, llm), runs cycle through them
    lines: int  # target module length
    inline: bool  # code inline in the log, else via code_path files
    truncated: int  # samples whose code is cut off (unparsable)
    dangling: int  # samples with one parent reference that does not exist


SPECS = {
    "lineage-400": Spec(
        runs=8,
        evals=50,
        groups=(
            ("bbob-f1", "llamea", "lm-alpha"),
            ("bbob-f1", "eoh", "lm-beta"),
            ("bbob-f15", "llamea", "lm-beta"),
            ("bbob-f15", "eoh", "lm-alpha"),
        ),
        lines=55,
        inline=True,
        truncated=0,
        dangling=0,
    ),
    "large-modules-400": Spec(
        runs=4,
        evals=100,
        groups=(
            ("tsp-50", "llamea", "lm-alpha"),
            ("knapsack-100", "reevo", "lm-gamma"),
        ),
        lines=220,
        inline=False,
        truncated=8,
        dangling=8,
    ),
}

INITIAL = 3  # fresh modules at the start of each run
TOURNAMENT = 3
MISSING_FITNESS = 0.05

_VARS = ("pop", "best", "score", "step", "x", "y", "sigma", "delta", "acc", "idx", "cand", "trial")
_CALLS = ("abs", "min", "max", "len", "sum", "round", "sorted", "float", "int")
_MATH = ("sqrt", "exp", "log1p", "cos", "sin", "fabs")
_BIN = ("+", "-", "*", "/", "//", "%")
_CMP = ("<", ">", "<=", ">=", "==", "!=")
_AUG = ("+=", "-=", "*=")


class _Coder:
    """Random but always valid Python, shaped like optimizer code."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def atom(self, names: list[str]) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.45:
            return rng.choice(names)
        if r < 0.7:
            return str(rng.randint(0, 64))
        if r < 0.85:
            return f"{rng.uniform(0.0, 4.0):.3f}"
        if r < 0.92:
            return f"{rng.choice(names)}[{rng.randint(0, 3)}]"
        return rng.choice(("BASE_RATE", "POP_SIZE", "ELITE"))

    def expr(self, names: list[str], depth: int = 0) -> str:
        rng = self.rng
        if depth >= 2 or rng.random() < 0.45:
            return self.atom(names)
        a = self.expr(names, depth + 1)
        b = self.expr(names, depth + 1)
        k = rng.random()
        if k < 0.3:
            return f"({a} {rng.choice(_BIN)} {b})"
        if k < 0.42:
            return f"({a} {rng.choice(_CMP)} {b})"
        if k < 0.5:
            return f"({a} {rng.choice(('and', 'or'))} {b})"
        if k < 0.62:
            return f"{rng.choice(_CALLS)}({a})"
        if k < 0.7:
            return f"math.{rng.choice(_MATH)}({a})"
        if k < 0.78:
            return f"({a} if {b} else {self.atom(names)})"
        if k < 0.86:
            guard = f" if {rng.choice(('v', 'v % 2'))}" if rng.random() < 0.5 else ""
            return f"[v {rng.choice(_BIN)} {self.atom(names)} for v in {rng.choice(names)}{guard}]"
        if k < 0.93:
            return f"rng.uniform({a}, {b})"
        return f"(-{a})"

    def simple(self, pad: str, names: list[str], in_loop: bool) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.45:
            target = rng.choice(_VARS)
            if target not in names:
                names.append(target)
            return f"{pad}{target} = {self.expr(names)}"
        if r < 0.65:
            return f"{pad}{rng.choice(names)} {rng.choice(_AUG)} {self.expr(names)}"
        if r < 0.75:
            return f"{pad}pop.append({self.expr(names)})"
        if r < 0.82 and in_loop:
            return f"{pad}{rng.choice(('break', 'continue'))}"
        if r < 0.9:
            return f"{pad}assert {self.expr(names)}"
        return f"{pad}log.append(({self.atom(names)}, {self.atom(names)}))"

    def block(self, indent: int, names: list[str], depth: int, in_loop: bool, budget: int) -> list[str]:
        """Statements until about `budget` lines are used."""
        lines: list[str] = []
        while len(lines) < budget:
            lines += self.stmt(indent, names, depth, in_loop, budget - len(lines))
        return lines

    def stmt(self, indent: int, names: list[str], depth: int, in_loop: bool, budget: int) -> list[str]:
        rng = self.rng
        pad = "    " * indent
        if depth >= 3 or budget < 3 or rng.random() < 0.55:
            return [self.simple(pad, names, in_loop)]
        inner = min(budget - 1, rng.randint(2, 5))
        k = rng.random()
        if k < 0.35:
            head = [f"{pad}if {self.expr(names)}:"]
            body = self.block(indent + 1, names, depth + 1, in_loop, inner)
            if rng.random() < 0.4 and budget - len(body) > 3:
                body += [f"{pad}else:"] + self.block(indent + 1, names, depth + 1, in_loop, 2)
            return head + body
        if k < 0.65:
            var = rng.choice(("i", "j", "k"))
            if var not in names:
                names.append(var)
            bound = rng.choice((str(rng.randint(2, 30)), "len(pop)", "POP_SIZE"))
            head = [f"{pad}for {var} in range({bound}):"]
            return head + self.block(indent + 1, names, depth + 1, True, inner)
        if k < 0.8:
            head = [f"{pad}while {self.expr(names)} and budget > 0:", f"{pad}    budget -= 1"]
            return head + self.block(indent + 1, names, depth + 1, True, inner - 1)
        head = [f"{pad}try:"]
        body = self.block(indent + 1, names, depth + 1, in_loop, inner)
        tail = [f"{pad}except (ValueError, ZeroDivisionError):", f"{pad}    {rng.choice(_VARS)} = {self.atom(names)}"]
        return head + body + tail

    def function(self, name: str) -> str:
        rng = self.rng
        params = ["pop", "budget", "rng"] + rng.sample(["sigma", "x", "y", "delta"], rng.randint(0, 2))
        names = list(params) + ["best", "log"]
        lines = [f"def {name}({', '.join(params)}):", "    best = None", "    log = []"]
        lines += self.block(1, names, 0, False, rng.randint(6, 14))
        lines.append(f"    return {self.expr(names)}")
        return "\n".join(lines)

    def constants(self) -> str:
        rng = self.rng
        return "\n".join(
            [
                f"BASE_RATE = {rng.uniform(0.01, 0.9):.4f}",
                f"POP_SIZE = {rng.randint(4, 64)}",
                f"ELITE = {rng.randint(1, 4)}",
            ]
        )


HEADER = "import math\nimport random"


def _lines(chunks: list[str]) -> int:
    return sum(c.count("\n") + 2 for c in chunks)


def _render(chunks: list[str]) -> str:
    return "\n\n".join(chunks) + "\n"


def _fresh_module(coder: _Coder, target: int, counter: list[int]) -> list[str]:
    chunks = [HEADER, coder.constants()]
    while _lines(chunks) < target:
        counter[0] += 1
        chunks.append(coder.function(f"op_{counter[0]}"))
    return chunks


def _mutate(coder: _Coder, parent: list[str], other: list[str] | None, target: int, counter: list[int]) -> list[str]:
    rng = coder.rng
    chunks = list(parent)

    def funcs() -> list[int]:
        return [i for i, c in enumerate(chunks) if c.startswith("def ")]

    if other is not None:
        donor = [c for c in other if c.startswith("def ")]
        if donor and funcs():
            chunks[rng.choice(funcs())] = rng.choice(donor)
    for _ in range(rng.randint(1, 3)):
        size = _lines(chunks)
        if size > target * 1.1 and len(funcs()) > 1:
            op = "drop"
        elif size < target * 0.9:
            op = "add"
        else:
            op = rng.choice(("rewrite", "rewrite", "add", "drop", "retune"))
        if op == "rewrite" and funcs():
            i = rng.choice(funcs())
            name = chunks[i][4 : chunks[i].index("(")]
            chunks[i] = coder.function(name)
        elif op == "add":
            counter[0] += 1
            chunks.insert(rng.randint(2, len(chunks)), coder.function(f"op_{counter[0]}"))
        elif op == "drop" and len(funcs()) > 1:
            del chunks[rng.choice(funcs())]
        else:
            chunks[1] = coder.constants()
    return chunks


def _truncate(rng: random.Random, code: str) -> str:
    """Cut the module right after an opening parenthesis past its first third."""
    cuts = [i for i, ch in enumerate(code) if ch == "(" and i > len(code) // 3]
    return code[: rng.choice(cuts) + 1] + "\n"


def _fitness(rng: random.Random, parent_fitness: float | None, base: float) -> float:
    start = base if parent_fitness is None else parent_fitness
    return round(start + rng.gauss(0.01, 0.05), 6)


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write `log.jsonl` (and `code/*.py` when code is not inline) into
    out_dir. Returns the ids of the planted defects."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    coder = _Coder(rng)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not spec.inline:
        (out / "code").mkdir(exist_ok=True)

    # planted defects sit past each run's initial population, so no run loses its roots
    slots = [(r, e) for r in range(spec.runs) for e in range(INITIAL, spec.evals)]
    planted = rng.sample(slots, spec.truncated + spec.dangling)
    truncated = set(planted[: spec.truncated])
    dangling = set(planted[spec.truncated :])

    records = []
    failed_ids, dangling_ids = [], []
    counter = [0]
    for r in range(spec.runs):
        benchmark, method, llm = spec.groups[r % len(spec.groups)]
        run_id = f"run-{r:02d}"
        history: list[tuple[str, list[str], float | None]] = []  # selectable samples
        for e in range(spec.evals):
            sid = f"{run_id}-{e:03d}"
            parents: list[str] = []
            if e < INITIAL:
                chunks = _fresh_module(coder, spec.lines, counter)
                fit = _fitness(rng, None, 0.2 + 0.1 * (r % len(spec.groups)))
            else:
                entrants = rng.sample(history, min(TOURNAMENT, len(history)))
                first = max(entrants, key=lambda h: -1e9 if h[2] is None else h[2])
                other = None
                if rng.random() < 0.1 and len(history) > 1:
                    other = rng.choice([h for h in history if h[0] != first[0]])
                    parents = [first[0], other[0]]
                else:
                    parents = [first[0]]
                chunks = _mutate(coder, first[1], other and other[1], spec.lines, counter)
                fit = _fitness(rng, first[2], 0.2)
            if rng.random() < MISSING_FITNESS:
                fit = None
            code = _render(chunks)
            ast.parse(code)  # generator bug if this raises
            if (r, e) in truncated:
                code = _truncate(rng, code)
                fit = None
                failed_ids.append(sid)
                try:
                    ast.parse(code)
                except SyntaxError:
                    pass
                else:
                    raise AssertionError(f"truncated sample {sid} still parses")
            else:
                history.append((sid, chunks, fit))
            if (r, e) in dangling:
                parents = parents + [f"{run_id}-lost-{e:03d}"]
                dangling_ids.append(sid)
            rec = {
                "id": sid,
                "name": f"{method}-{sid}",
                "run_id": run_id,
                "method": method,
                "llm": llm,
                "benchmark": benchmark,
                "evaluation_index": e,
                "parent_ids": parents,
                "fitness_raw": fit,
            }
            if spec.inline:
                rec["code"] = code
            else:
                rel = f"code/{sid}.py"
                (out / rel).write_text(code, encoding="utf-8", newline="\n")
                rec["code_path"] = rel
            records.append(rec)

    with (out / "log.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return {"failed_ids": failed_ids, "dangling_ids": dangling_ids}


def digest(log_path) -> str:
    """sha256 over the log and every code file it names, in sorted order."""
    log_path = Path(log_path)
    h = hashlib.sha256()
    h.update(log_path.read_bytes())
    paths = set()
    for line in log_path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            path = json.loads(line).get("code_path")
            if path:
                paths.add(path)
    for rel in sorted(paths):
        h.update(b"\0" + rel.encode() + b"\0")
        h.update((log_path.parent / rel).read_bytes())
    return h.hexdigest()


def pinned_digest(workload: str, seed: int) -> str | None:
    entry = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    if isinstance(entry, str):  # a committed log: one digest for every seed
        return entry
    return (entry or {}).get(str(seed))


def _pin(seeds: range) -> None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for workload in SPECS:
        pins = table.setdefault(workload, {})
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=HERE, prefix="_tmp") as tmp:
                generate(workload, seed, tmp)
                pins[str(seed)] = digest(Path(tmp) / "log.jsonl")
        table[workload] = dict(sorted(pins.items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--pin", metavar="LO-HI", help="pin the digests of seeds LO..HI in digests.json")
    args = ap.parse_args(argv)
    if args.pin:
        lo, hi = (int(v) for v in args.pin.split("-"))
        _pin(range(lo, hi + 1))
        return 0
    if not (args.workload and args.out):
        ap.error("--workload and --out are required")
    planted = generate(args.workload, args.seed, args.out)
    print(json.dumps({"digest": digest(Path(args.out) / "log.jsonl"), **planted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
