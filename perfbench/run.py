"""Benchmark of `cegraph pipeline`, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload lineage-400 --seed 0 --seconds 20 --trace 0

The run generates its input from the seed (gen.py), then runs the real
CLI, `python -m cegraph.cli pipeline`, in fresh child processes with
`src` on the path, one invocation at a time (a closed loop with one
client), until `--seconds` have passed and at least MIN_REPEATS
invocations are done. Each invocation's outputs are checked against what
the log implies (check.py) and against the first invocation's bytes.

Every timed process is bracketed by runs of ref.py, a fixed task, and its
time is scaled to a reference machine speed (REF_NOMINAL_S); NOTES.md
says why.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
invocations with traced ones (traced.py) and prints the per-layer
metrics. Every metric is the median over the run's invocations. The last
stdout line is the JSON result; the full record, with metadata, samples
and artifact digests, goes to perfbench/_results/, and the spans of a
traced run to a file beside it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUNDLED_LOG = ROOT / "data" / "synthetic_run.jsonl"

# workload -> extra pipeline flags; bundled-66 reads the committed log, the others come from gen.py.
# large-modules-400 runs 600 t-SNE iterations: fewer leave the map half formed, so
# tsne_knn10_recall would swing between seeds (NOTES.md); featurization still dominates.
WORKLOADS = {
    "bundled-66": [],
    "lineage-400": [],
    "large-modules-400": ["--policy", "drop-dangling-edges", "--iterations", "600"],
}

SETUP_REPEATS = 7
MIN_REPEATS = 3  # untraced invocations per run, however long they take
MIN_TRACED = 2  # traced invocations per --trace 1 run
RUN_BUDGET_S = 165.0  # stop starting invocations that would end past this
CHILD_TIMEOUT_S = 150.0
# ref.py's typical time on the test machine. Each timed process is scaled by
# REF_NOMINAL_S / (mean time of the reference runs just before and after it),
# which takes out the machine's speed swings (see NOTES.md).
REF_NOMINAL_S = 0.25


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares; the run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class Child:
    """One finished child process: wall time, and CPU time and peak RSS of
    that process alone (os.wait4), not of all children so far."""

    def __init__(self, argv: list[str], env: dict, stderr_path: Path):
        with stderr_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stderr = stderr_path.read_text(encoding="utf-8", errors="replace")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def prepare_input(workload: str, seed: int, work: Path) -> tuple[Path, str, dict | None]:
    """The run log for this workload and seed, its digest, and the planted
    defects (None for the committed log). Raises if a digest moved."""
    if workload == "bundled-66":
        log, planted = BUNDLED_LOG, None
    else:
        planted = gen.generate(workload, seed, work / "input")
        log = work / "input" / "log.jsonl"
    digest = gen.digest(log)
    pinned = gen.pinned_digest(workload, seed)
    if pinned is not None and pinned != digest:
        raise RuntimeError(f"{workload} seed {seed}: input digest {digest} differs from pinned {pinned}")
    return log, digest, planted


def check_planted(exp: check.Expected, planted: dict | None) -> list[str]:
    if planted is None:
        return []
    problems = []
    if sorted(planted["failed_ids"]) != sorted(exp.failed):
        problems.append(f"unparsable samples {sorted(exp.failed)} differ from planted {planted['failed_ids']}")
    if len(planted["dangling_ids"]) != exp.dropped_refs:
        problems.append(f"{exp.dropped_refs} bad parent references, planted {len(planted['dangling_ids'])}")
    return problems


def layer_values(payload: dict, exp: check.Expected, scale: float = 1.0) -> dict[str, float]:
    """Per-layer numbers of one traced invocation, from its spans; times
    are multiplied by that invocation's machine-speed scale."""
    spans = payload["spans"]
    dur = [(end - start) * scale for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for (_, _, _, parent, _), d in zip(spans, dur):
        if parent >= 0:
            covered[parent] += d

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s[0] == name)

    def own(name):
        return sum(d - c for s, d, c in zip(spans, dur, covered) if s[0] == name)

    counts = payload["counts"]
    tsne_s = total("embed.tsne")
    iters = counts.get("embed.tsne_iterations", 0)
    return {
        "ingest.load_s": total("ingest.load"),
        "ingest.validate_s": total("ingest.validate"),
        "ingest.input_bytes": exp.input_bytes,
        "ingest.dropped_refs": counts.get("ingest.dropped_refs", 0),
        "features.featurize_dataset_s": total("features.featurize_dataset"),
        "features.ms_per_sample": 1000.0 * total("features.featurize_dataset") / exp.samples,
        "features.failed": counts.get("features.failed", 0),
        "pyast.parse_to_graph_s": total("pyast.parse_to_graph"),
        "pyast.ast_nodes": counts.get("pyast.ast_nodes", 0),
        "astfeat.graph_features_s": total("astfeat.graph_features"),
        "codemetrics.complexity_s": total("codemetrics.complexity"),
        "codemetrics.tokens": counts.get("codemetrics.tokens", 0),
        "ceg.build_s": total("ceg.build"),
        "ceg.to_json_s": total("ceg.to_json"),
        "ceg.json_bytes": counts.get("ceg.json_bytes", 0),
        "embed.pca_s": total("embed.pca"),
        "embed.joint_probabilities_s": total("embed.joint_probabilities"),
        "embed.tsne_s": tsne_s,
        "embed.tsne_loop_ms_per_iter": 1000.0 * (tsne_s - total("embed.joint_probabilities")) / iters if iters else 0.0,
        "embed.correlation_table_s": total("embed.correlation_table"),
        "embed.spearman_cells": counts.get("embed.spearman_cells", 0),
        "report.render_ceg_s": total("report.render_ceg"),
        "report.render_tsne_self_s": own("report.render_tsne"),
        "report.render_heatmap_s": total("report.render_heatmap"),
        "cli.write_s": total("cli.write"),
        "trace.layers_s": sum(d for s, d in zip(spans, dur) if s[3] < 0),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def metadata(args, digest: str) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or commit
    blas = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": digest,
        "input_digest_pinned": gen.pinned_digest(args.workload, args.seed) is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def run(args, work: Path) -> tuple[dict, dict]:
    t_begin = time.perf_counter()
    log, digest, planted = prepare_input(args.workload, args.seed, work)
    exp = check.expected_from_log(log)
    problems = check_planted(exp, planted)
    env = child_env()
    py = sys.executable
    cli = [py, "-m", "cegraph.cli", "pipeline", "--input", str(log)] + WORKLOADS[args.workload]
    import_cmd = [py, "-c", "import cegraph.cli"]

    def must(argv: list[str], name: str) -> Child:
        child = Child(argv, env, work / f"{name}.err")
        if child.exit != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} failed:\n{child.stderr}")
        return child

    # the first import compiles bytecode; users pay that once, so it is not timed
    must(import_cmd, "warm")
    refs = [must([py, str(HERE / "ref.py")], "ref").wall]

    def scaled(child: Child) -> tuple[Child, float]:
        """The child with the speed scale of the references run just
        before and just after it."""
        refs.append(must([py, str(HERE / "ref.py")], "ref").wall)
        return child, REF_NOMINAL_S * 2.0 / (refs[-2] + refs[-1])

    def probe() -> tuple[Child, float]:
        return scaled(must(import_cmd, "setup"))

    # set-up probes are spread over the run, one after each invocation, so
    # they see the same machine load as the invocations do
    setup = [probe() for _ in range(3)]

    reference: dict[str, str] | None = None
    recall = None
    runs, traced, payloads = [], [], []
    attempted = failed = 0

    def invoke(tag: str, argv: list[str]) -> tuple[Child, float]:
        nonlocal reference, recall, attempted, failed
        out = work / f"out-{tag}"
        child, scale = scaled(Child(argv + ["--out", str(out)], env, work / f"{tag}.err"))
        attempted += 1
        errs = [f"{tag}: exit {child.exit}: {child.stderr.strip()[-400:]}"] if child.exit != 0 else []
        if not errs:
            errs = [f"{tag}: {p}" for p in check.check_artifacts(out, exp)]
        if not errs:
            hashes = {name: check.sha256_of(out / name) for name in check.ARTIFACTS}
            if reference is None:
                reference, recall = hashes, check.tsne_recall(out)
            else:
                errs = [f"{tag}: {n} differs from the first invocation" for n in hashes if hashes[n] != reference[n]]
        if errs:
            failed += 1
            problems.extend(errs)
        shutil.rmtree(out, ignore_errors=True)
        return child, scale

    def trace_once(k: int) -> None:
        spans_file = work / f"spans-t{k}.json"
        traced.append(invoke(f"t{k}", [py, str(HERE / "traced.py"), str(spans_file), f"t{k}", "--"] + cli[3:]))
        if spans_file.exists():
            payloads.append((json.loads(spans_file.read_text(encoding="utf-8")), traced[-1][1]))

    t_measure = time.perf_counter()
    while True:
        k = len(runs)
        t0 = time.perf_counter()
        if args.trace and k % 2:  # alternate which of the pair runs first
            trace_once(k)
        runs.append(invoke(f"u{k}", cli))
        if args.trace and not k % 2:
            trace_once(k)
        setup.append(probe())
        step = time.perf_counter() - t0
        now = time.perf_counter()
        done = len(runs) >= (MIN_TRACED if args.trace else MIN_REPEATS) and now - t_measure >= args.seconds
        if done or now - t_begin + step > RUN_BUDGET_S:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(probe())

    if failed == 0 and not problems and len(payloads) != len(traced):
        problems.append("a traced invocation wrote no spans")
    ok_runs = [(c, k) for c, k in runs if c.exit == 0]
    featurized = exp.samples - len(exp.failed)
    raw = {
        "reference_s": refs,
        "setup_s": [c.wall for c, _ in setup],
        "wall_s": [c.wall for c, _ in ok_runs],
        "cpu_s": [c.cpu for c, _ in ok_runs],
    }
    samples = {
        "setup_s": [c.wall * k for c, k in setup],
        "wall_s": [c.wall * k for c, k in ok_runs],
        "samples_per_s": [featurized / (c.wall * k) for c, k in ok_runs],
        "cpu_s": [c.cpu * k for c, k in ok_runs],
        "peak_rss_mb": [c.rss_mb for c, _ in ok_runs],
    }
    values = {name: median(v) for name, v in samples.items()}
    values["parsed_sample_ratio"] = featurized / exp.samples
    values["tsne_knn10_recall"] = recall if recall is not None else float("nan")
    counts = {name: len(v) for name, v in samples.items()}

    record = {"expected": dataclasses.asdict(exp),
              "artifact_sha256": reference, "problems": problems,
              "raw_medians": {name: median(v) for name, v in raw.items()}, "raw_samples": raw}
    spans_out = None
    if args.trace:
        # scaled like the end-to-end times, so the two can be subtracted across invocations
        layer_runs = [layer_values(p, exp, k) for p, k in payloads]
        samples = {name: [r[name] for r in layer_runs] for name in (layer_runs[0] if layer_runs else {})}
        samples["trace.overhead_s"] = [median([c.wall * k for c, k in traced if c.exit == 0]) - values["wall_s"]]
        samples["cli.other_s"] = [values["wall_s"] - values["setup_s"] - median(samples.get("trace.layers_s", []))]
        values = {name: median(v) for name, v in samples.items()}
        counts = {name: len(v) for name, v in samples.items()}
        units = metric_units("per_layer")
        record["trace_notes"] = (
            "Spans wrap each layer's public functions in the same pass over the inputs; no layer is "
            "timed in a second pass. cli.other_s = untraced wall_s - setup_s - trace.layers_s; "
            "trace.overhead_s = traced wall - untraced wall (medians). All times are scaled."
        )
        record["missing_hooks"] = sorted({m for p, _ in payloads for m in p["missing"]})
        record["raw_samples"]["traced_wall_s"] = [c.wall for c, _ in traced]
        spans_out = [dict(p, scale=k) for p, k in payloads]
    else:
        units = metric_units("end_to_end")
    record["metrics"] = {name: {"value": values[name], "unit": units[name], "n": counts.get(name, 1),
                                "samples": samples.get(name)} for name in units}
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a metric with no successful sample (the run is then not correct) reads null
        "metrics": {name: {"value": values[name] if math.isfinite(values[name]) else None, "unit": units[name]}
                    for name in units},
    }
    return result, {"meta": metadata(args, digest), **record, "spans": spans_out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark `cegraph pipeline` end to end and per layer")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cegraph" / "cli.py").is_file():
        print(f"error: no cegraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "bundled-66" and not BUNDLED_LOG.is_file():
        print(f"error: missing {BUNDLED_LOG}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, record = run(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (results / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1), encoding="utf-8")

    for problem in record["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['attempted']} invocations, {result['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} median of {m['n']}")
    if not args.trace:
        print("  unscaled medians: " + ", ".join(f"{k} {v:.6g}" for k, v in record["raw_medians"].items()))
    if args.trace:
        print("  " + record["trace_notes"])
        if record["missing_hooks"]:
            print(f"  hooks not found (their metrics read 0): {', '.join(record['missing_hooks'])}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
