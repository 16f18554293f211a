"""Self-tests of the benchmark itself: generator determinism, detection of
corrupted artifacts, the neighbour-recall metric on toy maps whose answer
is known, and the span arithmetic of traced runs.

Run from the repository root: python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import check
import gen
import run


def _tmpdir():
    return tempfile.TemporaryDirectory(dir=run.HERE, prefix="_tmp")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        with _tmpdir() as a, _tmpdir() as b, _tmpdir() as c:
            gen.generate("lineage-400", 3, a)
            gen.generate("lineage-400", 3, b)
            gen.generate("lineage-400", 4, c)
            da, db, dc = (gen.digest(Path(d) / "log.jsonl") for d in (a, b, c))
        self.assertEqual(da, db)
        self.assertNotEqual(da, dc)

    def test_pinned_digests_still_match(self):
        for workload in gen.SPECS:
            pinned = gen.pinned_digest(workload, 0)
            self.assertIsNotNone(pinned, f"{workload} seed 0 is not pinned")
            with _tmpdir() as d:
                gen.generate(workload, 0, d)
                self.assertEqual(gen.digest(Path(d) / "log.jsonl"), pinned, workload)
        self.assertEqual(gen.digest(run.BUNDLED_LOG), gen.pinned_digest("bundled-66", 0))

    def test_planted_defects_match_the_log(self):
        with _tmpdir() as d:
            planted = gen.generate("large-modules-400", 1, d)
            exp = check.expected_from_log(Path(d) / "log.jsonl")
        spec = gen.SPECS["large-modules-400"]
        self.assertEqual(len(planted["failed_ids"]), spec.truncated)
        self.assertEqual(run.check_planted(exp, planted), [])
        self.assertEqual(exp.nodes, exp.samples - spec.truncated)


class ArtifactCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = _tmpdir()
        cls.out = Path(cls.tmp.name) / "ref"
        argv = [sys.executable, "-m", "cegraph.cli", "pipeline", "--input", str(run.BUNDLED_LOG), "--out", str(cls.out)]
        subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), check=True, capture_output=True)
        cls.exp = check.expected_from_log(run.BUNDLED_LOG)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def corrupted(self, name: str, edit) -> list[str]:
        out = Path(self.tmp.name) / f"bad-{name}"
        shutil.copytree(self.out, out)
        path = out / name
        edit(path)
        return check.check_artifacts(out, self.exp)

    def test_fresh_run_passes(self):
        self.assertEqual(check.check_artifacts(self.out, self.exp), [])

    def test_missing_artifact(self):
        self.assertTrue(self.corrupted("heatmap.svg", Path.unlink))

    def test_missing_feature_row(self):
        def drop_row(path):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[:-1]), encoding="utf-8")

        self.assertTrue(self.corrupted("features.csv", drop_row))

    def test_missing_edge(self):
        def drop_edge(path):
            doc = json.loads(path.read_text(encoding="utf-8"))
            next(g for g in doc["graphs"] if g["edges"])["edges"].pop()
            path.write_text(json.dumps(doc), encoding="utf-8")

        self.assertTrue(self.corrupted("ceg.json", drop_edge))

    def test_missing_correlation_column(self):
        def drop_column(path):
            rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(r[:-1] for r in rows)
            path.write_text(buf.getvalue(), encoding="utf-8")

        self.assertTrue(self.corrupted("correlations.csv", drop_column))

    def test_missing_map_point(self):
        def drop_point(path):
            text = path.read_text(encoding="utf-8")
            start = text.index('<circle class="point"')
            path.write_text(text[:start] + text[text.index("/>", start) + 2 :], encoding="utf-8")

        self.assertTrue(self.corrupted("tsne.svg", drop_point))

    def test_recall_of_the_bundled_map_is_stable(self):
        self.assertEqual(check.tsne_recall(self.out), check.tsne_recall(self.out))
        self.assertGreater(check.tsne_recall(self.out), 0.3)


class RecallTest(unittest.TestCase):
    def test_toy_maps_with_known_recall(self):
        feats = np.array([[0.0], [1.0], [10.0], [11.0]])
        self.assertEqual(check.knn_recall(feats, feats, k=1), 1.0)
        # map neighbours: 0-2, 1-3 instead of 0-1, 2-3
        self.assertEqual(check.knn_recall(feats, np.array([[0.0], [10.0], [1.0], [11.0]]), k=1), 0.0)
        # only point 3 (nearest on the map: point 1) loses its neighbour
        self.assertEqual(check.knn_recall(feats, np.array([[0.0], [1.0], [20.0], [5.0]]), k=1), 0.75)

    def test_two_clusters_kept_apart(self):
        rng = np.random.default_rng(0)
        feats = np.vstack([rng.normal(0, 1, (11, 28)), rng.normal(50, 1, (11, 28))])
        coords = np.vstack([rng.normal(0, 1, (11, 2)), rng.normal(30, 1, (11, 2))])
        self.assertEqual(check.knn_recall(feats, coords), 1.0)

    def test_marker_centres(self):
        svg = (
            '<circle class="point" cx="10.00" cy="20.00" r="3.00" fill="x"/>\n'
            '<rect class="point" x="7.00" y="17.00" width="6.00" height="6.00" fill="x"/>\n'
            '<polygon class="point" points="10.00,17.00 7.40,21.50 12.60,21.50" fill="x"/>\n'
            '<polygon class="point" points="10.00,17.00 13.00,20.00 10.00,23.00 7.00,20.00" fill="x"/>\n'
            '<circle class="legend" cx="1.00" cy="1.00" r="3.00"/>\n'
        )
        centres = check.point_centres(svg)
        self.assertEqual(centres.shape, (4, 2))
        np.testing.assert_allclose(centres, [[10.0, 20.0]] * 4, atol=1e-9)


class SpanTest(unittest.TestCase):
    def test_totals_self_times_and_top_level_sum(self):
        spans = [
            ["report.render_tsne", 0.0, 5.0, -1, "t0"],
            ["embed.tsne", 1.0, 4.0, 0, "t0"],
            ["embed.joint_probabilities", 1.0, 2.0, 1, "t0"],
            ["features.featurize_dataset", 6.0, 9.0, -1, "t0"],
            ["pyast.parse_to_graph", 6.0, 7.0, 3, "t0"],
        ]
        payload = {"spans": spans, "counts": {"embed.tsne_iterations": 100, "pyast.ast_nodes": 42}}
        exp = check.Expected(samples=3, failed=(), dropped_refs=0, nodes=3, edges=0, groups=1, legend=2,
                             input_bytes=10)
        v = run.layer_values(payload, exp)
        self.assertEqual(v["report.render_tsne_self_s"], 2.0)
        self.assertEqual(v["embed.tsne_s"], 3.0)
        self.assertEqual(v["embed.tsne_loop_ms_per_iter"], 20.0)
        self.assertEqual(v["features.ms_per_sample"], 1000.0)
        self.assertEqual(v["pyast.ast_nodes"], 42)
        self.assertEqual(v["trace.layers_s"], 8.0)
        self.assertEqual(run.layer_values(payload, exp, 0.5)["embed.tsne_s"], 1.5)
        # the run adds the two metrics that need the untraced invocations
        self.assertEqual(set(v) | {"cli.other_s", "trace.overhead_s"}, set(run.metric_units("per_layer")))


if __name__ == "__main__":
    unittest.main()
