"""Each demo runs to completion as its own process."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import PINNED_SHA256

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
# the artifacts a demo writes to demos/out/ with the bytes the CLI writes
WRITES_CLI_BYTES = {
    "03_build_ceg": ("ceg.json",),
    "05_correlations": ("correlations.csv", "heatmap.svg"),
}


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


def run_demo(demo):
    # the demos import cegraph from src and write only under demos/out/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    run_demo(demo)


@pytest.mark.parametrize("demo", sorted(WRITES_CLI_BYTES))
def test_demo_writes_what_the_cli_writes(demo):
    # the demo and `cegraph pipeline` on the bundled log write the same
    # bytes, which tests/test_cli.py pins
    run_demo(ROOT / "demos" / f"{demo}.py")
    out = ROOT / "demos" / "out"
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in WRITES_CLI_BYTES[demo]}
    assert got == {name: PINNED_SHA256[name] for name in WRITES_CLI_BYTES[demo]}
