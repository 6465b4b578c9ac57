import os
import subprocess
import sys
from pathlib import Path

import pytest

import critgraph

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_clean(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "[FAIL]" not in done.stdout
    # recorded with: python demos/NAME.py > tests/golden/demos/NAME.txt
    assert done.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()


def test_export_list_names_each_package_binding_once():
    # the demos import from the package by the names in __all__
    exported = critgraph.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(critgraph, name)] == []
