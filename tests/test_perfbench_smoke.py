"""The benchmark's smoke test, run as part of the test suite.

``perfbench/smoke.py`` runs every workload at tiny size, untraced and
traced, and checks that each exits 0, passes its correctness gate and
emits every metric of ``BENCHMARK.json``.  Running it here makes a change
that breaks an episode (the CSV-to-model one reads through
``dataset.load_csv``) fail ``pytest``.  It takes about 10 s and writes only
under the git-ignored ``perfbench/out/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import spnstream

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_passes():
    # The child imports the same spnstream source as this process, ahead of
    # any inherited (possibly relative) PYTHONPATH.
    src_root = str(Path(spnstream.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_root, inherited])))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=900, check=False)
    assert proc.returncode == 0, f"smoke.py exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
