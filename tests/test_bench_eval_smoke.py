"""``benchmarks/bench_eval.py`` runs end to end.

The tests import its networks (``bench_eval.wide_mixture``), but nothing
else runs the script, so a change that breaks one of its tables would go
unseen.  This runs it at batch 1 with a token timing budget (about 3 s)
and checks that it exits 0 and prints the toy marginal's phase split, the
planted-blocks query table and the write table's sum-free row.
"""

import os
import subprocess
import sys
from pathlib import Path

import spnstream

ROOT = Path(__file__).resolve().parents[1]


def test_bench_eval_runs_and_prints_the_planted_blocks_queries():
    src_root = str(Path(spnstream.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_root, inherited])))
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "bench_eval.py"),
                           "--batch-sizes", "1", "--min-seconds", "0.001"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
                          check=False)
    assert proc.returncode == 0, f"bench_eval.py exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.splitlines()
    head = [i for i, line in enumerate(lines) if line.startswith("planted blocks (")
            and "queries/s" in line]
    assert len(head) == 1, proc.stdout
    for line, name in zip(lines[head[0] + 1:head[0] + 3], ("warm net", "after a 16-row write")):
        label, marginal, conditional = line.rsplit(maxsplit=2)
        assert label.strip() == name and float(marginal) > 0 and float(conditional) > 0, line
    split = [line for line in lines if line.startswith("marginal by phase")]
    assert len(split) == 1, proc.stdout
    phases = {}
    for part in split[0].split(": ", 1)[1].split(", "):
        name, us, share = part.rsplit(maxsplit=2)
        phases[name] = float(us)
        assert share.startswith("(") and share.endswith("%)"), part
    assert list(phases) == ["evidence layout", "shared_net", "leaf groups", "node groups",
                            "rest"], split[0]
    assert all(phases[name] > 0 for name in ("evidence layout", "leaf groups", "node groups"))
    # The write table's sum-free row: the factorized start over 24 variables
    # (25 nodes) at batch 256; bench_eval asserts that its stream makes no mixture.
    sum_free = [line for line in lines if line.lstrip().startswith("factorized start (")]
    assert len(sum_free) == 1, proc.stdout
    label, batch, no_reads, with_reads = sum_free[0].rsplit(maxsplit=3)
    assert label.strip() == "factorized start (25 nodes)" and batch == "256", sum_free[0]
    assert float(no_reads) > 0 and float(with_reads) > 0, sum_free[0]
