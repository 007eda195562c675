"""``benchmarks/bench_eval.py`` runs end to end.

The tests import its networks (``bench_eval.wide_mixture``), but nothing
else runs the script, so a change that breaks one of its tables would go
unseen.  This runs it at batch 1 with a token timing budget (about 6 s)
and checks that it exits 0 and prints the toy marginal's and one-row
write's phase splits, the compile times of every network and of the
planted-blocks model, the planted-blocks query table, the cold pattern
table fills and the write table (each cell's median and min-max over its
alternating rounds), the write table's sum-free row and the
planted-blocks 16-row write's phase split.
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
    assert "median [min-max] of 5 alternating rounds" in lines[head[0]], lines[head[0]]
    for line, name in zip(lines[head[0] + 2:head[0] + 4], ("warm net", "after a 16-row write")):
        label, *cells = line.rsplit(maxsplit=4)
        assert label.strip() == name, line
        for median, spread in zip(cells[::2], cells[1::2]):
            low, high = (float(x) for x in spread.strip("[]").split("-"))
            assert 0 < low <= float(median) <= high, line
    # The compile lines: the three networks', then the planted-blocks model's.
    compiles = [line for line in lines
                if "compile ms, median [min-max] of 5 alternating rounds: " in line]
    assert len(compiles) == 4 and compiles[-1].startswith("planted blocks ("), proc.stdout
    for line in compiles:
        cells = line.split(": ", 1)[1].split("; ")
        assert [cell.rsplit(maxsplit=2)[0] for cell in cells] == [
            "compile_pool", "compile_pool + first sample"], line
        for cell in cells:
            _, median, spread = cell.rsplit(maxsplit=2)
            low, high = (float(x) for x in spread.strip("[]").split("-"))
            assert 0 < low <= float(median) <= high, line
    # The cold table fills: the planted-blocks k = 2 group, the wide mixture's k = 4.
    fills = [line for line in lines if line.startswith("cold table fill us")]
    assert len(fills) == 1, proc.stdout
    assert "median [min-max] of 5 alternating rounds: " in fills[0], fills[0]
    cells = fills[0].split(": ", 1)[1].split("; ")
    assert [cell.rsplit(maxsplit=2)[0].split(" (")[0] for cell in cells] == [
        "planted blocks k = 2", "wide mixture k = 4"], fills[0]
    assert cells[1].startswith("wide mixture k = 4 (256 leaves) "), fills[0]
    for cell in cells:
        _, median, spread = cell.rsplit(maxsplit=2)
        low, high = (float(x) for x in spread.strip("[]").split("-"))
        assert 0 < low <= float(median) <= high, fills[0]
    split = [line for line in lines if line.startswith("marginal by phase")]
    assert len(split) == 1, proc.stdout
    phases = split_phases(split[0])
    assert list(phases) == ["evidence layout", "shared_net", "leaf groups", "node groups",
                            "rest"], split[0]
    assert all(phases[name] > 0 for name in ("evidence layout", "leaf groups", "node groups"))
    # The one-row write's split times the leaf refresh and the weight refresh apart.
    split = [line for line in lines if line.startswith("one-row learn_batch by phase")]
    assert len(split) == 1, proc.stdout
    phases = split_phases(split[0])
    assert list(phases) == WRITE_PHASES, split[0]
    assert all(phases[name] > 0 for name in ("update_each", "leaf refresh", "refresh_weights"))
    # The planted-blocks 16-row write's split, a marginal after each write:
    # the statistics update and the routing run in every write.
    split = [line for line in lines if line.startswith("16-row learn_batch on planted blocks")]
    assert len(split) == 1, proc.stdout
    assert "median of 5 alternating rounds" in split[0], split[0]
    phases = split_phases(split[0])
    assert list(phases) == WRITE_PHASES, split[0]
    assert all(phases[name] > 0 for name in ("update_each", "eval_rows", "routing"))
    # The write table: each cell's median and min-max over its alternating
    # rounds.  Its sum-free row: the factorized start over 24 variables (25
    # nodes) at batch 256; bench_eval asserts that its stream makes no mixture.
    head = [i for i, line in enumerate(lines) if line.startswith("learn_batch rows/s on live models")]
    assert len(head) == 1, proc.stdout
    assert "median [min-max] of 5 alternating rounds" in lines[head[0]], lines[head[0]]
    sum_free = [line for line in lines if line.lstrip().startswith("factorized start (")]
    assert len(sum_free) == 1, proc.stdout
    label, batch, *cells = sum_free[0].rsplit(maxsplit=5)
    assert label.strip() == "factorized start (25 nodes)" and batch == "256", sum_free[0]
    for median, spread in zip(cells[::2], cells[1::2]):
        low, high = (float(x) for x in spread.strip("[]").split("-"))
        assert 0 < low <= float(median) <= high, sum_free[0]


WRITE_PHASES = ["update_each", "leaf refresh", "refresh_weights", "eval_rows", "routing", "rest"]


def split_phases(line: str) -> dict[str, float]:
    """The microseconds of each phase of a printed phase split."""
    phases = {}
    for part in line.split(": ", 1)[1].split(", "):
        name, us, share = part.rsplit(maxsplit=2)
        phases[name] = float(us)
        assert share.startswith("(") and share.endswith("%)"), part
    return phases
