"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root:

    python3 perfbench/smoke.py

For each workload and each ``--trace`` value it runs ``perfbench/run.py
--size tiny`` and asserts that the run exits 0, that its last line is the
result object, that the correctness gate passed, and that every metric of
``BENCHMARK.json`` for that mode is emitted with its unit.  It also checks
that the benchmark fails, without printing a result, when the checkout
holds no spnstream sources.  Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("toy-stream-b1", "blocks-csv-b256", "blocks-learn-query")


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


def check_workload(name: str, trace: int, spec: dict) -> None:
    proc = run(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--size", "tiny"])
    assert proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, set(got) ^ {m["name"] for m in wanted}
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value)
        assert isinstance(value["value"], float), (m["name"], value)
        if not trace:
            assert value["value"] != 0.0, f"{name}: end-to-end metric {m['name']} is 0"


def check_refuses_bare_directory() -> None:
    bare = os.path.join(BENCH_DIR, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "toy-stream-b1", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "benchmark ran without program sources"
        assert not proc.stdout.strip(), f"printed a result: {proc.stdout!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for name in WORKLOADS:
        for trace in (0, 1):
            check_workload(name, trace, spec)
            print(f"ok {name} trace={trace}")
    check_refuses_bare_directory()
    print("ok refuses a checkout without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
