import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# Test networks shared with the benchmark scripts (bench_eval.wide_mixture).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
