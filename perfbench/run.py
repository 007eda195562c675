"""spnstream benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload toy-stream-b1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload blocks-csv-b256 --size tiny --seconds 1

Each workload runs in its own process (``all`` starts one per workload),
single-threaded, as a closed loop with one caller.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  The lines before it
are a readable report, and the full result (environment, tail percentiles,
sample counts) is written to ``perfbench/out/``.

Seed 1701 is reserved for confirming a claimed gain: do not use it while a
change is being written or tuned.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one caller, no extra threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
CONFIRM_SEED = 1701
# Fastest time of workloads.machine_probe on an uncontended 2-vCPU Xeon
# virtual machine (Python 3.11, numpy 2.4).  Reported times are scaled by
# this over the run's probe time; see _normalize.
PROBE_REF_S = 0.71e-3
PROBES_PER_SETUP = 8     # before and after each stream's set-up
# A repeat this many times slower than the median of its operation's repeats
# was stalled (the virtual CPU preempted), not slowed; see _mean_of_repeats.
STALL_FACTOR = 3.0
WORKLOAD_NAMES = ("toy-stream-b1", "blocks-csv-b256", "blocks-learn-query")


def _import_package():
    """Import spnstream from this checkout's ``src``, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "spnstream", "__init__.py")):
        print(f"error: no spnstream sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import spnstream
    if not os.path.abspath(spnstream.__file__).startswith(SRC + os.sep):
        print(f"error: spnstream imported from {spnstream.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return spnstream


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    spnstream = _import_package()
    from spnstream import kernels
    import numpy as np
    import tracing
    import workloads as W

    spec = _load_spec()
    sizes = W.SIZES[size][name]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    meter_inst = tracing.Instrument()
    trace_inst = tracing.Instrument()
    try:
        meter = tracing.BatchMeter()
        meter.install(meter_inst)
        prober = W.Prober(W.WORKLOADS[name].probe_every)
        meter.after = prober.after_batch
        fails = W.Failures()

        # Set-up, one stream at a time; setup_s is the median over streams.
        setup_times = []
        setup_probes = []
        wl = W.WORKLOADS[name](sizes, seed, workdir, prober)
        for j in range(sizes.streams):
            setup_probes.extend(W.machine_probe() for _ in range(PROBES_PER_SETUP))
            start = time.perf_counter()
            wl.streams.append(wl.setup_stream(j))
            setup_times.append(time.perf_counter() - start)
            setup_probes.extend(W.machine_probe() for _ in range(PROBES_PER_SETUP))
        # Warm-up: one untimed episode of every stream, within the measuring
        # time.  Its models are gated too, and their digests are the first of
        # each reproducibility pair.
        t_start = time.perf_counter()
        digests: dict[int, list[str]] = {j: [] for j in range(sizes.streams)}
        heldout_ll: dict[int, float] = {}
        for j in range(sizes.streams):
            ep = wl.episode(j, fails)
            meter.take()
            heldout_ll[j], d = W.gate(wl, ep, fails)
            digests[j].append(d)

        tracer = tracing.Tracer() if trace else None
        episodes = []            # (traced, Episode)
        probe_rounds = []        # per untraced round, its probe times in order
        rounds = 0
        round_s = 0.0
        # Start a round only if it should end within the measuring time.
        while rounds < 2 or time.perf_counter() - t_start + round_s <= seconds:
            t_round = time.perf_counter()
            traced_round = trace and rounds % 2 == 1
            if traced_round:
                tracer.install(trace_inst)
                tracer.active = True
            else:  # probes would land inside traced spans
                prober.start_round()
            for j in range(sizes.streams):
                gc.collect()  # every episode starts from the same collector state
                ep = wl.episode(j, fails)
                ep.batch_lat, ep.rows = meter.take()
                if traced_round:
                    tracer.active = False
                digests[j].append(W.gate(wl, ep, fails)[1])
                if traced_round:
                    tracer.active = True
                ep.nodes = len(ep.pool.nodes) if ep.pool is not None else 0
                ep.pool = None
                episodes.append((traced_round, ep))
            if traced_round:
                tracer.active = False
                trace_inst.uninstall()
            else:
                prober.active = False
                probe_rounds.append(prober.times)
            rounds += 1
            round_s = max(round_s, time.perf_counter() - t_round)

        W.gate_run(wl, heldout_ll, fails)
        for j, ds in digests.items():
            fails.check(len(ds) >= 2 and len(set(ds)) == 1,
                        f"stream {j}: {len(ds)} trainings on one seed give one model digest")
        fails.check(threading.active_count() == 1, "no extra Python threads")

        env = {
            "kernel": "numba" if kernels.NUMBA_ENABLED else "numpy",
            "numba_enabled": bool(kernels.NUMBA_ENABLED),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "spnstream": spnstream.__version__,
        }
        detail = {"workload": name, "seed": seed, "seconds": seconds, "size": size,
                  "trace": int(trace), "rounds": rounds, "streams": sizes.streams,
                  "setup_runs_s": setup_times, "env": env,
                  "setup_probe_ms": [round(1e3 * p, 3) for p in setup_probes],
                  "machine_probe_ms": [[round(1e3 * p, 3) for p in r] for r in probe_rounds],
                  "probe_ref_ms": 1e3 * PROBE_REF_S}
        detail["probe_ms"] = 1e3 * _probe_time(probe_rounds)
        detail["time_scale"] = PROBE_REF_S / _probe_time(probe_rounds)
        # A set-up is timed whole, so it runs at the mean speed of its time.
        detail["setup_scale"] = PROBE_REF_S / statistics.fmean(setup_probes)
        untraced = [e for t, e in episodes if not t]
        if trace:
            traced = [e for t, e in episodes if t]
            wall = statistics.fmean(e.wall_s for e in traced)
            base = statistics.fmean(e.wall_s for e in untraced)
            nodes_mean = statistics.fmean(e.nodes for e in traced)
            metrics = tracing.per_layer(tracer, len(traced), sum(e.wall_s for e in traced),
                                        wall, base, nodes_mean)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json.gz")
            tracer.write(trace_path)
            detail["trace_file"] = os.path.relpath(trace_path, ROOT)
            detail["untraced_wall_s"] = base
        else:
            metrics, extra = _end_to_end(untraced, sizes, setup_times, heldout_ll, W)
            detail.update(extra)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        detail["measured"] = dict(metrics)
        metrics = _normalize(metrics, units, detail["time_scale"])
        if "setup_s" in metrics:
            metrics["setup_s"] = detail["measured"]["setup_s"] * detail["setup_scale"]
        missing = sorted(set(units) - set(metrics))
        fails.check(not missing, f"metrics emitted: missing {missing}")
        result = {
            "correct": fails.failed == 0,
            "attempted": fails.attempted,
            "failed": fails.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                        for k in units if k in metrics},
        }
        detail["failed_ops_ratio"] = fails.failed / fails.attempted
        detail["failures"] = fails.messages
        _report(name, result, detail)
        with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"result": result, "detail": detail}, fh, indent=2)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        trace_inst.uninstall()
        meter_inst.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _normalize(metrics: dict, units: dict, scale: float) -> dict:
    """Times and rates as on an uncontended machine.

    Times are multiplied, and rates divided, by ``scale``, which is
    ``PROBE_REF_S / _probe_time(...)``; see ``_probe_time``.  ``setup_s`` is
    then scaled by the mean of the probes just before and after each
    stream's set-up instead.
    """
    out = {}
    for key, value in metrics.items():
        unit = units.get(key, "")
        if unit in ("s", "ms", "ns"):
            value *= scale
        elif unit.endswith("/s"):
            value /= scale
        out[key] = value
    return out


def _probe_time(probe_rounds: list) -> float:
    """The probe's mean time, over probes spread among the operations.

    On a shared 2-vCPU virtual machine the speed flips between a fast and a
    1.6x slower state; fast spells last milliseconds to seconds, and the
    share of slow time ranges from under half to over 90% from run to run.
    An operation's mean time over its repeats grows with that share alike
    for short and long operations, and so does the mean of probes taken
    among them, so scaling by the mean probe cancels it.  (The fastest
    repeat does not: a short operation often finds a fast spell and a long
    one seldom does.)
    """
    import numpy as np
    n = min(len(r) for r in probe_rounds)
    return float(_mean_of_repeats(np.array([r[:n] for r in probe_rounds])).mean())


def _mean_of_repeats(times):
    """Mean over axis 0 (the repeats), leaving out stalled repeats.

    The slow state costs about 2x at most; a repeat that took more than
    ``STALL_FACTOR`` times the median was stalled for milliseconds.  Stalls
    are rare, but one in a short call would otherwise decide the tail
    percentiles.
    """
    import numpy as np
    keep = times <= STALL_FACTOR * np.median(times, axis=0)
    return (times * keep).sum(axis=0) / keep.sum(axis=0)


def _end_to_end(eps, sizes, setup_times, heldout_ll, W):
    """End-to-end metrics from the untraced episodes.

    Episodes of one stream repeat identical operations, so each operation's
    time is the mean of its repeats (see ``_probe_time`` and
    ``_mean_of_repeats``).  Rates are taken
    per stream and averaged over streams; latency percentiles are taken
    over the operations of all streams.
    """
    import numpy as np

    per_stream = {k: [] for k in ("train", "pipeline", "score", "marginal", "conditional",
                                  "sample")}
    batch_mean, read_mean = [], []
    for j in range(sizes.streams):
        mine = [e for e in eps if e.stream == j]
        n_b = min(len(e.batch_lat) for e in mine)
        n_r = min(len(e.read_ops) for e in mine)
        b = _mean_of_repeats(np.array([e.batch_lat[:n_b] for e in mine]))
        r = _mean_of_repeats(np.array([[op[1] for op in e.read_ops[:n_r]] for e in mine]))
        kinds = np.array([op[0] for op in mine[0].read_ops[:n_r]])
        units = np.array([op[2] for op in mine[0].read_ops[:n_r]], dtype=float)
        per_stream["train"].append(mine[0].rows / b.sum())
        pipeline_s = _mean_of_repeats(np.array([e.pipeline_s for e in mine]))
        per_stream["pipeline"].append(mine[0].rows / pipeline_s)
        for kind in ("score", "marginal", "conditional", "sample"):
            sel = kinds == kind
            per_stream[kind].append(units[sel].sum() / r[sel].sum())
        batch_mean.append(b)
        read_mean.append(r)
    batch_lat = np.concatenate(batch_mean)
    read_lat = np.concatenate(read_mean)
    batch_p = W.tail_percentile(batch_lat.size)
    read_p = W.tail_percentile(read_lat.size)
    ll = statistics.fmean(heldout_ll.values())
    mean = statistics.fmean
    metrics = {
        "setup_s": statistics.median(setup_times),
        "train_rows_per_s": mean(per_stream["train"]),
        "batch_latency_p50_ms": 1e3 * float(np.percentile(batch_lat, 50)),
        "batch_latency_tail_ms": 1e3 * float(np.percentile(batch_lat, batch_p)),
        "pipeline_rows_per_s": mean(per_stream["pipeline"]),
        "heldout_nll": -ll,
        "score_rows_per_s": mean(per_stream["score"]),
        "marginal_queries_per_s": mean(per_stream["marginal"]),
        "conditional_queries_per_s": mean(per_stream["conditional"]),
        "sample_rows_per_s": mean(per_stream["sample"]),
        "query_latency_p50_ms": 1e3 * float(np.percentile(read_lat, 50)),
        "query_latency_tail_ms": 1e3 * float(np.percentile(read_lat, read_p)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "heldout_ll": ll,
        "batch_latency_tail_percentile": batch_p,
        "batch_latency_samples": int(batch_lat.size),
        "query_latency_tail_percentile": read_p,
        "query_latency_samples": int(read_lat.size),
        "repeats_per_operation": len(eps) // sizes.streams,
        "rows_per_episode": eps[0].rows,
        "model_nodes": statistics.fmean(e.nodes for e in eps),
    }
    return metrics, extra


def _report(name: str, result: dict, detail: dict) -> None:
    env = detail["env"]
    print(f"workload {name}  seed {detail['seed']}  size {detail['size']}  "
          f"rounds {detail['rounds']} x {detail['streams']} streams")
    print(f"env kernel={env['kernel']} numpy={env['numpy']} python={env['python']} "
          f"nproc={env['nproc']} affinity={env['affinity']} blas_threads={env['blas_threads']}")
    print(f"times scaled by {detail['time_scale']:.4f} = probe reference "
          f"{detail['probe_ref_ms']:.3f} ms / run's probe {detail['probe_ms']:.3f} ms")
    for key, m in result["metrics"].items():
        measured = detail["measured"][key]
        note = f"  (measured {measured:.6g})" if measured != m["value"] else ""
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}{note}")
    if "heldout_ll" in detail:
        print(f"  {'heldout_ll':32s} {detail['heldout_ll']:.6g} nats/row")
        print(f"  batch latency tail = p{detail['batch_latency_tail_percentile']:g} "
              f"of {detail['batch_latency_samples']} calls; query latency tail = "
              f"p{detail['query_latency_tail_percentile']:g} of "
              f"{detail['query_latency_samples']} reads; each the mean of "
              f"{detail['repeats_per_operation']} repeats")
    if "untraced_wall_s" in detail:
        m = detail["measured"]
        print(f"  measured: traced episode {m['trace.wall_s']:.4f} s, untraced "
              f"{detail['untraced_wall_s']:.4f} s, overhead {m['trace.overhead_s']:.4f} s; "
              f"spans cover {100 * m['trace.coverage']:.1f}% of traced wall time")
    print(f"  {'failed_ops_ratio':32s} {detail['failed_ops_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")


def run_all(args) -> int:
    """Every workload in its own process; ends with one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least two rounds always run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)
    if args.workload == "all":
        _import_package()
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
