"""randmcp benchmark: one workload per process, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim_n49_pbd --seed 1 --seconds 20 --trace 0

``--trace 0`` times public API calls with nothing patched and prints the
end-to-end metrics.  ``--trace 1`` runs each call twice, untraced and
then with spans around the package's public functions, checks that both
give the same p-values, and prints the per-layer metrics.  ``--smoke``
shrinks every call (fewer re-randomizations and trials) for a quick
check of the plumbing; reference outputs are then not compared.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds details: reference check, per-method cost, machine record.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

_T0 = time.perf_counter()
# One BLAS thread per process, set before numpy loads; pool workers
# inherit it, so the two replay workers stay within two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99, 95, 90, 75)


def import_program():
    """Import randmcp from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "randmcp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/randmcp")
    sys.path.insert(0, str(src))
    import randmcp

    if Path(randmcp.__file__).resolve().parent != (src / "randmcp").resolve():
        sys.exit(f"perfbench: imported randmcp from {randmcp.__file__}, not {src}")
    sys.path.insert(0, str(ROOT))
    from perfbench import trace, workloads

    return trace, workloads


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest listed percentile with at least ten samples beyond it.

    With fewer than 40 samples no listed percentile qualifies and the
    maximum is reported.
    """
    ordered = sorted(samples) or [0.0]
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1], f"p{pct}"
    return ordered[-1], "max"


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Run:
    """Calls of one workload until the time is up, with their checks."""

    def __init__(self, wl, workloads, seed: int, smoke: bool):
        self.wl = wl
        self.workloads = workloads
        self.seed = seed
        self.order = wl.order(seed)
        self.reference = {} if smoke else workloads.load_reference().get(wl.name, {})
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.identical = True
        self.max_dp: dict[str, float] = {}
        self.method_s: dict[str, float] = {}
        self.method_trials: dict[str, int] = {}

    def check(self, input_id: int, result) -> None:
        """Validity and reference checks; count the call's operations."""
        self.attempted += result.trials
        bad = result.invalid
        ref = self.reference.get(str(input_id))
        if ref is not None:
            same, dp = self.workloads.compare(result, ref)
            self.checked += result.trials
            self.identical &= same
            for mid, d in dp.items():
                self.max_dp[mid] = max(self.max_dp.get(mid, 0.0), d)
            if max(dp.values(), default=0.0) > self.workloads.P_TOLERANCE:
                bad = result.trials
        self.failed += bad
        for mid, s in result.method_s.items():
            self.method_s[mid] = self.method_s.get(mid, 0.0) + s
            self.method_trials[mid] = self.method_trials.get(mid, 0) + result.method_trials[mid]

    def fail_call(self) -> None:
        ops = getattr(self.wl, "n_sim", 1)
        self.attempted += ops
        self.failed += ops

    def ms_per_trial(self) -> dict[str, float]:
        return {mid: 1000.0 * s / self.method_trials[mid] for mid, s in self.method_s.items()}

    def detail(self) -> dict:
        return {
            "reference_checked_ops": self.checked,
            "results_identical": self.identical if self.checked else None,
            "max_abs_dp": self.max_dp,
            "ms_per_trial": self.ms_per_trial(),
        }


def measure(wl, run: Run, seconds: float, traced: bool, trace_mod) -> dict:
    """Call the workload until the next call would overrun ``seconds``."""
    tracer = trace_mod.Tracer() if traced else None
    latencies: list[float] = []
    walls: list[float] = []  # wall per loop step, checks and traced calls included
    ops = 0
    busy = 0.0
    overhead = 0.0
    pool_overhead: list[float] = []
    mismatches = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if walls and time.perf_counter() + statistics.median(walls) > deadline:
            break
        input_id = wl.input_id(run.order, i, run.seed)
        i += 1
        t_call = time.perf_counter()
        try:
            result = wl.call(input_id)
        except Exception as exc:  # a failed operation, not a failed benchmark
            print(f"call {input_id} failed: {exc!r}", file=sys.stderr)
            run.fail_call()
            walls.append(time.perf_counter() - t_call)
            continue
        run.check(input_id, result)
        ops += result.trials
        busy += result.wall_s
        latencies.append(1000.0 * result.wall_s / result.trials)
        if traced:
            workers = getattr(wl, "workers", 1)
            untraced = result
            if workers > 1:
                # Spans live in this process, so the traced replay runs
                # serially; p-values do not depend on the worker count.
                untraced = wl.call(input_id, workers=1)
                method_total = sum(result.method_s.values())
                pool_overhead.append(
                    1000.0 * (result.wall_s - method_total / workers) / result.trials)
            tracer.op = i
            try:
                with tracer.installed():
                    traced_result = wl.call(input_id, workers=1)
            except Exception as exc:
                print(f"traced call {input_id} failed: {exc!r}", file=sys.stderr)
                traced_result = None
            if traced_result is None or traced_result.p != result.p \
                    or traced_result.digest != result.digest:
                mismatches += 1
                run.failed += result.trials
            else:
                overhead += traced_result.wall_s - untraced.wall_s
        walls.append(time.perf_counter() - t_call)

    if not traced:
        tail_value, tail_label = tail(latencies)
        return {
            "metrics": {
                "ops_per_s": ops / busy if busy else 0.0,
                "op_ms_p50": statistics.median(latencies) if latencies else 0.0,
                "op_ms_tail": tail_value,
            },
            "detail": {"calls": len(latencies), "ops": ops,
                       "op_ms_tail_percentile": tail_label},
        }

    per_op = max(ops, 1)
    layers = trace_mod.layer_metrics(tracer, per_op)
    traced_ms = tracer.top_level_ms()
    layers["trace.uncovered_share"] = \
        tracer.self_ms().get(trace_mod.ENTRY, 0.0) / traced_ms if traced_ms else 1.0
    layers["trace.overhead_ms"] = 1000.0 * overhead / per_op
    layers["trace.pvalue_mismatches"] = float(mismatches)
    layers["simulate.pool_overhead_ms"] = statistics.mean(pool_overhead) if pool_overhead else 0.0
    for mid in ("population", "glm_mle", "residual_mle", "glm_firth", "residual_firth"):
        layers[f"ms_per_trial.{mid}"] = run.ms_per_trial().get(mid, 0.0)
    layers["inference.nan_statistics"] = float(tracer.nan_statistics)
    run.failed += tracer.nan_statistics
    return {"metrics": layers,
            "detail": {"calls": len(latencies), "ops": ops, "spans": len(tracer.spans),
                       "self_ms_per_op_by_function": tracer.self_ms_by_function(per_op)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    trace_mod, workloads = import_program()
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        wl = workloads.make(args.workload, smoke=args.smoke)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup(workdir)
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        run = Run(wl, workloads, args.seed, args.smoke)
        out = measure(wl, run, args.seconds, bool(args.trace), trace_mod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = set(wanted) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "import_s": import_s,
              "setup_repeats_s": setups, **out["detail"], **run.detail(),
              "machine": machine_record()}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
