"""Command-line front end.

Subcommands: ``simulate`` (scenario power study), ``analyze`` (one
trial dataset), ``contrasts`` (export the contrast matrix), ``counts``
(reference-set size) and ``enumerate`` (stream the reference set).
Configs are JSON; every output embeds the config hash and seed so
identical inputs reproduce identical result bytes.

Exit codes: 0 success, 1 runtime failure, 2 invalid input, 3 resource
cap exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import replace
from importlib.metadata import version as _pkg_version
from pathlib import Path

import numpy as np
import scipy

from .contrasts import contrast_matrix, shape_matrix
from .data import read_trial_csv
from .dose_response import DoseGrid, candidate_set_from_config, default_candidate_set
from .inference import METHOD_IDS, TestMethod, analyze
from .presets import load_preset, preset_names
from .randomization import (
    ENUMERATION_CAP,
    EnumerationTooLargeError,
    RandomizationSpec,
    count_sequences,
    enumerate_sequences,
)
from .rng import substream
from .simulate import (
    _SPEC_KEYS,
    _method_from_entry,
    _reject_unknown,
    run_table_block,
    scenario_from_dict,
    scenario_to_dict,
    spec_from_dict,
)
from .glm import SEP_NONE, SEP_UNCHECKED, available_cpus

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2
EXIT_CAP = 3


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def provenance(payload: dict, seed: int | None) -> dict:
    return {
        "config_sha256": _config_hash(payload),
        "seed": seed,
        "randmcp_version": _version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }


def _version() -> str:
    try:
        return _pkg_version("randmcp")
    except Exception:  # pragma: no cover - not installed
        return "unknown"


def _worker_count(requested: int | None) -> int:
    """``--workers``, else $RANDMCP_WORKERS, else the CPUs this process may use.

    Raises ValueError for a count below 1 or a non-integer variable.
    """
    if requested is None:
        env = os.environ.get("RANDMCP_WORKERS")
        if not env:
            return available_cpus()
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"RANDMCP_WORKERS must be an integer, not {env!r}") from None
    if requested < 1:
        raise ValueError(f"the worker count must be at least 1, not {requested}")
    return requested


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _candidates_from_config(cfg: dict):
    entries = cfg.get("candidates")
    return candidate_set_from_config(entries) if entries else default_candidate_set()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if bool(args.preset) == bool(args.config):
        print("simulate: give exactly one of --preset or --config", file=sys.stderr)
        return EXIT_INVALID
    if args.config:
        try:
            raw = _load_json(args.config)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"simulate: invalid configuration: {exc}", file=sys.stderr)
            return EXIT_INVALID
        if "potential_outcomes" in raw:
            return _simulate_potential_outcomes(raw, args)
    try:
        if args.preset:
            config = load_preset(args.preset)
        else:
            config = scenario_from_dict(_load_json(args.config))
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.sims is not None:
            config = replace(config, n_sim=args.sims)
        if args.rand is not None:
            config = replace(config, n_rand=args.rand)
        if args.methods:
            config = replace(config, methods=tuple(
                TestMethod(id=m, n_rand=config.n_rand) for m in args.methods.split(",")
            ))
        shape_matrix(config.candidates, config.grid)  # a degenerate candidate is invalid input
        workers = _worker_count(args.workers)
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"simulate: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID

    payload = scenario_to_dict(config)
    with _progress_to_stderr(args.progress):
        block = run_table_block(config, workers=workers, progress=args.progress)
    rows = block.rows()
    _write_study(Path(args.out), config.name, {
        "provenance": provenance(payload, config.seed),
        "config": payload,
        "results": {
            "table": rows,
            "null_separation": block.null.separation,
            "alternative_separation": block.alternative.separation,
            "null_diagnostics": {m.method_id: m.diagnostics for m in block.null.methods},
            "alternative_diagnostics": {
                m.method_id: m.diagnostics for m in block.alternative.methods
            },
        },
        # Wall-clock figures are naturally nondeterministic and sit outside
        # the byte-identical reproduction contract of the results block.
        "timing": {
            "null_mean_runtime_s": {m.method_id: m.mean_runtime_s for m in block.null.methods},
            "alternative_mean_runtime_s": {
                m.method_id: m.mean_runtime_s for m in block.alternative.methods
            },
        },
    })
    return EXIT_OK


_REPLAY_KEYS = {
    "name", "potential_outcomes", "endpoint", "candidates", "seed", "n_sim", "n_rand",
    "methods", "alpha", "include_baseline_covariate", "sort_by_baseline", *_SPEC_KEYS,
}


def _simulate_potential_outcomes(cfg: dict, args) -> int:
    """Replay-mode study: a fixed potential-outcomes table, many sequences."""
    from .data import read_potential_outcomes_csv
    from .dose_response import wide_range_candidate_set
    from .simulate import simulate_from_potential_outcomes

    try:
        _reject_unknown(cfg, _REPLAY_KEYS, "potential-outcomes config")
        spec = spec_from_dict(cfg)
        table_path = Path(cfg["potential_outcomes"])
        if not table_path.is_absolute():
            table_path = Path(args.config).parent / table_path
        table = read_potential_outcomes_csv(table_path,
                                            endpoint=cfg.get("endpoint", "continuous"))
        if cfg.get("candidates"):
            candidates = candidate_set_from_config(cfg["candidates"])
        else:
            candidates = wide_range_candidate_set(spec.grid.doses[-1])
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 1))
        n_sim = args.sims if args.sims is not None else int(cfg.get("n_sim", 1000))
        n_rand = args.rand if args.rand is not None else int(cfg.get("n_rand", 1000))
        method_ids = (args.methods.split(",") if args.methods
                      else cfg.get("methods", ["population", "residual_mle"]))
        methods = tuple(_method_from_entry(m, n_rand) for m in method_ids)
        name = cfg.get("name", "potential_outcomes")
        alpha = float(cfg.get("alpha", 0.05))
        workers = _worker_count(args.workers)
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"simulate: invalid potential-outcomes configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        with _progress_to_stderr(args.progress):
            result = simulate_from_potential_outcomes(
                table, spec, methods, candidates, alpha=alpha, n_sim=n_sim, seed=seed,
                include_baseline_covariate=bool(cfg.get("include_baseline_covariate", True)),
                sort_by_baseline=bool(cfg.get("sort_by_baseline", False)),
                name=name, workers=workers,
                progress=args.progress,
            )
    except ValueError as exc:
        print(f"simulate: invalid potential-outcomes configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    rows = [{
        "test": m.number,
        "method": m.method_id,
        "rejection_rate_pct": round(100 * m.rejection_rate, 2),
        "mcse_pct": round(100 * m.mcse, 3),
    } for m in result.methods]
    _write_study(Path(args.out), f"{name}_po", {
        "provenance": provenance(cfg, seed),
        "config": cfg,
        "results": {
            "table": rows,
            "alpha": alpha,
            "n_sim": n_sim,
            "sorted_by_baseline": bool(cfg.get("sort_by_baseline", False)),
            "diagnostics": {m.method_id: m.diagnostics for m in result.methods},
        },
        "timing": {m.method_id: m.mean_runtime_s for m in result.methods},
    })
    return EXIT_OK


def _write_study(out: Path, stem: str, summary: dict) -> None:
    """Write ``summary`` as JSON and its results table as CSV, hash and seed first.

    Creates ``out`` only here, so a study that fails leaves no directory.
    """
    out.mkdir(parents=True, exist_ok=True)
    prov = summary["provenance"]
    rows = summary["results"]["table"]
    csv_path = out / f"{stem}_table.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# config_sha256={prov['config_sha256']} seed={prov['seed']}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    json_path = out / f"{stem}_summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path} and {json_path}")


@contextlib.contextmanager
def _progress_to_stderr(enabled):
    """Send the ``randmcp.simulate`` progress log to stderr while a study runs."""
    logger = logging.getLogger("randmcp.simulate")
    handler = logging.StreamHandler(sys.stderr)
    level = logger.level
    if enabled:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    try:
        cfg = _load_json(args.config)
        spec = spec_from_dict(cfg)
        candidates = _candidates_from_config(cfg)
        method_id = args.method or cfg.get("method", "residual_firth")
        n_rand = args.rand if args.rand is not None else int(cfg.get("n_rand", 1000))
        method = TestMethod(id=method_id, n_rand=n_rand,
                            pvalue_rule=cfg.get("pvalue_rule", "plain"))
        data = read_trial_csv(args.data, grid=spec.grid,
                              endpoint=cfg.get("endpoint", "binary"))
        shape_matrix(candidates, spec.grid)  # a degenerate candidate is invalid input
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"analyze: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 1))
        outcome = analyze(
            data, method, candidates, spec=spec,
            rng=substream(seed, 0), exact=args.exact,
        )
    except EnumerationTooLargeError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    diagnostics = dict(outcome.diagnostics)
    result = {
        "provenance": provenance(cfg, seed),
        "method": method.id,
        "test_number": method.number,
        "p_value": outcome.p_value,
        "statistic": _json_float(outcome.statistic),
        "per_contrast": {
            label: _json_float(t)
            for label, t in zip(outcome.contrast_labels, outcome.per_contrast)
        },
        "diagnostics": _jsonable(diagnostics),
    }
    separation = diagnostics.get("fit_separation",
                                 diagnostics.get("observed_separation", SEP_NONE))
    if method.estimator == "mle" and method.statistic == "glm" \
            and separation not in (SEP_NONE, SEP_UNCHECKED):
        result["warning"] = (
            f"{separation} separation detected: maximum likelihood estimates do not "
            "exist and this p-value is not meaningful; use a firth-based method"
        )
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _json_float(v: float):
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return _json_float(float(obj))
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# contrasts / counts / enumerate
# ---------------------------------------------------------------------------

def _cmd_contrasts(args) -> int:
    try:
        cfg = _load_json(args.config)
        grid = DoseGrid(doses=tuple(cfg["doses"]))
        candidates = _candidates_from_config(cfg)
        if "arm_sizes" in cfg:
            matrix = contrast_matrix(candidates, grid, arm_sizes=cfg["arm_sizes"])
        elif "covariance" in cfg:
            matrix = contrast_matrix(candidates, grid, covariance=np.asarray(cfg["covariance"]))
        else:
            spec = spec_from_dict(cfg)
            matrix = contrast_matrix(candidates, grid, arm_sizes=spec.expected_arm_sizes())
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"contrasts: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID

    rows = [["candidate"] + [f"dose_{d:g}" for d in grid.doses]]
    for label, vec in zip(matrix.labels, matrix.vectors):
        rows.append([label] + [repr(float(v)) for v in vec])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {args.out}")
    else:
        csv.writer(sys.stdout).writerows(rows)
    for name in matrix.skipped:
        print(f"note: flat candidate {name!r} carries no contrast", file=sys.stderr)
    return EXIT_OK


def _resolve_spec(args) -> RandomizationSpec:
    if bool(args.preset) == bool(args.config):
        raise ValueError("give exactly one of --preset or --config")
    if args.preset:
        return load_preset(args.preset).spec
    return spec_from_dict(_load_json(args.config))


def _cmd_counts(args) -> int:
    try:
        spec = _resolve_spec(args)
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"counts: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    count, log10 = count_sequences(spec)
    print(f"procedure={spec.procedure} n={spec.n} arms={spec.k}")
    print(f"sequences={count}")
    print(f"log10={log10:.6f}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    try:
        spec = _resolve_spec(args)
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"enumerate: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        sequences = enumerate_sequences(spec, cap=args.cap)
    except EnumerationTooLargeError as exc:
        print(f"enumerate: {exc}", file=sys.stderr)
        return EXIT_CAP
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(["sequence_index", "probability", "assignments"])
        rows = (row for arms, probs in sequences for row in zip(arms.tolist(), probs.tolist()))
        for idx, (seq, prob) in enumerate(rows):
            writer.writerow([idx, repr(prob), " ".join(map(str, seq))])
    finally:
        if args.out:
            sink.close()
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randmcp",
        description="Randomization-based multiple contrast tests for dose finding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario power study")
    sim.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    sim.add_argument("--config", help="scenario config JSON")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--sims", type=int, help="override n_sim")
    sim.add_argument("--rand", type=int, help="override n_rand")
    sim.add_argument("--methods", help="comma-separated method ids to run")
    sim.add_argument("--workers", type=int, default=None,
                     help="worker processes, at least 1 (default: $RANDMCP_WORKERS, "
                          "else the CPUs this process may run on)")
    sim.add_argument("--progress", type=int, default=None,
                     help="log progress every N trials to stderr")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="analyze one trial CSV")
    ana.add_argument("--data", required=True, help="trial CSV")
    ana.add_argument("--config", required=True, help="analysis config JSON")
    ana.add_argument("--method", help=f"method id, one of {METHOD_IDS}")
    ana.add_argument("--seed", type=int, help="seed for the re-randomization draws")
    ana.add_argument("--rand", type=int, help="number of re-randomizations")
    ana.add_argument("--exact", action="store_true",
                     help="enumerate the reference set instead of Monte Carlo")
    ana.add_argument("--out", help="write the result JSON here (default stdout)")
    ana.set_defaults(func=_cmd_analyze)

    con = sub.add_parser("contrasts", help="export the optimal contrast matrix")
    con.add_argument("--config", required=True, help="config JSON with doses and candidates")
    con.add_argument("--out", help="output CSV (default stdout)")
    con.set_defaults(func=_cmd_contrasts)

    cnt = sub.add_parser("counts", help="exact reference-set size")
    cnt.add_argument("--preset")
    cnt.add_argument("--config")
    cnt.set_defaults(func=_cmd_counts)

    enu = sub.add_parser("enumerate", help="stream the full reference set")
    enu.add_argument("--preset")
    enu.add_argument("--config")
    enu.add_argument("--out", help="output CSV (default stdout)")
    enu.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    enu.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:  # pragma: no cover
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - final safety net
        print(f"randmcp: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
