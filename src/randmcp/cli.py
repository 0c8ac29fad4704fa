"""Command-line front end.

Subcommands: ``simulate`` (scenario power study), ``analyze`` (one
trial dataset), ``contrasts`` (export the contrast matrix), ``counts``
(reference-set size) and ``enumerate`` (stream the reference set).
Configs are JSON; every output embeds the config hash and seed so
identical inputs reproduce identical result bytes.

Each command has a read stage, which reads and checks every input and
writes nothing, and a run stage.  ``main`` maps their failures to exit
codes: 0 success, 1 runtime failure, 2 invalid input (any read-stage
error), 3 resource cap exceeded.
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
from functools import partial
from importlib.metadata import version as _pkg_version
from pathlib import Path

import numpy as np
import scipy

from .data import read_trial_csv
from .glm import SEP_NONE, SEP_UNCHECKED, available_cpus
from .inference import METHOD_IDS, analyze, check_exact
from .presets import build_preset_dict, preset_names
from .randomization import (
    ENUMERATION_CAP,
    EnumerationTooLargeError,
    count_sequences,
    enumerate_sequences,
)
from .rng import substream
from .simulate import (
    analysis_from_dict,
    contrasts_from_dict,
    replay_from_dict,
    run_table_block,
    scenario_from_dict,
    scenario_to_dict,
    spec_from_dict,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2
EXIT_CAP = 3

# Override flag -> the config field it replaces; ``--methods`` is folded apart.
_OVERRIDES = {"seed": "seed", "sims": "n_sim", "rand": "n_rand", "method": "method"}


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


def _load_config(args) -> dict:
    """The config dict of ``--preset`` or ``--config``; exactly one must be given."""
    if bool(args.preset) == bool(args.config):
        raise ValueError("give exactly one of --preset or --config")
    return build_preset_dict(args.preset) if args.preset else _load_json(args.config)


def _with_overrides(cfg: dict, args) -> dict:
    """``cfg`` with the override flags given on the command line folded in.

    ``--methods`` keeps the configured entry of each id it names, so the
    entry's settings survive; an id the config does not list gets a bare
    entry.  The result is the config a run records and hashes.
    """
    cfg = dict(cfg)
    for flag, key in _OVERRIDES.items():
        if getattr(args, flag, None) is not None:
            cfg[key] = getattr(args, flag)
    if getattr(args, "methods", None):
        entries = {e if isinstance(e, str) else e["id"]: e for e in cfg.get("methods", ())}
        cfg["methods"] = [entries.get(mid, mid) for mid in args.methods.split(",")]
    return cfg


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _read_simulate(args):
    cfg = _with_overrides(_load_config(args), args)
    workers = _worker_count(args.workers)
    if "potential_outcomes" in cfg:
        study = replay_from_dict(cfg, Path(args.config).parent)
        return partial(_run_replay, args, cfg, study, workers)
    return partial(_run_scenario, args, scenario_from_dict(cfg), workers)


def _run_scenario(args, config, workers: int) -> None:
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


def _run_replay(args, cfg: dict, study: dict, workers: int) -> None:
    """Replay-mode study: a fixed potential-outcomes table, many sequences."""
    from .simulate import simulate_from_potential_outcomes  # looked up at each call

    with _progress_to_stderr(args.progress):
        result = simulate_from_potential_outcomes(**study, workers=workers,
                                                  progress=args.progress)
    rows = [{
        "test": m.number,
        "method": m.method_id,
        "rejection_rate_pct": round(100 * m.rejection_rate, 2),
        "mcse_pct": round(100 * m.mcse, 3),
    } for m in result.methods]
    _write_study(Path(args.out), f"{study['name']}_po", {
        "provenance": provenance(cfg, study["seed"]),
        "config": cfg,
        "results": {
            "table": rows,
            "alpha": study["alpha"],
            "n_sim": study["n_sim"],
            "sorted_by_baseline": study["sort_by_baseline"],
            "diagnostics": {m.method_id: m.diagnostics for m in result.methods},
        },
        "timing": {m.method_id: m.mean_runtime_s for m in result.methods},
    })


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

def _read_analyze(args):
    cfg = _with_overrides(_load_json(args.config), args)
    spec, method, candidates, endpoint, seed = analysis_from_dict(cfg)
    if args.exact:
        check_exact(method)
    data = read_trial_csv(args.data, grid=spec.grid, endpoint=endpoint)
    return partial(_run_analyze, args, cfg, data, method, candidates, spec, seed)


def _run_analyze(args, cfg: dict, data, method, candidates, spec, seed: int) -> None:
    outcome = analyze(data, method, candidates, spec=spec, rng=substream(seed, 0),
                      exact=args.exact)
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

def _read_contrasts(args):
    return partial(_run_contrasts, args, *contrasts_from_dict(_load_json(args.config)))


def _run_contrasts(args, grid, matrix) -> None:
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


def _read_counts(args):
    return partial(_run_counts, spec_from_dict(_load_config(args)))


def _run_counts(spec) -> None:
    count, log10 = count_sequences(spec)
    print(f"procedure={spec.procedure} n={spec.n} arms={spec.k}")
    print(f"sequences={count}")
    print(f"log10={log10:.6f}")


def _read_enumerate(args):
    return partial(_run_enumerate, args, spec_from_dict(_load_config(args)))


def _run_enumerate(args, spec) -> None:
    sequences = enumerate_sequences(spec, cap=args.cap)  # checks the cap before any output
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
    sim.set_defaults(read=_read_simulate)

    ana = sub.add_parser("analyze", help="analyze one trial CSV")
    ana.add_argument("--data", required=True, help="trial CSV")
    ana.add_argument("--config", required=True, help="analysis config JSON")
    ana.add_argument("--method", help=f"method id, one of {METHOD_IDS}")
    ana.add_argument("--seed", type=int, help="seed for the re-randomization draws")
    ana.add_argument("--rand", type=int, help="number of re-randomizations")
    ana.add_argument("--exact", action="store_true",
                     help="enumerate the reference set instead of Monte Carlo")
    ana.add_argument("--out", help="write the result JSON here (default stdout)")
    ana.set_defaults(read=_read_analyze)

    con = sub.add_parser("contrasts", help="export the optimal contrast matrix")
    con.add_argument("--config", required=True, help="config JSON with doses and candidates")
    con.add_argument("--out", help="output CSV (default stdout)")
    con.set_defaults(read=_read_contrasts)

    cnt = sub.add_parser("counts", help="exact reference-set size")
    cnt.add_argument("--preset")
    cnt.add_argument("--config")
    cnt.set_defaults(read=_read_counts)

    enu = sub.add_parser("enumerate", help="stream the full reference set")
    enu.add_argument("--preset")
    enu.add_argument("--config")
    enu.add_argument("--out", help="output CSV (default stdout)")
    enu.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    enu.set_defaults(read=_read_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = args.read(args)
    except Exception as exc:
        print(f"{args.command}: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        run()
    except EnumerationTooLargeError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (Exception, KeyboardInterrupt) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
