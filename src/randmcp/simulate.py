"""Trial simulation: data generation, power studies, potential-outcome replay.

A scenario fixes the design (grid, randomization procedure, sample
size), the truth curve (an emax shape calibrated to placebo/top-dose
response rates), the covariate strength, an optional enrollment-time
drift of the success probabilities, and the battery of test methods.
Each simulated trial draws its own counter-based RNG streams keyed by
the trial index, so a study is reproducible regardless of how trials
are scheduled; all methods see the same simulated data and share one
batch of re-randomization sequences per trial.  Every config format the
CLI takes (scenario, replay, analysis, contrasts) is read here.
"""
from __future__ import annotations

import logging
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .contrasts import ContrastMatrix, contrast_matrix, shape_matrix
from .data import PotentialOutcomeTable, TrialDataset, read_potential_outcomes_csv
from .dose_response import (
    CandidateModel,
    CandidateSet,
    DoseGrid,
    calibrate_emax,
    candidate_set_from_config,
    default_candidate_set,
    eval_model,
    inverse_logit,
    wide_range_candidate_set,
)
from .glm import separation_batch
from .inference import (
    TestMethod,
    default_methods,
    population_test,
    randomization_test,
)
from .randomization import RandomizationSpec, sample_sequence, sample_sequences
from .rng import substream

# Substream domains: one per independent random ingredient of a trial.
_GEN, _RERAND, _QMC = 0, 1, 2
# Per-trial method diagnostics that a study sums over its trials.
_SUMMED_DIAGNOSTICS = ("separated_refits", "nonconverged_refits", "redrawn_sequences")

TIME_TRENDS = ("none", "linear")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScenarioConfig:
    """One data-generating scenario of the binary-endpoint study."""

    name: str
    spec: RandomizationSpec
    p0: float = 0.2
    pk: float = 0.8
    emax_ed50: float = 10.0
    covariate_coef: float = 0.6
    covariate_in_analysis: bool = True
    time_trend: str = "none"
    alpha: float = 0.10
    n_sim: int = 10_000
    n_rand: int = 1_000
    methods: tuple[TestMethod, ...] = ()
    candidates: CandidateSet = field(default_factory=default_candidate_set)
    seed: int = 1

    def __post_init__(self):
        if self.time_trend not in TIME_TRENDS:
            raise ValueError(f"time_trend must be one of {TIME_TRENDS}")
        _check_size(self.n_sim, self.alpha)
        if not 0.0 < self.emax_ed50 < np.inf:
            raise ValueError(f"emax_ed50 must be positive and finite, not {self.emax_ed50}")
        self.truth_model()  # runs the calibration's and the candidate's checks
        if not np.isfinite(self.covariate_coef):
            raise ValueError(f"covariate_coef must be finite, not {self.covariate_coef}")
        methods = self.methods or default_methods(self.n_rand)
        methods = tuple(
            m if m.n_rand == self.n_rand or m.id == "population"
            else replace(m, n_rand=self.n_rand)
            for m in methods
        )
        object.__setattr__(self, "methods", methods)

    @property
    def grid(self) -> DoseGrid:
        return self.spec.grid

    def truth_model(self) -> CandidateModel:
        theta0, theta1 = calibrate_emax(
            self.p0, self.pk, self.grid.doses[-1], self.emax_ed50
        )
        return CandidateModel(
            shape="emax", theta0=theta0, theta1=theta1, theta2=self.emax_ed50,
            name="truth_emax",
        )


def _check_size(n_sim: int, alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n_sim < 1:
        raise ValueError("n_sim must be positive")


def linear_time_trend(n: int) -> np.ndarray:
    """Probability-scale drift over enrollment: ramps from ~-0.2 to +0.2."""
    i = np.arange(1, n + 1, dtype=float)
    return 0.4 * i / n - 0.2


def generate_binary_trial(config: ScenarioConfig, rng: np.random.Generator) -> TrialDataset:
    """Simulate one trial of the scenario.

    Draws the treatment sequence from the randomization procedure, one
    standard-normal covariate per patient, success probabilities from
    the truth curve plus the covariate effect on the logit scale, an
    optional enrollment-time drift added on the probability scale and
    clamped to [0, 1], and finally the binary outcomes.
    """
    spec = config.spec
    truth = config.truth_model()
    arms = sample_sequence(spec, rng)
    x = rng.normal(size=spec.n)
    eta = np.asarray(eval_model(truth, spec.grid.as_array()))[arms] + config.covariate_coef * x
    gamma = np.asarray(inverse_logit(eta))
    if config.time_trend == "linear":
        gamma = np.clip(gamma + linear_time_trend(spec.n), 0.0, 1.0)
    y = (rng.random(spec.n) < gamma).astype(float)
    return TrialDataset(arms=arms, outcomes=y, covariates=x, grid=spec.grid,
                        endpoint="binary")


@dataclass
class MethodSummary:
    """Aggregated performance of one method over a study."""

    method_id: str
    number: int
    rejection_rate: float
    mcse: float
    n_sim: int
    alpha: float
    mean_runtime_s: float
    diagnostics: dict


@dataclass
class StudyResult:
    """All per-method summaries of one simulated scenario."""

    name: str
    sample_size: int
    procedure: str
    time_trend: str
    alpha: float
    p0: float
    pk: float
    n_sim: int
    n_rand: int
    seed: int
    methods: list[MethodSummary]
    separation: dict
    p_values: dict = field(default_factory=dict)  # method_id -> np.ndarray

    def summary(self, method_id: str) -> MethodSummary:
        for m in self.methods:
            if m.method_id == method_id:
                return m
        raise KeyError(method_id)


# ---------------------------------------------------------------------------
# The trial engine shared by power studies and potential-outcome replay
# ---------------------------------------------------------------------------

def _trial_diagnostics(data: TrialDataset, covariate_in_analysis: bool) -> dict:
    """Separation code (an index into ``glm.SEP_NAMES``) plus degenerate-arm flags."""
    k = data.grid.k
    sizes = data.arm_sizes()
    succ = np.bincount(data.arms, weights=data.outcomes, minlength=k)
    degenerate = (succ == 0) | (succ == sizes)
    out = {
        "any_arm_degenerate": bool(np.any(degenerate & (sizes > 0))),
        "placebo_degenerate": bool(degenerate[0] and sizes[0] > 0),
    }
    if data.endpoint == "binary":
        x = data.covariates if covariate_in_analysis else None
        out["separation_code"] = int(separation_batch(data.arms[None, :], data.outcomes, x, k)[0])
    return out


def _run_methods_on_trial(
    data: TrialDataset,
    spec: RandomizationSpec,
    methods: tuple[TestMethod, ...],
    candidates: CandidateSet,
    seed: int,
    trial: int,
) -> dict[str, tuple[float, float, dict]]:
    """p-value, runtime and refit counters per method, sharing one sequence batch."""
    shared: np.ndarray | None = None
    n_rand = max((m.n_rand for m in methods if m.is_randomization), default=0)
    if n_rand:
        shared = sample_sequences(spec, n_rand, substream(seed, _RERAND, trial))
    out = {}
    for method in methods:
        start = time.perf_counter()
        if method.id == "population":
            res = population_test(data, candidates, method=method,
                                  rng=substream(seed, _QMC, trial))
        else:
            seqs = shared[: method.n_rand] if shared is not None else None
            res = randomization_test(
                data, spec, method, candidates,
                rng=substream(seed, _RERAND, trial, method.number),
                sequences=seqs,
            )
        runtime = time.perf_counter() - start
        counts = {key: res.diagnostics[key] for key in _SUMMED_DIAGNOSTICS
                  if key in res.diagnostics}
        out[method.id] = (res.p_value, runtime, counts)
    return out


@dataclass(frozen=True)
class _BinaryTrials:
    """Trial ``i`` of a binary scenario: its analysis data and separation flags."""

    config: ScenarioConfig

    def __call__(self, trial: int) -> tuple[TrialDataset, dict]:
        config = self.config
        data = generate_binary_trial(config, substream(config.seed, _GEN, trial))
        diag = _trial_diagnostics(data, config.covariate_in_analysis)
        code = diag.get("separation_code", 0)
        flags = {
            "mle_nonexistent": code > 0,
            "complete": code == 2,
            "quasicomplete": code == 1,
            "placebo_degenerate": diag["placebo_degenerate"],
            "any_arm_degenerate": diag["any_arm_degenerate"],
        }
        return (data if config.covariate_in_analysis else data.without_covariates()), flags


@dataclass(frozen=True)
class _ReplayTrials:
    """Trial ``i`` of a replay: row j reveals patient j's outcome under their arm."""

    table: PotentialOutcomeTable
    spec: RandomizationSpec
    covariates: np.ndarray
    seed: int

    def __call__(self, trial: int) -> tuple[TrialDataset, dict]:
        arms = sample_sequence(self.spec, substream(self.seed, _GEN, trial))
        outcomes = self.table.outcomes[np.arange(self.table.n), arms]
        return TrialDataset(arms=arms, outcomes=outcomes, covariates=self.covariates,
                            grid=self.spec.grid, endpoint=self.table.endpoint), {}


@dataclass(frozen=True)
class _Study:
    """What every trial of one study shares; each worker receives it whole.

    ``trials(i)`` returns trial i's analysis dataset and a dict of 0/1
    flags, whose rates over the trials become the study's ``separation``.
    """

    name: str
    trials: Callable[[int], tuple[TrialDataset, dict]]
    spec: RandomizationSpec
    methods: tuple[TestMethod, ...]
    candidates: CandidateSet
    seed: int
    n_sim: int
    alpha: float



def _trial_range(study: _Study, lo: int, hi: int, progress=None) -> list[tuple[dict, dict]]:
    """Flags and per-method results of trials [lo, hi); the worker unit."""
    out = []
    for trial in range(lo, hi):
        data, flags = study.trials(trial)
        out.append((flags, _run_methods_on_trial(
            data, study.spec, study.methods, study.candidates, study.seed, trial
        )))
        if progress and (trial + 1) % progress == 0:
            _log.info("[%s] %d/%d trials", study.name, trial + 1, study.n_sim)
    return out


def _chunk_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    per = -(-n // workers)
    return [(lo, min(lo + per, n)) for lo in range(0, n, per)]


def _run_study(study: _Study, workers: int, progress, **fields) -> StudyResult:
    """Run every trial of a study and summarize each method.

    Per-trial RNG substreams make the result identical for any worker
    count (at least 1); chunks are merged back in trial order.
    ``progress`` logs every that many trials on one worker, and each
    finished chunk on several.  ``fields`` fill the rest of the
    :class:`StudyResult`.
    """
    n = study.n_sim
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    if workers > 1 and n > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # The package imports these two only where it calls them.  Loaded
        # here, forked workers inherit them instead of each importing
        # scipy.stats again on its first population test.
        import scipy.optimize  # noqa: F401
        import scipy.stats  # noqa: F401

        chunks, done = {}, 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_trial_range, study, lo, hi): lo
                       for lo, hi in _chunk_ranges(n, workers)}
            for future in as_completed(futures):
                chunk = chunks[futures[future]] = future.result()
                done += len(chunk)
                if progress:
                    _log.info("[%s] %d/%d trials", study.name, done, n)
        trials = [t for lo in sorted(chunks) for t in chunks[lo]]
    else:
        trials = _trial_range(study, 0, n, progress)

    summaries, p_values = [], {}
    for m in study.methods:
        results = [by_method[m.id] for _, by_method in trials]
        p_values[m.id] = np.array([p for p, _, _ in results])
        counts: dict = {}
        for _, _, d in results:
            for key, val in d.items():
                counts[key] = counts.get(key, 0) + val
        rate = float(np.mean(p_values[m.id] < study.alpha))
        summaries.append(MethodSummary(
            method_id=m.id,
            number=m.number,
            rejection_rate=rate,
            mcse=float(np.sqrt(rate * (1 - rate) / n)),
            n_sim=n,
            alpha=study.alpha,
            mean_runtime_s=sum(rt for _, rt, _ in results) / n,
            diagnostics=counts,
        ))
    separation = {f"{key}_rate": sum(flags[key] for flags, _ in trials) / n
                  for key in trials[0][0]}
    return StudyResult(
        name=study.name, sample_size=study.spec.n, procedure=study.spec.procedure,
        alpha=study.alpha, n_sim=n, seed=study.seed, methods=summaries,
        separation=separation, p_values=p_values, **fields,
    )


def run_power_study(config: ScenarioConfig, workers: int = 1, progress=None) -> StudyResult:
    """Simulate ``n_sim`` trials and tabulate each method's rejection rate.

    The result is identical for any worker count; a count below 1 raises
    ValueError.  Progress goes to the ``randmcp.simulate`` logger at INFO
    level.
    """
    study = _Study(config.name, _BinaryTrials(config), config.spec, config.methods,
                   config.candidates, config.seed, config.n_sim, config.alpha)
    return _run_study(study, workers, progress, time_trend=config.time_trend,
                      p0=config.p0, pk=config.pk, n_rand=config.n_rand)


@dataclass
class TableBlock:
    """Null and alternative runs of one scenario, method by method."""

    scenario: str
    null: StudyResult
    alternative: StudyResult

    def rows(self) -> list[dict]:
        out = []
        for m_null, m_alt in zip(self.null.methods, self.alternative.methods):
            out.append({
                "sample_size": self.alternative.sample_size,
                "randomization_procedure": self.alternative.procedure.upper(),
                "time_trend": "Yes" if self.alternative.time_trend != "none" else "No",
                "test": m_null.number,
                "type1_error_pct": round(100 * m_null.rejection_rate, 2),
                "power_pct": round(100 * m_alt.rejection_rate, 2),
                "type1_mcse_pct": round(100 * m_null.mcse, 3),
                "power_mcse_pct": round(100 * m_alt.mcse, 3),
            })
        return out


def run_table_block(config: ScenarioConfig, workers: int = 1, progress=None) -> TableBlock:
    """Run the scenario under the null (pk = p0) and at its alternative."""
    null_cfg = replace(config, pk=config.p0, name=f"{config.name}_null")
    alt_cfg = replace(config, name=f"{config.name}_alt")
    return TableBlock(
        scenario=config.name,
        null=run_power_study(null_cfg, workers=workers, progress=progress),
        alternative=run_power_study(alt_cfg, workers=workers, progress=progress),
    )


# ---------------------------------------------------------------------------
# Potential-outcomes replay
# ---------------------------------------------------------------------------

def simulate_from_potential_outcomes(
    table: PotentialOutcomeTable,
    spec: RandomizationSpec,
    methods: tuple[TestMethod, ...],
    candidates: CandidateSet,
    alpha: float = 0.05,
    n_sim: int = 1000,
    seed: int = 1,
    include_baseline_covariate: bool = True,
    sort_by_baseline: bool = False,
    name: str = "potential_outcomes",
    workers: int = 1,
    progress=None,
) -> StudyResult:
    """Replay trials against a fixed table of potential outcomes.

    Each simulated trial differs only by its treatment sequence: row i
    reveals the outcome of patient i under their assigned dose.  With
    ``sort_by_baseline`` the rows are enrolled in increasing baseline
    order, which acts as a systematic time trend.  Raises ValueError
    before the first trial unless the table fits ``spec``, ``n_sim >= 1``,
    ``0 < alpha < 1`` and ``workers >= 1``.
    """
    study = _replay_study(table, spec, methods, candidates, alpha, n_sim, seed,
                          include_baseline_covariate, sort_by_baseline, name)
    return _run_study(
        study, workers, progress,
        time_trend="sorted_baseline" if sort_by_baseline else "none",
        p0=float("nan"), pk=float("nan"),
        n_rand=max((m.n_rand for m in methods if m.is_randomization), default=0),
    )


def _replay_study(table, spec, methods, candidates, alpha, n_sim, seed,
                  include_baseline_covariate, sort_by_baseline, name) -> _Study:
    """The study a replay runs; raises ValueError for arguments it cannot run."""
    _check_size(n_sim, alpha)
    if not methods:
        raise ValueError("a potential-outcomes replay needs at least one method")
    if table.n != spec.n:
        raise ValueError(f"table has {table.n} rows but the procedure expects {spec.n}")
    if table.k != spec.grid.k:
        raise ValueError(f"table has {table.k} outcome columns for {spec.grid.k} arms")
    if sort_by_baseline:
        table = table.sorted_by_baseline()
    covariates = table.baseline[:, None] if include_baseline_covariate \
        else np.empty((table.n, 0))
    return _Study(name, _ReplayTrials(table, spec, covariates, seed), spec, methods,
                  candidates, seed, n_sim, alpha)


def synthetic_potential_table(
    n: int,
    grid: DoseGrid,
    rng: np.random.Generator,
    effect: float = 8.0,
    ed50: float = 150.0,
    baseline_mean: float = 55.0,
    baseline_sd: float = 8.0,
    baseline_slope: float = 0.8,
    patient_sd: float = 4.0,
    noise_sd: float = 3.0,
    constant_across_doses: bool = False,
) -> PotentialOutcomeTable:
    """Synthetic continuous potential-outcomes table for demos and tests.

    Patient-level curves are emax shapes with shared ED50, individual
    random intercepts, a baseline effect, and per-cell noise.  With
    ``constant_across_doses`` every row is flat (the strong null holds
    by construction).
    """
    baseline = rng.normal(baseline_mean, baseline_sd, size=n)
    intercept = rng.normal(0.0, patient_sd, size=n)
    doses = grid.as_array()
    curve = effect * doses / (ed50 + doses)
    if constant_across_doses:
        curve = np.zeros_like(curve)
    noise = rng.normal(0.0, noise_sd, size=(n, grid.k))
    if constant_across_doses:
        noise = noise[:, [0]] * np.ones((1, grid.k))
    outcomes = (
        baseline_slope * baseline[:, None] + intercept[:, None] + curve[None, :] + noise
    )
    return PotentialOutcomeTable(outcomes=outcomes, baseline=baseline,
                                 endpoint="continuous")


# ---------------------------------------------------------------------------
# Config formats (shared by CLI and presets)
# ---------------------------------------------------------------------------

def scenario_to_dict(config: ScenarioConfig) -> dict:
    spec = config.spec
    d = {
        "name": config.name,
        "doses": list(spec.grid.doses),
        "procedure": spec.procedure,
        "n": spec.n,
        "p0": config.p0,
        "pk": config.pk,
        "emax_ed50": config.emax_ed50,
        "covariate_coef": config.covariate_coef,
        "covariate_in_analysis": config.covariate_in_analysis,
        "time_trend": config.time_trend,
        "alpha": config.alpha,
        "n_sim": config.n_sim,
        "n_rand": config.n_rand,
        "seed": config.seed,
        "methods": [_method_dict(m) for m in config.methods],
        "candidates": [_model_dict(m) for m in config.candidates.models],
    }
    if spec.targets is not None:
        d["targets"] = list(spec.targets)
    if spec.block is not None:
        d["block"] = list(spec.block)
    if spec.procedure == "cr" and spec.weights is not None:
        d["weights"] = list(spec.weights)
    return d


def _method_dict(method: TestMethod):
    extras = {}
    if method.df is not None:
        extras["df"] = method.df
    if method.pvalue_rule != "plain":
        extras["pvalue_rule"] = method.pvalue_rule
    if not extras:
        return method.id
    return {"id": method.id, **extras}


def _model_dict(model: CandidateModel) -> dict:
    out = {"shape": model.shape, "name": model.name}
    for key in ("theta0", "theta1", "theta2", "h", "delta1", "delta2"):
        val = getattr(model, key)
        if val is not None and not (key in ("theta0",) and val == 0.0) \
                and not (key == "theta1" and val == 1.0):
            out[key] = val
    if model.shape == "beta":
        out["scale"] = model.scale
    if model.shape == "loglinear":
        out["offset"] = model.offset
    return out


_SPEC_KEYS = ("doses", "procedure", "n", "targets", "block", "weights")
_REPLAY_KEYS = {
    "name", "potential_outcomes", "endpoint", "candidates", "seed", "n_sim", "n_rand",
    "methods", "alpha", "include_baseline_covariate", "sort_by_baseline", *_SPEC_KEYS,
}
_ANALYSIS_KEYS = {"method", "n_rand", "seed", "pvalue_rule", "endpoint", "candidates",
                  *_SPEC_KEYS}
_CONTRASTS_KEYS = {"candidates", "arm_sizes", "covariance", *_SPEC_KEYS}


def spec_from_dict(d: dict) -> RandomizationSpec:
    """The randomization procedure a config declares under ``_SPEC_KEYS``."""
    # counts and enumerate read no other keys, so they would run CR probs as equal allocation.
    if "probs" in d:
        raise ValueError("probs is not a config field; give CR allocation as integer weights")
    design = {key: tuple(d[key]) for key in ("targets", "block", "weights") if key in d}
    return RandomizationSpec(procedure=d["procedure"], grid=DoseGrid(doses=tuple(d["doses"])),
                             n=_config_value(d, "n", int), **design)


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a non-empty name without a path separator"}


def _config_value(d: dict, key: str, kind: type, default=None):
    """Config field ``key`` read as ``kind``; without a ``default`` the field is required.

    ``int`` takes integers, and a ``seed`` must be at least 0; ``float``
    takes finite numbers, integers included; ``bool`` takes JSON
    booleans; ``str`` takes a name for output files, non-empty and with
    no path separator.  Anything else raises a ValueError naming the
    field.
    """
    val = d[key] if default is None else d.get(key, default)
    if kind is bool or isinstance(val, bool):
        ok = kind is bool and isinstance(val, bool)
    elif kind is int:
        ok = isinstance(val, (int, np.integer))
    elif kind is float:
        ok = isinstance(val, (int, float, np.integer, np.floating)) and np.isfinite(val)
    else:
        ok = isinstance(val, str) and val != "" and "/" not in val and "\\" not in val
    if not ok:
        raise ValueError(f"{key} must be {_KINDS[kind]}, not {val!r}")
    if key == "seed" and val < 0:
        raise ValueError(f"seed must be at least 0, not {val}")
    return kind(val)


def _reject_unknown(d: dict, known: set[str], what: str) -> None:
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def _methods_from_entries(entries, n_rand: int) -> tuple[TestMethod, ...]:
    """Methods from id strings or ``{"id": ..., <TestMethod field>: ...}`` entries.

    ``n_rand`` applies to every entry that does not set its own.
    """
    methods = []
    for entry in entries:
        entry = {"id": entry} if isinstance(entry, str) else dict(entry)
        _reject_unknown(entry, {f.name for f in fields(TestMethod)}, "method entry")
        entry["n_rand"] = _config_value(entry, "n_rand", int, n_rand)
        methods.append(TestMethod(**entry))
    ids = [m.id for m in methods]
    duplicated = sorted({mid for mid in ids if ids.count(mid) > 1})
    if duplicated:
        raise ValueError(f"duplicate method ids: {duplicated}")
    return tuple(methods)


def _candidates(d: dict, grid: DoseGrid, default: CandidateSet) -> CandidateSet:
    """The config's ``candidates``, else ``default``; a constant candidate raises."""
    candidates = candidate_set_from_config(d["candidates"]) if d.get("candidates") else default
    shape_matrix(candidates, grid)
    return candidates


def scenario_from_dict(d: dict) -> ScenarioConfig:
    _reject_unknown(d, {f.name for f in fields(ScenarioConfig)} - {"spec"} | set(_SPEC_KEYS),
                    "scenario config")
    if "name" not in d:
        raise ValueError("scenario config is missing the required field 'name'")
    entries = d.get("methods") or ()
    if any(isinstance(e, dict) and "n_rand" in e for e in entries):
        raise ValueError("a scenario method entry cannot set n_rand: "
                         "the scenario's n_rand governs every method")
    spec = spec_from_dict(d)
    n_rand = _config_value(d, "n_rand", int, 1000)
    kinds = {"name": str, "n_sim": int, "seed": int, "covariate_in_analysis": bool,
             **dict.fromkeys(("alpha", "p0", "pk", "emax_ed50", "covariate_coef"), float)}
    rest = {key: _config_value(d, key, kinds[key]) if key in kinds else val
            for key, val in d.items()
            if key not in (*_SPEC_KEYS, "n_rand", "methods", "candidates")}
    return ScenarioConfig(
        spec=spec, n_rand=n_rand, methods=_methods_from_entries(entries, n_rand),
        candidates=_candidates(d, spec.grid, default_candidate_set()), **rest,
    )


def replay_from_dict(d: dict, base: Path) -> dict:
    """Keyword arguments of :func:`simulate_from_potential_outcomes` for a replay config.

    A relative ``potential_outcomes`` path is taken from ``base``.  Every
    check the study makes before its first trial runs here too.
    """
    _reject_unknown(d, _REPLAY_KEYS, "potential-outcomes config")
    spec = spec_from_dict(d)
    n_rand = _config_value(d, "n_rand", int, 1000)
    study = {
        "table": read_potential_outcomes_csv(base / d["potential_outcomes"],
                                             endpoint=d.get("endpoint", "continuous")),
        "spec": spec,
        "methods": _methods_from_entries(d.get("methods", ["population", "residual_mle"]),
                                         n_rand),
        "candidates": _candidates(d, spec.grid, wide_range_candidate_set(spec.grid.doses[-1])),
        "alpha": _config_value(d, "alpha", float, 0.05),
        "n_sim": _config_value(d, "n_sim", int, 1000),
        "seed": _config_value(d, "seed", int, 1),
        "include_baseline_covariate": _config_value(d, "include_baseline_covariate", bool, True),
        "sort_by_baseline": _config_value(d, "sort_by_baseline", bool, False),
        "name": _config_value(d, "name", str, "potential_outcomes"),
    }
    _replay_study(**study)
    return study


def analysis_from_dict(d: dict) -> tuple[RandomizationSpec, TestMethod, CandidateSet, str, int]:
    """Procedure, method, candidates, endpoint and seed of an analysis config."""
    _reject_unknown(d, _ANALYSIS_KEYS, "analysis config")
    spec = spec_from_dict(d)
    method = TestMethod(id=d.get("method", "residual_firth"),
                        n_rand=_config_value(d, "n_rand", int, 1000),
                        pvalue_rule=d.get("pvalue_rule", "plain"))
    return (spec, method, _candidates(d, spec.grid, default_candidate_set()),
            d.get("endpoint", "binary"), _config_value(d, "seed", int, 1))


def contrasts_from_dict(d: dict) -> tuple[DoseGrid, ContrastMatrix]:
    """The dose grid and contrast matrix of a contrasts config.

    It weights by the config's ``arm_sizes`` or ``covariance``, else by
    the expected arm sizes of its procedure.
    """
    _reject_unknown(d, _CONTRASTS_KEYS, "contrasts config")
    grid = DoseGrid(doses=tuple(d["doses"]))
    candidates = _candidates(d, grid, default_candidate_set())
    arm_sizes, covariance = d.get("arm_sizes"), d.get("covariance")
    if arm_sizes is None and covariance is None:
        arm_sizes = spec_from_dict(d).expected_arm_sizes()
    return grid, contrast_matrix(candidates, grid, arm_sizes=arm_sizes, covariance=covariance)
