"""The benchmark's four workloads, driven through randmcp's public API.

Each workload draws its inputs from a fixed catalogue of input ids.  The
workload seed picks the order in which a run walks the catalogue, so the
same seed gives the same inputs and different seeds measure different
subsets.  Outputs of every catalogue input were recorded once in
``reference.json``; a run compares against them.  Inputs past the end of
the catalogue are fresh ids whose outputs are only checked for validity.

One call of :meth:`Workload.call` is one public API call: a
``run_table_block`` of one trial per arm, a ``simulate_from_potential_outcomes``
study of a few dozen trials, or one in-process ``randmcp analyze --exact``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from randmcp import (
    DoseGrid,
    RandomizationSpec,
    TestMethod,
    TrialDataset,
    cli,
    simulate,
    substream,
    write_trial_csv,
)
from randmcp.dose_response import wide_range_candidate_set
from randmcp.presets import load_preset

# Largest |p - reference p| still counted as a correct result.  It admits
# the p-value changes the roadmap plans (tie counting moves p by about
# 0.011, a new reference integral by under 1e-3) and flags gross errors.
P_TOLERANCE = 0.02

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class CallResult:
    """Outputs and timings of one public API call."""

    trials: int  # operations completed by the call
    wall_s: float
    p: dict[str, list[float]]  # method id -> p-values in trial order
    digest: str  # sha256 of the remaining outputs (table rows, analyze JSON)
    method_s: dict[str, float] = field(default_factory=dict)  # summed method time
    method_trials: dict[str, int] = field(default_factory=dict)
    invalid: int = 0  # trials with an output the program should never give


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _bad_p(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return ~np.isfinite(v) | (v < 0.0) | (v > 1.0)


class Workload:
    name: str
    catalogue: int  # number of recorded inputs

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def order(self, seed: int) -> np.ndarray:
        """The catalogue ids in the order a run with this seed uses them."""
        return np.random.default_rng(seed).permutation(self.catalogue)

    def input_id(self, order: np.ndarray, i: int, seed: int) -> int:
        """Catalogue id of the i-th input, or a fresh id past the catalogue."""
        if i < self.catalogue:
            return int(order[i])
        return self.catalogue + 1_000_000 * (seed + 1) + i

    def setup(self, workdir: Path) -> None:
        """Build the inputs and warm the program up."""
        raise NotImplementedError

    def call(self, input_id: int, workers: int | None = None) -> CallResult:
        raise NotImplementedError


class SimWorkload(Workload):
    """``run_table_block`` of one preset, one null and one alternative trial."""

    def __init__(self, name: str, preset: str, catalogue: int, smoke=False):
        super().__init__(smoke)
        self.name, self.preset, self.catalogue = name, preset, catalogue

    def setup(self, workdir: Path) -> None:
        config = replace(load_preset(self.preset), n_sim=1)
        if self.smoke:
            config = replace(config, n_rand=50)
        self.config = config
        simulate.run_table_block(replace(config, seed=9_999_999, n_rand=20))

    def call(self, input_id: int, workers: int | None = None) -> CallResult:
        config = replace(self.config, seed=1000 + input_id)
        start = time.perf_counter()
        block = simulate.run_table_block(config, workers=workers or 1)
        wall = time.perf_counter() - start
        p: dict[str, list[float]] = {}
        method_s: dict[str, float] = {}
        for study in (block.null, block.alternative):
            for m in study.methods:
                p.setdefault(m.method_id, []).append(float(study.p_values[m.method_id][0]))
                method_s[m.method_id] = method_s.get(m.method_id, 0.0) + m.mean_runtime_s
        invalid = int(any(_bad_p(v).any() for v in p.values()))
        return CallResult(1, wall, p, _digest(block.rows()), method_s,
                          {mid: 2 for mid in method_s}, invalid)


class ReplayWorkload(Workload):
    """Potential-outcome replay on a 5-arm continuous table, two workers."""

    name = "replay_po"
    catalogue = 48
    methods = ("population", "glm_mle", "residual_mle")
    workers = 2

    def setup(self, workdir: Path) -> None:
        self.grid = DoseGrid(doses=(0.0, 100.0, 200.0, 400.0, 1000.0))
        self.spec = RandomizationSpec(procedure="ra", grid=self.grid, n=50, targets=(10,) * 5)
        self.candidates = wide_range_candidate_set(1000.0)
        n_rand = 50 if self.smoke else 1000
        self.method_objs = tuple(TestMethod(id=m, n_rand=n_rand) for m in self.methods)
        self.n_sim = 4 if self.smoke else 40
        self.tables = {i: self._table(i) for i in range(self.catalogue)}
        self._study(self._table(9_999_999), 9_999_999, 4, self.workers)

    def _table(self, input_id: int):
        return simulate.synthetic_potential_table(50, self.grid, substream(4242, input_id))

    def _study(self, table, input_id: int, n_sim: int, workers: int):
        return simulate.simulate_from_potential_outcomes(
            table, self.spec, self.method_objs, self.candidates, alpha=0.05,
            n_sim=n_sim, seed=2000 + input_id, sort_by_baseline=True, workers=workers,
        )

    def call(self, input_id: int, workers: int | None = None) -> CallResult:
        table = self.tables.get(input_id)
        if table is None:
            table = self._table(input_id)
        start = time.perf_counter()
        res = self._study(table, input_id, self.n_sim, workers or self.workers)
        wall = time.perf_counter() - start
        p = {mid: [float(v) for v in res.p_values[mid]] for mid in self.methods}
        rows = [(m.method_id, m.rejection_rate) for m in res.methods]
        invalid = int(np.sum(np.any([_bad_p(v) for v in p.values()], axis=0)))
        return CallResult(
            self.n_sim, wall, p, _digest(rows),
            {m.method_id: m.mean_runtime_s * self.n_sim for m in res.methods},
            {m.method_id: self.n_sim for m in res.methods}, invalid,
        )


class ExactWorkload(Workload):
    """In-process ``randmcp analyze --exact`` on toy binary trials."""

    name = "exact_analyze"
    catalogue = 256  # 128 datasets, each analyzed by both methods
    methods = ("residual_mle", "residual_firth")
    doses = (0.0, 25.0, 100.0)

    def order(self, seed: int) -> np.ndarray:
        """Datasets in seed order, each analyzed by both methods in turn."""
        datasets = np.random.default_rng(seed).permutation(self.catalogue // 2)
        return (2 * datasets[:, None] + np.arange(2)).ravel()

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "toy.json"
        self.config_path.write_text(json.dumps({
            "doses": list(self.doses), "procedure": "ra", "n": 12,
            "targets": [4, 4, 4], "seed": 1,
        }))
        for dataset in range(self.catalogue // 2):
            self._write(dataset)
        self._analyze(self._write(9_999_999), self.methods[0])

    def _write(self, dataset: int) -> Path:
        """A 12-patient binary trial whose outcome classes overlap in the
        covariate, so the covariate-only logistic model is not separated."""
        rng = substream(4343, dataset)
        grid = DoseGrid(doses=self.doses)
        while True:
            arms = rng.permutation(np.repeat(np.arange(3), 4))
            x = rng.normal(size=12)
            eta = -0.4 + np.array([0.0, 0.6, 1.2])[arms] + 0.9 * x
            y = (rng.random(12) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
            x0, x1 = x[y == 0], x[y == 1]
            if x0.size >= 2 and x1.size >= 2 and x0.max() > x1.min() and x1.max() > x0.min():
                break
        path = self.workdir / f"trial_{dataset}.csv"
        write_trial_csv(path, TrialDataset(arms=arms, outcomes=y, covariates=x[:, None],
                                           grid=grid))
        return path

    def _analyze(self, path: Path, method: str) -> dict:
        out = self.workdir / "result.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", "--data", str(path), "--config", str(self.config_path),
                             "--method", method, "--exact", "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"randmcp analyze exited with code {code}")
        return json.loads(out.read_text())

    def call(self, input_id: int, workers: int | None = None) -> CallResult:
        dataset, method = divmod(input_id, 2)
        path = self.workdir / f"trial_{dataset}.csv"
        if not path.exists():
            self._write(dataset)
        mid = self.methods[method]
        start = time.perf_counter()
        result = self._analyze(path, mid)
        wall = time.perf_counter() - start
        result.pop("provenance")
        p = float(result["p_value"])
        # NaN statistics reach the JSON as the string "nan"; the exact
        # path never flags one, so any is a wrong result.
        invalid = int(bool(_bad_p([p]).any()) or result["statistic"] == "nan")
        return CallResult(1, wall, {mid: [p]}, _digest(result), {mid: wall}, {mid: 1}, invalid)


def make(name: str, smoke: bool = False) -> Workload:
    """The workload called ``name``; BENCHMARK.json says why each exists."""
    if name == "sim_n49_pbd":
        return SimWorkload(name, "n49_pbd_notrend", 64, smoke)
    if name == "sim_n490_cr":
        return SimWorkload(name, "n490_cr_notrend", 24, smoke)
    if name == "replay_po":
        return ReplayWorkload(smoke)
    if name == "exact_analyze":
        return ExactWorkload(smoke)
    raise KeyError(name)


NAMES = ("sim_n49_pbd", "sim_n490_cr", "replay_po", "exact_analyze")


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def compare(result: CallResult, ref: dict) -> tuple[bool, dict[str, float]]:
    """Byte identity with the recorded outputs and the largest |dp| per method."""
    identical = result.digest == ref["digest"]
    dp = {}
    for mid, values in result.p.items():
        want = ref["p"].get(mid)
        if want is None or len(want) != len(values):
            dp[mid] = float("inf")
            identical = False
            continue
        diff = np.abs(np.asarray(values) - np.asarray(want))
        dp[mid] = float(diff.max())
        identical &= bool(np.all(np.asarray(values) == np.asarray(want)))
    return identical, dp


def record(result: CallResult) -> dict:
    return {"p": result.p, "digest": result.digest}
