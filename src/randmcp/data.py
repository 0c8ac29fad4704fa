"""Trial datasets, potential-outcome tables, and their CSV formats."""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .dose_response import DoseGrid


@dataclass(frozen=True)
class TrialDataset:
    """Per-patient data in enrollment order."""

    arms: np.ndarray  # (n,) arm indices into grid.doses
    outcomes: np.ndarray  # (n,) 0/1 for binary, real for continuous
    covariates: np.ndarray | None  # (n, p); p may be 0, and None means p = 0
    grid: DoseGrid
    endpoint: str = "binary"  # "binary" | "continuous"

    def __post_init__(self):
        arms = np.asarray(self.arms, dtype=int)
        outcomes = np.asarray(self.outcomes, dtype=float)
        if arms.ndim != 1:
            raise ValueError(f"arms must be a vector, got shape {arms.shape}")
        if self.covariates is None:
            cov = np.empty((arms.shape[0], 0))
        else:
            cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov[:, None]
        if cov.ndim != 2:
            raise ValueError(f"covariates must be a vector or an (n, p) matrix, got shape {cov.shape}")
        if cov.size == 0:
            cov = cov.reshape(arms.shape[0], 0)
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "covariates", cov)
        n = arms.shape[0]
        if outcomes.shape != (n,) or cov.shape[0] != n:
            raise ValueError("arms, outcomes and covariates must share the same length")
        if np.any((arms < 0) | (arms >= self.grid.k)):
            raise ValueError("arm index outside the dose grid")
        if self.endpoint == "binary" and not np.all((outcomes == 0) | (outcomes == 1)):
            raise ValueError("binary endpoint requires outcomes in {0, 1}")
        if self.endpoint not in ("binary", "continuous"):
            raise ValueError(f"unknown endpoint {self.endpoint!r}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariates must be finite")

    @property
    def n(self) -> int:
        return self.arms.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    def without_covariates(self) -> "TrialDataset":
        return replace(self, covariates=np.empty((self.n, 0)))

    def arm_sizes(self) -> np.ndarray:
        return np.bincount(self.arms, minlength=self.grid.k)


def read_trial_csv(path, grid: DoseGrid, endpoint: str = "binary") -> TrialDataset:
    """Load a trial from CSV columns enrollment_index, dose, outcome, covariate_*.

    Rows are sorted by enrollment_index; a dose not in ``grid`` is rejected.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        required = {"enrollment_index", "dose", "outcome"}
        missing = required - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        cov_names = [c for c in reader.fieldnames if c.startswith("covariate_")]
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows.sort(key=lambda r: int(r["enrollment_index"]))
    doses = np.array([float(r["dose"]) for r in rows])
    outcomes = np.array([float(r["outcome"]) for r in rows])
    covariates = np.array([[float(r[c]) for c in cov_names] for r in rows]) \
        if cov_names else np.empty((len(rows), 0))
    lookup = {d: j for j, d in enumerate(grid.doses)}
    try:
        arms = np.array([lookup[d] for d in doses], dtype=int)
    except KeyError as exc:
        raise ValueError(f"{path}: dose level {exc.args[0]} is not in the grid {grid.doses}")
    return TrialDataset(arms=arms, outcomes=outcomes, covariates=covariates,
                        grid=grid, endpoint=endpoint)


def write_trial_csv(path, data: TrialDataset) -> None:
    header = ["enrollment_index", "dose", "outcome"] + [
        f"covariate_{i + 1}" for i in range(data.n_covariates)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [i, data.grid.doses[data.arms[i]], _fmt(data.outcomes[i])]
            row.extend(repr(float(v)) for v in data.covariates[i])
            writer.writerow(row)


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


@dataclass(frozen=True)
class PotentialOutcomeTable:
    """Every patient's outcome under every dose, plus a baseline value."""

    outcomes: np.ndarray  # (n, k)
    baseline: np.ndarray  # (n,)
    endpoint: str = "continuous"

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float)
        baseline = np.asarray(self.baseline, dtype=float)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "baseline", baseline)
        if outcomes.ndim != 2:
            raise ValueError("potential outcomes must be an n x k matrix")
        if baseline.shape != (outcomes.shape[0],):
            raise ValueError("one baseline value per patient required")
        if not np.all(np.isfinite(outcomes)):
            raise ValueError("potential outcomes must be finite")
        if self.endpoint == "binary" and not np.all((outcomes == 0) | (outcomes == 1)):
            raise ValueError("binary potential outcomes must be 0/1")
        if self.endpoint not in ("binary", "continuous"):
            raise ValueError(f"unknown endpoint {self.endpoint!r}")

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]

    @property
    def k(self) -> int:
        return self.outcomes.shape[1]

    def sorted_by_baseline(self) -> "PotentialOutcomeTable":
        """Rows reordered so baseline increases with enrollment position."""
        order = np.argsort(self.baseline, kind="stable")
        return PotentialOutcomeTable(
            outcomes=self.outcomes[order], baseline=self.baseline[order],
            endpoint=self.endpoint,
        )


def read_potential_outcomes_csv(path, endpoint: str = "continuous") -> PotentialOutcomeTable:
    """Load a potential-outcomes table: outcome_<dose> columns plus baseline."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        out_cols = [c for c in reader.fieldnames if c.startswith("outcome_")]
        if not out_cols or "baseline" not in reader.fieldnames:
            raise ValueError(f"{path}: need outcome_<dose> columns and a baseline column")
        out_cols.sort(key=lambda c: float(c.split("_", 1)[1]))
        rows = list(reader)
    outcomes = np.array([[float(r[c]) for c in out_cols] for r in rows])
    baseline = np.array([float(r["baseline"]) for r in rows])
    return PotentialOutcomeTable(outcomes=outcomes, baseline=baseline, endpoint=endpoint)


def write_potential_outcomes_csv(path, table: PotentialOutcomeTable, doses=None) -> None:
    k = table.k
    doses = list(doses) if doses is not None else list(range(k))
    header = [f"outcome_{_fmt(float(d))}" for d in doses] + ["baseline"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(table.n):
            writer.writerow([repr(float(v)) for v in table.outcomes[i]]
                            + [repr(float(table.baseline[i]))])
