"""Binary and Gaussian GLM fitting with exact separation handling.

Provides maximum likelihood (IRLS) and Firth-penalized fits for binary
outcomes, closed-form least squares for continuous outcomes, an exact
complete/quasicomplete separation classifier, and population-average
arm means with their covariance.  Batched variants fit the same model
against many treatment assignments at once; they are the workhorses of
the re-randomization loops, and the single fits run them as a batch of
one.
"""
from __future__ import annotations

import contextvars
import itertools
import multiprocessing
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import qr as scipy_qr
from scipy.special import expit

SCORE_TOL = 1e-8
MLE_MAX_ITER = 25
FIRTH_MAX_ITER = 100
FIRTH_MAX_STEP = 5.0
FIRTH_MAX_HALVINGS = 30
SEPARATION_TOL = 1e-9
# |coefficient| beyond this on the logit scale flags a batched refit as a
# diverging estimate; the batched fits run no separation check.
DIVERGENCE_BOUND = 12.0
# Patient entries (rows x n) per row block of the batched fits.  A
# block's (rows, n) temporaries take 512 KB each, so the allocator
# reuses them across Newton iterations instead of mapping fresh pages
# for each.  A batch of two or more blocks is fitted on every available
# CPU, one block per thread at a time; a Firth block in flight peaks at
# about five such temporaries (2.6 MB).
BLOCK_ENTRIES = 65_536

SEP_NONE = "none"
SEP_QUASI = "quasicomplete"
SEP_COMPLETE = "complete"
SEP_UNCHECKED = "unchecked"
# Separation codes 0, 1, 2 index this table.
SEP_NAMES = (SEP_NONE, SEP_QUASI, SEP_COMPLETE)


class RankDeficientDesignError(ValueError):
    """The design matrix has linearly dependent columns."""


@dataclass(frozen=True)
class DesignMatrix:
    """Model design: ``dose_columns`` arm indicators first, covariates after.

    Stored as the kernels take it: each patient's arm (all 0 without dose
    columns) and the (n, q) covariate columns.  A design without dose
    columns is the residual model, whose covariates start with the
    intercept.  ``values`` is the dense matrix, derived once on demand.
    """

    arms: np.ndarray
    dose_columns: int
    covariates: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        arms = np.asarray(self.arms)
        cov = np.asarray(self.covariates, dtype=float)
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "covariates", cov)
        k = self.dose_columns
        if arms.ndim != 1 or not np.issubdtype(arms.dtype, np.integer):
            raise ValueError("arm assignments must be a 1-d integer vector")
        if np.any((arms < 0) | (arms >= max(k, 1))):
            raise ValueError(f"arm indices must lie in [0, {max(k, 1)})")
        if cov.ndim != 2 or cov.shape[0] != arms.shape[0]:
            raise ValueError(f"covariates must be an ({arms.shape[0]}, q) matrix")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariates contain non-finite values")
        if not k and not (cov.shape[1] and np.all(cov[:, 0] == 1.0)):
            raise ValueError("a design without dose columns needs an intercept column first")
        if len(self.labels) != self.n_columns:
            raise ValueError("one label per design column required")

    @property
    def n(self) -> int:
        return self.arms.shape[0]

    @property
    def n_columns(self) -> int:
        return self.dose_columns + self.covariates.shape[1]

    @cached_property
    def values(self) -> np.ndarray:
        """The dense (n, k + q) model matrix."""
        indicators = (self.arms[:, None] == np.arange(self.dose_columns)).astype(float)
        return np.hstack([indicators, self.covariates])


def design_from_assignments(arms, k: int, covariates=None) -> DesignMatrix:
    """Dose-indicator design (one column per arm) plus optional covariates."""
    arms = np.asarray(arms, dtype=int)
    cov = _as_covariates(covariates, arms.size)
    labels = tuple(f"arm_{j}" for j in range(k)) + tuple(
        f"x_{i + 1}" for i in range(cov.shape[1])
    )
    return DesignMatrix(arms=arms, dose_columns=k, covariates=cov, labels=labels)


def covariate_design(covariates, n: int | None = None) -> DesignMatrix:
    """Intercept-plus-covariates design used for the residual model."""
    cov = _as_covariates(covariates, n)
    if n is None:
        if cov.shape[0] == 0:
            raise ValueError("need n when no covariates are given")
        n = cov.shape[0]
    labels = ("intercept",) + tuple(f"x_{i + 1}" for i in range(cov.shape[1]))
    return DesignMatrix(arms=np.zeros(n, dtype=int), dose_columns=0,
                        covariates=np.hstack([np.ones((n, 1)), cov]), labels=labels)


def _as_covariates(covariates, n) -> np.ndarray:
    if covariates is None:
        return np.empty((n or 0, 0))
    cov = np.asarray(covariates, dtype=float)
    if cov.ndim == 1:
        cov = cov[:, None]
    if n is not None and cov.shape[0] not in (0, n):
        raise ValueError(f"covariate rows {cov.shape[0]} do not match n={n}")
    return cov


@dataclass(frozen=True)
class GlmFit:
    """Result of one GLM fit."""

    coefficients: np.ndarray
    covariance: np.ndarray
    estimator: str  # "mle" | "firth" | "gaussian_ls"
    family: str  # "binomial" | "gaussian"
    converged: bool
    separation: str
    iterations: int
    loglik: float
    dose_columns: int
    labels: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def summary(self) -> dict:
        """JSON-ready summary: per-column estimates and fit metadata."""
        se = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return {
            "estimator": self.estimator,
            "family": self.family,
            "converged": self.converged,
            "separation": self.separation,
            "iterations": int(self.iterations),
            "loglik": float(self.loglik),
            "coefficients": {
                label: {"estimate": float(b), "se": float(s)}
                for label, b, s in zip(self.labels, self.coefficients, se)
            },
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class PopulationAverage:
    """Arm means on the linear-predictor scale, covariate effects averaged out."""

    mu: np.ndarray
    covariance: np.ndarray


def _check_rank(design: DesignMatrix) -> None:
    x = design.values
    _, r, piv = scipy_qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(x.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    # R has min(n, p) diagonal entries; with more columns than patients,
    # the pivots past them are dependent too.
    bad = np.union1d(piv[:diag.size][diag <= tol], piv[diag.size:])
    if bad.size:
        names = [design.labels[i] for i in sorted(bad)]
        raise RankDeficientDesignError(
            f"design matrix is rank deficient; dependent columns: {names}"
        )


def _binomial_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    # log L = sum y*eta - log(1 + exp(eta)), stable via logaddexp
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def _validate_binary(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("binary family requires outcomes in {0, 1}")
    return y


def _check_outcome(design: DesignMatrix, y, family: str) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (design.n,):
        raise ValueError("outcome length does not match the design")
    _check_rank(design)
    if family == "binomial":
        return _validate_binary(y)
    if family != "gaussian":
        raise ValueError(f"unknown family {family!r}")
    return y


def fit_mle(design: DesignMatrix, y, family: str = "binomial") -> GlmFit:
    """Maximum likelihood fit: :func:`fit_mle_many` on a batch of one.

    Binary outcomes use IRLS, stopping when the score norm drops below
    1e-8 or after 25 iterations; a non-convergent fit returns the last
    iterate flagged ``converged=False`` (mirroring standard software,
    which reports estimates whether or not the MLE exists), and so does
    a fit whose data :func:`detect_separation` finds separated.
    Continuous outcomes use least squares with the classical covariance.
    """
    y = _check_outcome(design, y, family)
    if family == "gaussian":
        return _fit_gaussian(design, y)
    fits = fit_mle_many(design.arms[None], design.dose_columns, design.covariates, y)
    beta = fits.coefficients[0]
    converged = bool(fits.iterations[0] < MLE_MAX_ITER)
    notes = []
    separation = detect_separation(design, y)
    if separation != SEP_NONE:
        converged = False
        notes.append(f"{separation} separation: MLE does not exist")
    return GlmFit(
        coefficients=beta,
        covariance=fits.covariances[0],
        estimator="mle",
        family="binomial",
        converged=converged,
        separation=separation,
        iterations=int(fits.iterations[0]),
        loglik=_binomial_loglik(design.values @ beta, y),
        dose_columns=design.dose_columns,
        labels=design.labels,
        notes=tuple(notes),
    )


def _fit_gaussian(design: DesignMatrix, y: np.ndarray) -> GlmFit:
    fits = fit_gaussian_many(design.arms[None], design.dose_columns, design.covariates, y)
    beta = fits.coefficients[0]
    n, p = design.n, design.n_columns
    resid = y - design.values @ beta
    rss = float(resid @ resid)
    if n > p and rss > 0:
        loglik = -0.5 * n * (np.log(2.0 * np.pi * rss / n) + 1.0)
    else:
        loglik = np.inf
    return GlmFit(
        coefficients=beta,
        covariance=fits.covariances[0],
        estimator="gaussian_ls",
        family="gaussian",
        converged=True,
        separation=SEP_NONE,
        iterations=1,
        loglik=loglik,
        dose_columns=design.dose_columns,
        labels=design.labels,
    )


def fit_firth(design: DesignMatrix, y) -> GlmFit:
    """Firth-penalized logistic fit of binary outcomes; finite even under separation.

    Newton steps follow the modified score
    ``U*_r = sum_i (y_i - pi_i + h_i (1/2 - pi_i)) x_ir`` with ``h_i``
    the hat-matrix diagonals, maximizing ``loglik + 0.5 log|I(beta)|``.
    Steps are halved while the penalized likelihood decreases.  The
    penalized surface can be multimodal under tight separation, so the
    zero start is polished with restarts along the converged direction
    and the best mode wins; the zero start runs the batched Newton loop
    of :func:`fit_firth_many` as a batch of one, the two restarts as one
    batch of two.  The covariance is the inverse penalized information
    at the optimum.  The fit runs no separation check, so its
    ``separation`` reads ``unchecked``.
    """
    y = _check_outcome(design, y, "binomial")
    designs = _BlockDesigns(design.arms[None], design.dose_columns, design.covariates)
    start = np.zeros((1, design.n_columns))
    (beta,), (pen,), (converged,), (iterations,), (cov,) = _firth_newton_many(designs, y, start)
    notes: list[str] = []
    if converged and np.linalg.norm(beta) > 1e-8:
        restarts = _firth_newton_many(designs.take([0, 0]), y, np.stack([2.0 * beta, 4.0 * beta]))
        for other, other_pen, other_ok, other_iter, other_cov in zip(*restarts):
            iterations += other_iter
            if other_ok and other_pen > pen + 1e-9 * (1.0 + abs(pen)):
                beta, pen, cov = other, other_pen, other_cov
                notes.append("restart found a higher penalized-likelihood mode")

    return GlmFit(
        coefficients=beta,
        covariance=cov,
        estimator="firth",
        family="binomial",
        converged=bool(converged),
        separation=SEP_UNCHECKED,
        iterations=int(iterations),
        loglik=float(pen),
        dose_columns=design.dose_columns,
        labels=design.labels,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Separation detection
# ---------------------------------------------------------------------------

def detect_separation(design: DesignMatrix, y) -> str:
    """Classify a binary dataset as none/quasicomplete/complete separation.

    Complete separation means some coefficient vector ``b`` gives
    ``(2y_i - 1) x_i'b > 0`` for every observation; quasicomplete means
    the weak version holds with equality somewhere (and a nonzero
    margin somewhere else).  Either way the logistic MLE does not
    exist.  Runs :func:`separation_batch` as a batch of one; the
    intercept of a design without dose columns is the indicator of its
    one arm.
    """
    y = _validate_binary(np.asarray(y, dtype=float))
    k, x = design.dose_columns, design.covariates
    if not k:
        k, x = 1, x[:, 1:]
    return SEP_NAMES[int(separation_batch(design.arms[None], y, x, k)[0])]


def _separation_lp(x: np.ndarray, y: np.ndarray) -> str:
    from scipy.optimize import linprog  # imported here: only q >= 2 designs reach it

    signed = (2.0 * y - 1.0)[:, None] * x
    # Row normalization makes the margin variable a geometric quantity.
    norms = np.linalg.norm(signed, axis=1)
    norms[norms == 0] = 1.0
    a = signed / norms[:, None]
    # Column scaling (classification-invariant) for LP conditioning.
    col = np.max(np.abs(a), axis=0)
    col[col == 0] = 1.0
    a = a / col
    n, p = a.shape

    # Complete: maximize t subject to a b >= t, |b| <= 1, 0 <= t <= 1.
    c = np.zeros(p + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-a, np.ones((n, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n),
                  bounds=[(-1, 1)] * p + [(0, 1)], method="highs")
    if res.status != 0:  # pragma: no cover - highs is reliable on these LPs
        raise RuntimeError(f"separation LP failed: {res.message}")
    if -res.fun > SEPARATION_TOL:
        return SEP_COMPLETE

    # Weak separation with a nonzero margin somewhere: maximize 1'(a b)
    # subject to a b >= 0, |b| <= 1.
    c = -a.sum(axis=0)
    res = linprog(c, A_ub=-a, b_ub=np.zeros(n), bounds=[(-1, 1)] * p, method="highs")
    if res.status != 0:  # pragma: no cover
        raise RuntimeError(f"separation LP failed: {res.message}")
    if -res.fun > SEPARATION_TOL * n:
        return SEP_QUASI
    return SEP_NONE


def separation_batch(arms_matrix: np.ndarray, y: np.ndarray, x, k: int) -> np.ndarray:
    """Separation code of every assignment row, an index into :data:`SEP_NAMES`.

    Row ``b``'s design is the ``k`` dose indicators of ``arms_matrix[b]``
    plus the shared covariates ``x``: None, shape (n,) or shape (n, q).
    With at most one covariate the arm intercepts are free, so a
    separating direction reduces to a per-arm threshold on the
    covariate, shared across arms in sign: successes on one side,
    failures on the other.  Scanning both signs plus the
    degenerate-arm certificate (an arm with a single outcome level
    diverges on its own indicator) is exact; no covariate is the scan
    of ``x = 0``.  One scatter pass gives every (row, arm)'s outcome
    counts and covariate extremes; the sign -1 scan reads them negated
    and swapped.  Wider designs solve the linear programs row by row.
    """
    b, n = arms_matrix.shape
    y = np.asarray(y, dtype=float)
    z = _as_covariates(x, n)
    if z.shape[1] > 1:
        return np.array([
            SEP_NAMES.index(_separation_lp(np.hstack([np.eye(k)[arms], z]), y))
            for arms in arms_matrix
        ], dtype=int)
    x = z[:, 0] if z.shape[1] else np.zeros(n)
    # Bins arm + k * row hold the successes, the same bins shifted by
    # b * k the failures.
    bins = arm_offsets(arms_matrix, k)
    bins += b * k * (y == 0.0)
    bins = bins.ravel()
    vals = np.tile(x, b)
    low, high = np.full(2 * b * k, np.inf), np.full(2 * b * k, -np.inf)
    np.minimum.at(low, bins, vals)
    np.maximum.at(high, bins, vals)
    n_succ, n_fail = np.bincount(bins, minlength=2 * b * k).reshape(2, b, k)
    (s_min, f_min), (s_max, f_max) = low.reshape(2, b, k), high.reshape(2, b, k)
    hom = (n_succ + n_fail > 0) & ((n_succ == 0) | (n_fail == 0))
    mixed = (n_succ > 0) & (n_fail > 0)
    complete = np.zeros(b, dtype=bool)
    quasi = np.zeros(b, dtype=bool)
    # (max failure, min success, max success, min failure) of sign * x.
    for lo, hi, hi_max, lo_min in ((f_max, s_min, s_max, f_min),
                                   (-f_min, -s_max, -s_min, -f_max)):
        tie = mixed & (hi == lo)
        bad = mixed & (hi < lo)
        slack = hom | (mixed & (hi > lo)) | (tie & ((hi_max > hi) | (lo_min < lo)))
        weak_all, any_slack = ~bad.any(axis=1), slack.any(axis=1)
        complete |= weak_all & ~tie.any(axis=1) & any_slack
        quasi |= weak_all & any_slack
    out = np.zeros(b, dtype=int)
    out[quasi | hom.any(axis=1)] = 1
    out[complete] = 2
    return out


# ---------------------------------------------------------------------------
# Residuals and population averages
# ---------------------------------------------------------------------------

def residuals(fit: GlmFit, design: DesignMatrix, y) -> np.ndarray:
    """Response-scale residuals ``y - g(X beta)`` from a covariate-only fit."""
    if fit.dose_columns != 0 or design.dose_columns != 0:
        raise ValueError("residuals are defined for covariate-only fits (no dose columns)")
    y = np.asarray(y, dtype=float)
    if y.shape != (design.n,):
        raise ValueError("outcome length does not match the design")
    eta = design.values @ fit.coefficients
    fitted = expit(eta) if fit.family == "binomial" else eta
    return y - fitted


def population_average_means(fit: GlmFit, design: DesignMatrix) -> PopulationAverage:
    """Arm means ``delta_j + mean_i(x_i' beta)`` with their covariance.

    Averages the covariate contribution over the observed sample, so
    the k returned values are comparable across arms; their covariance
    is the corresponding linear transform of the coefficient
    covariance.  Runs :func:`population_average_batch` on a batch of one.
    """
    k = fit.dose_columns
    if k < 1:
        raise ValueError("population averages need a fit with dose-indicator columns")
    mu, cov = population_average_batch(fit.coefficients[None], fit.covariance[None], k,
                                       design.covariates)
    return PopulationAverage(mu=mu[0], covariance=cov[0])


# ---------------------------------------------------------------------------
# Batched fits over many treatment assignments
# ---------------------------------------------------------------------------

@dataclass
class BatchFits:
    """Coefficients and covariances from fitting one outcome under many designs."""

    coefficients: np.ndarray  # (B, p)
    covariances: np.ndarray  # (B, p, p)
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) int


def stack_designs(arms_matrix: np.ndarray, k: int, covariates=None) -> np.ndarray:
    """(B, n, p) stack of dose-indicator designs sharing the covariates."""
    b, n = arms_matrix.shape
    one_hot = np.eye(k)[arms_matrix]
    cov = _as_covariates(covariates, n)
    if not cov.shape[1]:
        return one_hot
    return np.concatenate([one_hot, np.broadcast_to(cov, (b, n, cov.shape[1]))], axis=2)


def arm_offsets(arms_matrix: np.ndarray, k: int) -> np.ndarray:
    """Bin ``arm + k * row`` of every entry of a (B, n) assignment matrix."""
    arms = np.asarray(arms_matrix, dtype=np.intp)
    return arms + k * np.arange(arms.shape[0])[:, None]


def arm_sums(offsets: np.ndarray, k: int, weights=None) -> np.ndarray:
    """Per-row, per-arm sums of ``weights`` over :func:`arm_offsets` bins: (B, k).

    ``weights`` is (B, n) or one (n,) vector shared by every row; without
    weights the sums are integer arm counts.  One ``bincount`` covers all
    rows, and each bin adds its row's entries in patient order, so a
    row's sums do not depend on the other rows.
    """
    b = offsets.shape[0]
    if weights is not None:
        weights = np.tile(weights, b) if np.ndim(weights) == 1 else np.ravel(weights)
    return np.bincount(offsets.ravel(), weights, minlength=b * k).reshape(b, k)


class _BlockDesigns:
    """B designs of ``k`` one-hot arm columns plus covariates Z shared by all rows.

    Stands in for the dense (B, n, k + q) stack of :func:`stack_designs`
    without building it.  Products with the arm columns are gathers and
    per-arm sums over the offsets ``arms + k * row``; products with Z are
    ``np.einsum`` reductions.  Every reduction over patients is row-local
    (``bincount`` or ``einsum``, never BLAS, whose kernels depend on the
    batch shape), so a slice's numbers do not depend on its neighbours.
    """

    def __init__(self, arms_matrix, k: int, covariates=None):
        arms = np.asarray(arms_matrix, dtype=np.intp)
        if k and arms.size and (arms.min() < 0 or arms.max() >= k):
            raise ValueError(f"arm indices must lie in [0, {k})")
        self.arms, self.k = arms, k
        self.b, self.n = arms.shape
        # Contiguous, so einsum runs the same kernels whatever view Z came from.
        self.z = np.ascontiguousarray(_as_covariates(covariates, self.n))
        if self.z.shape[0] != self.n:
            raise ValueError("covariates must have one row per patient")
        self.q = self.z.shape[1]
        self.p = k + self.q
        self.offsets = arm_offsets(arms, k)
        # Per-patient products z z', flattened to (n, q*q).
        self.zz = (self.z[:, :, None] * self.z[:, None, :]).reshape(self.n, self.q ** 2)

    def take(self, rows) -> "_BlockDesigns":
        """The designs of the selected slices."""
        return _BlockDesigns(self.arms[rows], self.k, self.z)

    def _gather(self, per_arm: np.ndarray) -> np.ndarray:
        """Entry ``a_i`` of each slice's (k,) vector, per patient: (B, n)."""
        return np.ravel(per_arm)[self.offsets]

    def eta(self, beta: np.ndarray) -> np.ndarray:
        """Linear predictors ``X beta`` of every slice: (B, n)."""
        eta = np.einsum("nq,bq->bn", self.z, beta[:, self.k:])
        if self.k:
            eta += self._gather(beta[:, :self.k])
        return eta

    def xt(self, v: np.ndarray) -> np.ndarray:
        """``X'v`` for every slice, ``v`` of shape (B, n): (B, p)."""
        cov = np.einsum("bn,nq->bq", v, self.z)
        if not self.k:
            return cov
        return np.concatenate([arm_sums(self.offsets, self.k, v), cov], axis=1)

    def xtwx(self, w: np.ndarray) -> np.ndarray:
        """``X'WX`` for every slice, from blocks: (B, p, p).

        The arm block is diagonal (per-arm sums of w), the arm-covariate
        block holds per-arm sums of ``w z`` and the covariate block sums
        ``w z z'``.
        """
        b, k, q = self.b, self.k, self.q
        info = np.zeros((b, self.p, self.p))
        info[:, k:, k:] = np.einsum("bn,nr->br", w, self.zz).reshape(b, q, q)
        if k:
            arm = np.arange(k)
            info[:, arm, arm] = arm_sums(self.offsets, k, w)
            for j in range(q):
                cross = arm_sums(self.offsets, k, w * self.z[:, j])
                info[:, :k, k + j] = cross
                info[:, k + j, :k] = cross
        return info

    def hat(self, w: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """Diagonals of ``W^1/2 X V X' W^1/2`` for each slice's ``V = inv``: (B, n).

        ``h_i = w_i (V[a,a] + z_i'(V[a,Z] + V[Z,a]) + z_i' V[Z,Z] z_i)`` with
        ``a = a_i``, built by gathers from V.
        """
        k = self.k
        quad = np.einsum("br,nr->bn", inv[:, k:, k:].reshape(self.b, self.q ** 2), self.zz)
        if k:
            quad += self._gather(np.diagonal(inv[:, :k, :k], axis1=1, axis2=2))
            for j in range(self.q):
                cross = self._gather(inv[:, :k, k + j] + inv[:, k + j, :k])
                cross *= self.z[:, j]
                quad += cross
        quad *= w
        return quad


def _binomial_covariances(designs: _BlockDesigns, beta: np.ndarray) -> np.ndarray:
    """Inverse binomial information ``(X'WX)^-1`` of every slice at its coefficients."""
    pi = expit(designs.eta(beta))
    return _batch_inv(designs.xtwx(pi * (1.0 - pi)))


def fit_mle_many(arms_matrix: np.ndarray, k: int, covariates, y: np.ndarray) -> BatchFits:
    """Batched binomial IRLS; one fit per row of the (B, n) ``arms_matrix``.

    Row ``b``'s design is ``k`` dose indicators for ``arms_matrix[b]``
    plus the shared ``covariates`` (n, q); with ``k = 0`` the design is
    the covariates alone.  Slices are frozen once their score norm
    passes the tolerance, so a slice converged exactly when its
    iteration count is below 25.  ``converged`` here combines that raw
    IRLS criterion with the divergence bound; no separation check is
    performed.  A converged slice's covariance inverts the information
    of its last score test.
    """
    return _fit_in_blocks(_irls_many, arms_matrix, k, covariates, y)


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_helpers(blocks: int) -> int:
    """Helper threads for a batch of ``blocks`` row blocks.

    None for a single block or inside a ``multiprocessing`` child, whose
    parent already spreads the work over the CPUs.
    """
    if blocks < 2 or multiprocessing.parent_process() is not None:
        return 0
    return min(available_cpus(), blocks) - 1


def _fit_in_blocks(fit_block, arms_matrix, k: int, covariates, y) -> BatchFits:
    """``fit_block(designs, y)`` on row blocks of at most :data:`BLOCK_ENTRIES`
    patient entries, concatenated into one :class:`BatchFits`.

    Every reduction of :class:`_BlockDesigns` is row-local, so a row's
    fit does not depend on its block, nor on the thread that fits it.
    The calling thread and :func:`_block_helpers` helper threads take
    block indices from one counter; each helper runs in a copy of the
    caller's context (numpy's ``errstate`` included) and is joined
    before the parts are concatenated in row order.  A failed block
    stops further claims, and the lowest failed block's exception is
    raised, as the serial loop would.
    """
    arms = np.asarray(arms_matrix, dtype=np.intp)
    if arms.ndim != 2:
        raise ValueError("arm assignments must be a (B, n) matrix")
    rows = max(1, BLOCK_ENTRIES // max(arms.shape[1], 1))
    y = np.asarray(y, dtype=float)
    starts = range(0, max(arms.shape[0], 1), rows)
    parts: list = [None] * len(starts)
    failures: list = []
    claim = itertools.count().__next__  # one atomic step under the GIL

    def fit_claimed_blocks():
        while not failures and (i := claim()) < len(starts):
            try:
                designs = _BlockDesigns(arms[starts[i]:starts[i] + rows], k, covariates)
                parts[i] = fit_block(designs, y)
            except BaseException as exc:  # re-raised by the caller below
                failures.append((i, exc))

    helpers = [threading.Thread(target=contextvars.copy_context().run,
                                args=(fit_claimed_blocks,))
               for _ in range(_block_helpers(len(starts)))]
    for helper in helpers:
        helper.start()
    fit_claimed_blocks()
    for helper in helpers:
        helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return BatchFits(*(np.concatenate(col) for col in zip(*parts)))


def _irls_many(designs: _BlockDesigns, y: np.ndarray):
    """The IRLS loop of :func:`fit_mle_many` on one block of designs."""
    beta = np.zeros((designs.b, designs.p))
    covariances = np.empty((designs.b, designs.p, designs.p))
    active = np.arange(designs.b)
    iterations = np.zeros(designs.b, dtype=int)
    converged = np.zeros(designs.b, dtype=bool)
    xa = designs
    for _ in range(MLE_MAX_ITER):
        ba = beta[active]
        pi = expit(xa.eta(ba))
        score = xa.xt(y - pi)
        info = xa.xtwx(pi * (1.0 - pi))
        done = np.linalg.norm(score, axis=1) < SCORE_TOL
        if np.any(done):
            converged[active[done]] = True
            covariances[active[done]] = _batch_inv(info[done])
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            xa, ba, score, info = xa.take(keep), ba[keep], score[keep], info[keep]
        beta[active] = ba + batch_solve(info, score)
        iterations[active] += 1
    else:
        covariances[active] = _binomial_covariances(xa, beta[active])
    converged &= np.max(np.abs(beta), axis=1) <= DIVERGENCE_BOUND
    return beta, covariances, converged, iterations


def fit_firth_many(arms_matrix: np.ndarray, k: int, covariates, y: np.ndarray) -> BatchFits:
    """Batched Firth fits: the Newton loop of :func:`fit_firth`, slice by slice.

    Designs are as in :func:`fit_mle_many`.  Uses the zero start only
    (no multimodality polish): the batch path serves re-randomization
    refits, whose separation certificates run through the dose
    indicators where the penalized surface is benign.
    """
    return _fit_in_blocks(_firth_zero_start, arms_matrix, k, covariates, y)


def _firth_zero_start(designs: _BlockDesigns, y: np.ndarray):
    beta, _, converged, iterations, covariances = _firth_newton_many(
        designs, y, np.zeros((designs.b, designs.p)))
    return beta, covariances, converged, iterations


def _firth_newton_many(designs: _BlockDesigns, y: np.ndarray, start: np.ndarray):
    """Newton iteration on the modified score from one start per slice.

    Returns ``(beta, penalized_loglik, converged, iterations, covariances)``.
    The pi, w and X'WX that score a step's penalized likelihood serve the
    next iteration, so each accepted beta is evaluated once.  A slice's
    covariance is the inverse information at its last beta.
    """
    b = start.shape[0]
    beta = start.copy()
    pen, pi, w, info = _penalized_loglik_batch(designs, y, beta)
    covariances = np.empty((b, designs.p, designs.p))
    active = np.arange(b)
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    xa = designs
    for _ in range(FIRTH_MAX_ITER):
        ba = beta[active]
        inv = _batch_inv(info)
        # h (0.5 - pi) + (y - pi) in the hat values' buffer; pi and w are
        # dropped before the likelihood below builds the next ones.
        modified = xa.hat(w, inv)
        modified *= 0.5 - pi
        modified += y - pi
        u_star = xa.xt(modified)
        del modified, pi, w
        done = np.linalg.norm(u_star, axis=1) < SCORE_TOL
        if np.any(done):
            converged[active[done]] = True
            covariances[active[done]] = inv[done]
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            xa, ba, u_star, info = xa.take(keep), ba[keep], u_star[keep], info[keep]
        step = batch_solve(info, u_star)
        big = np.max(np.abs(step), axis=1) / FIRTH_MAX_STEP
        step = np.where(big[:, None] > 1.0, step / np.maximum(big, 1.0)[:, None], step)
        new_beta = ba + step
        new_pen, pi, w, info = _penalized_loglik_batch(xa, y, new_beta)
        pen_a = pen[active]
        # Halve only on decreases beyond rounding noise, or tiny Newton
        # steps near the optimum stall below the score tolerance.
        slack = 1e-10 * (1.0 + np.abs(pen_a))
        for _h in range(FIRTH_MAX_HALVINGS):
            worse = new_pen < pen_a - slack
            if not np.any(worse):
                break
            step[worse] *= 0.5
            new_beta[worse] = ba[worse] + step[worse]
            new_pen[worse], pi[worse], w[worse], info[worse] = _penalized_loglik_batch(
                xa.take(worse), y, new_beta[worse])
        beta[active] = new_beta
        pen[active] = new_pen
        iterations[active] += 1
    else:
        covariances[active] = _batch_inv(info)
    return beta, pen, converged, iterations, covariances


def fit_gaussian_many(arms_matrix: np.ndarray, k: int, covariates, y: np.ndarray) -> BatchFits:
    """Batched least squares, by the normal equations, with classical covariances.

    Designs are as in :func:`fit_mle_many`.
    """
    return _fit_in_blocks(_least_squares, arms_matrix, k, covariates, y)


def _least_squares(designs: _BlockDesigns, y: np.ndarray):
    b, n, p = designs.b, designs.n, designs.p
    y = np.broadcast_to(y, (b, n))
    xtx = designs.xtwx(np.broadcast_to(1.0, (b, n)))
    beta = batch_solve(xtx, designs.xt(y))
    resid = y - designs.eta(beta)
    rss = np.einsum("bn,bn->b", resid, resid)
    sigma2 = rss / (n - p) if n > p else np.zeros(b)
    covariances = _batch_inv(xtx) * sigma2[:, None, None]
    return beta, covariances, np.ones(b, dtype=bool), np.ones(b, dtype=int)


def population_average_batch(coefficients, covariances, k: int, covariates=None):
    """Batched version of :func:`population_average_means`.

    ``coefficients`` (B, p) and ``covariances`` (B, p, p) are batched
    fits; ``covariates`` (n, q) are the columns after the ``k`` dose
    indicators.  Returns ``(mu, cov)`` with shapes (B, k) and (B, k, k).
    """
    cov = _as_covariates(covariates, None)
    # Arm means delta_j + xbar' gamma: the same linear map L for every slice.
    l_mat = np.hstack([np.eye(k), np.tile(cov.mean(axis=0), (k, 1))]) if cov.shape[1] else np.eye(k)
    mu = np.einsum("kp,bp->bk", l_mat, coefficients)
    cov = np.einsum("kp,bpq,lq->bkl", l_mat, covariances, l_mat)
    return mu, cov


def _penalized_loglik_batch(designs: _BlockDesigns, y: np.ndarray, beta: np.ndarray):
    """``(loglik + 0.5 log|X'WX|, pi, w, X'WX)`` of every slice at ``beta``.

    The returned w and X'WX are unclamped, as the Newton step and the
    covariance use them; the log-determinant of a row with w below
    1e-300 is taken from X'WX rebuilt with w clamped there.  The
    log-likelihood's softplus(eta) = max(eta, 0) + log1p(exp(-|eta|))
    runs numpy's SIMD exp and log1p in one buffer.
    """
    eta = designs.eta(beta)
    pi = expit(eta)
    w = np.subtract(1.0, pi)
    w *= pi
    info = designs.xtwx(w)
    sign, logdet = np.linalg.slogdet(info)
    clamped = np.any(w < 1e-300, axis=1)
    if np.any(clamped):
        sign[clamped], logdet[clamped] = np.linalg.slogdet(
            designs.take(clamped).xtwx(np.maximum(w[clamped], 1e-300)))
    softplus = np.abs(eta)
    np.negative(softplus, out=softplus)
    np.exp(softplus, out=softplus)
    np.log1p(softplus, out=softplus)
    softplus += np.maximum(eta, 0.0)
    eta *= y
    ll = np.subtract(eta, softplus, out=softplus).sum(axis=1)
    out = ll + 0.5 * logdet
    out[sign <= 0] = -np.inf
    return out, pi, w, info


def batch_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``a[i] x = rhs[i]`` for every slice; ``rhs`` is (B, p) or (B, p, r).

    A singular slice falls back to its own pseudo-inverse while the
    others keep the LU solve, so no slice's result depends on which
    other slices share its batch.
    """
    vector = rhs.ndim == a.ndim - 1
    if vector:
        rhs = rhs[..., None]
    try:
        out = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        out = np.stack([_solve_or_pinv(ai, bi) for ai, bi in zip(a, rhs)])
    return out[..., 0] if vector else out


def _solve_or_pinv(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a) @ rhs


def _batch_inv(a: np.ndarray) -> np.ndarray:
    # Bit-identical to np.linalg.inv, which is LU with identity right-hand sides.
    return batch_solve(a, np.broadcast_to(np.eye(a.shape[-1]), a.shape))
