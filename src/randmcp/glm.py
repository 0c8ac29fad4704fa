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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as scipy_qr
from scipy.optimize import linprog
from scipy.special import expit

SCORE_TOL = 1e-8
MLE_MAX_ITER = 25
FIRTH_MAX_ITER = 100
FIRTH_MAX_STEP = 5.0
FIRTH_MAX_HALVINGS = 30
SEPARATION_TOL = 1e-9
# |coefficient| beyond this on the logit scale is treated as a diverging
# estimate when no exact separation check was requested.
DIVERGENCE_BOUND = 12.0

SEP_NONE = "none"
SEP_QUASI = "quasicomplete"
SEP_COMPLETE = "complete"
SEP_UNCHECKED = "unchecked"


class RankDeficientDesignError(ValueError):
    """The design matrix has linearly dependent columns."""


@dataclass(frozen=True)
class DesignMatrix:
    """Model matrix: dose-indicator columns first, covariates after."""

    values: np.ndarray
    dose_columns: int
    labels: tuple[str, ...]

    def __post_init__(self):
        x = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", x)
        if x.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        if len(self.labels) != x.shape[1]:
            raise ValueError("one label per design column required")
        if not np.all(np.isfinite(x)):
            raise ValueError("design matrix contains non-finite values")
        k = self.dose_columns
        if k:
            ind = x[:, :k]
            if not (np.all((ind == 0) | (ind == 1)) and np.all(ind.sum(axis=1) == 1)):
                raise ValueError("each row must activate exactly one dose indicator")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    @property
    def covariate_columns(self) -> int:
        return self.n_columns - self.dose_columns


def design_from_assignments(arms, k: int, covariates=None, labels=None) -> DesignMatrix:
    """Dose-indicator design (one column per arm) plus optional covariates."""
    arms = np.asarray(arms, dtype=int)
    if arms.ndim != 1:
        raise ValueError("arm assignments must be a 1-d vector")
    if np.any((arms < 0) | (arms >= k)):
        raise ValueError(f"arm indices must lie in [0, {k})")
    cols = [np.eye(k)[arms]]
    cov = _as_covariates(covariates, arms.shape[0])
    if cov.shape[1]:
        cols.append(cov)
    if labels is None:
        labels = tuple(f"arm_{j}" for j in range(k)) + tuple(
            f"x_{i + 1}" for i in range(cov.shape[1])
        )
    return DesignMatrix(values=np.hstack(cols), dose_columns=k, labels=tuple(labels))


def covariate_design(covariates, n: int | None = None) -> DesignMatrix:
    """Intercept-plus-covariates design used for the residual model."""
    cov = _as_covariates(covariates, n)
    if n is None:
        if cov.shape[0] == 0:
            raise ValueError("need n when no covariates are given")
        n = cov.shape[0]
    x = np.hstack([np.ones((n, 1)), cov]) if cov.shape[1] else np.ones((n, 1))
    labels = ("intercept",) + tuple(f"x_{i + 1}" for i in range(cov.shape[1]))
    return DesignMatrix(values=x, dose_columns=0, labels=labels)


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
    bad = piv[diag <= tol] if diag.size else np.arange(x.shape[1])
    if x.shape[1] > x.shape[0]:
        bad = np.union1d(bad, piv[x.shape[0]:])
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


def fit_mle(design: DesignMatrix, y, family: str = "binomial",
            check_separation: bool = True) -> GlmFit:
    """Maximum likelihood fit: :func:`fit_mle_many` on a batch of one.

    Binary outcomes use IRLS, stopping when the score norm drops below
    1e-8 or after 25 iterations; a non-convergent fit returns the last
    iterate flagged ``converged=False`` (mirroring standard software,
    which reports estimates whether or not the MLE exists).  Continuous
    outcomes use least squares with the classical covariance.
    """
    y = _check_outcome(design, y, family)
    if family == "gaussian":
        return _fit_gaussian(design, y)
    fits = fit_mle_many(design.values[None], y)
    beta = fits.coefficients[0]
    converged = bool(fits.iterations[0] < MLE_MAX_ITER)
    notes = []
    if check_separation:
        separation = detect_separation(design, y)
        if separation != SEP_NONE:
            converged = False
            notes.append(f"{separation} separation: MLE does not exist")
    else:
        separation = SEP_UNCHECKED
        if np.max(np.abs(beta)) > DIVERGENCE_BOUND:
            converged = False
            notes.append("coefficients diverging; MLE likely nonexistent")
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


def _fit_gaussian(design: DesignMatrix, y: np.ndarray, notes: tuple[str, ...] = ()) -> GlmFit:
    fits = fit_gaussian_many(design.values[None], y)
    beta = fits.coefficients[0]
    n, p = design.values.shape
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
        notes=notes,
    )


def fit_firth(design: DesignMatrix, y, family: str = "binomial",
              check_separation: bool = False) -> GlmFit:
    """Firth-penalized logistic fit; finite even under separation.

    Newton steps follow the modified score
    ``U*_r = sum_i (y_i - pi_i + h_i (1/2 - pi_i)) x_ir`` with ``h_i``
    the hat-matrix diagonals, maximizing ``loglik + 0.5 log|I(beta)|``.
    Steps are halved while the penalized likelihood decreases.  The
    penalized surface can be multimodal under tight separation, so the
    zero start is polished with restarts along the converged direction
    and the best mode wins; each start runs the batched Newton loop of
    :func:`fit_firth_many` on a batch of one.  The covariance is the
    inverse penalized information at the optimum.  Continuous outcomes
    fall back to least squares (the penalty has no effect there),
    flagged in the fit notes.
    """
    y = _check_outcome(design, y, family)
    if family == "gaussian":
        return _fit_gaussian(
            design, y,
            notes=("firth penalty is a no-op for the gaussian family; used least squares",),
        )
    x = design.values[None]

    def newton(start):
        beta, pen, ok, its = _firth_newton_many(x, y, start[None])
        return beta[0], pen[0], ok[0], its[0]

    beta, pen, converged, iterations = newton(np.zeros(design.n_columns))
    notes: list[str] = []
    if converged and np.linalg.norm(beta) > 1e-8:
        for scale in (2.0, 4.0):
            other, other_pen, other_ok, other_iter = newton(scale * beta)
            iterations += other_iter
            if other_ok and other_pen > pen + 1e-9 * (1.0 + abs(pen)):
                beta, pen = other, other_pen
                notes.append("restart found a higher penalized-likelihood mode")

    separation = detect_separation(design, y) if check_separation else SEP_UNCHECKED
    return GlmFit(
        coefficients=beta,
        covariance=_batch_inv(_information(x, beta[None]))[0],
        estimator="firth",
        family="binomial",
        converged=bool(converged),
        separation=separation,
        iterations=int(iterations),
        loglik=float(pen),
        dose_columns=design.dose_columns,
        labels=design.labels,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Separation detection
# ---------------------------------------------------------------------------

def detect_separation(design: DesignMatrix, y, method: str = "auto") -> str:
    """Classify a binary dataset as none/quasicomplete/complete separation.

    Complete separation means some coefficient vector ``b`` gives
    ``(2y_i - 1) x_i'b > 0`` for every observation; quasicomplete means
    the weak version holds with equality somewhere (and a nonzero
    margin somewhere else).  Either way the logistic MLE does not
    exist.  The general path solves two small linear programs; designs
    made of dose indicators plus a single covariate take an equivalent
    exact threshold scan, which the test suite cross-validates against
    the LP.
    """
    y = _validate_binary(np.asarray(y, dtype=float))
    if method not in ("auto", "lp", "threshold"):
        raise ValueError(f"unknown separation method {method!r}")
    k = design.dose_columns
    single_cov = k >= 1 and design.covariate_columns == 1
    if method == "threshold" and not single_cov:
        raise ValueError("threshold method needs dose indicators plus one covariate")
    if method in ("auto", "threshold") and single_cov:
        arms = np.argmax(design.values[:, :k], axis=1)
        return _separation_threshold_scan(arms, y, design.values[:, k], k)
    return _separation_lp(design.values, y)


def _separation_lp(x: np.ndarray, y: np.ndarray) -> str:
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


def _separation_threshold_scan(arms: np.ndarray, y: np.ndarray, x: np.ndarray, k: int) -> str:
    """Exact separation classification for indicator-plus-one-covariate designs.

    With arm intercepts free, a separating direction reduces to a
    per-arm threshold on the covariate shared across arms in sign:
    successes on one side, failures on the other.  Scanning both signs
    plus the degenerate-arm certificate (an arm with only one outcome
    level diverges on its own indicator) covers every case.
    """
    # An arm with a single outcome level diverges on its own indicator,
    # independent of any covariate direction.
    degenerate = False
    for j in range(k):
        yj = y[arms == j]
        if yj.size and (np.all(yj == 1.0) or np.all(yj == 0.0)):
            degenerate = True
            break
    quasi = False
    for sign in (1.0, -1.0):
        u = sign * x
        weak_all = True
        strict_all = True
        any_slack = False
        for j in range(k):
            mask = arms == j
            if not np.any(mask):
                continue
            yj = y[mask]
            uj = u[mask]
            succ = uj[yj == 1]
            fail = uj[yj == 0]
            if succ.size == 0 or fail.size == 0:
                any_slack = True
                continue
            lo = fail.max()
            hi = succ.min()
            if hi > lo:
                any_slack = True
            elif hi == lo:
                strict_all = False
                if succ.max() > hi or fail.min() < lo:
                    any_slack = True
            else:
                weak_all = False
                break
        if weak_all and strict_all and any_slack:
            return SEP_COMPLETE
        if weak_all and any_slack:
            quasi = True
    if quasi or degenerate:
        return SEP_QUASI
    return SEP_NONE


def separation_batch(arms_matrix: np.ndarray, y: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Vectorized threshold-scan classification over many assignments.

    Returns an integer array (0 none, 1 quasicomplete, 2 complete) with
    one entry per row of ``arms_matrix``; exact for designs of dose
    indicators plus the single covariate ``x``.
    """
    b, n = arms_matrix.shape
    y = np.asarray(y, dtype=float)
    complete = np.zeros(b, dtype=bool)
    quasi = np.zeros(b, dtype=bool)
    degenerate = np.zeros(b, dtype=bool)
    for sign in (1.0, -1.0):
        u = sign * x
        weak_all = np.ones(b, dtype=bool)
        strict_all = np.ones(b, dtype=bool)
        any_slack = np.zeros(b, dtype=bool)
        for j in range(k):
            mask = arms_matrix == j
            succ = mask & (y == 1.0)
            fail = mask & (y == 0.0)
            n_succ = succ.sum(axis=1)
            n_fail = fail.sum(axis=1)
            present = (n_succ + n_fail) > 0
            hom = present & ((n_succ == 0) | (n_fail == 0))
            if sign > 0:
                degenerate |= hom
            any_slack |= hom
            mixed = present & ~hom
            lo = np.where(fail, u[None, :], -np.inf).max(axis=1)
            hi = np.where(succ, u[None, :], np.inf).min(axis=1)
            hi_max = np.where(succ, u[None, :], -np.inf).max(axis=1)
            lo_min = np.where(fail, u[None, :], np.inf).min(axis=1)
            gap = mixed & (hi > lo)
            tie = mixed & (hi == lo)
            bad = mixed & (hi < lo)
            any_slack |= gap
            any_slack |= tie & ((hi_max > hi) | (lo_min < lo))
            strict_all &= ~(tie | bad)
            weak_all &= ~bad
        complete |= weak_all & strict_all & any_slack
        quasi |= weak_all & any_slack
    out = np.zeros(b, dtype=int)
    out[quasi | degenerate] = 1
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
    fits = BatchFits(fit.coefficients[None], fit.covariance[None],
                     np.array([fit.converged]), np.array([fit.iterations]))
    mu, cov = population_average_batch(fits, design.values[None], k)
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


def fit_mle_many(designs: np.ndarray, y: np.ndarray) -> BatchFits:
    """Batched binomial IRLS; one fit per leading slice of ``designs``.

    Slices are frozen once their score norm passes the tolerance, so a
    slice converged exactly when its iteration count is below 25.
    ``converged`` here combines that raw IRLS criterion with the
    divergence bound; no separation check is performed.
    """
    b, n, p = designs.shape
    y = np.asarray(y, dtype=float)
    beta = np.zeros((b, p))
    active = np.ones(b, dtype=bool)
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    for _ in range(MLE_MAX_ITER):
        if not np.any(active):
            break
        xa = designs[active]
        ba = beta[active]
        pi = expit(np.einsum("bnp,bp->bn", xa, ba))
        score = np.einsum("bnp,bn->bp", xa, y[None, :] - pi)
        done = np.linalg.norm(score, axis=1) < SCORE_TOL
        if np.any(done):
            idx = np.flatnonzero(active)[done]
            converged[idx] = True
            active[idx] = False
            keep = ~done
            if not np.any(keep):
                break
            xa, ba, pi, score = xa[keep], ba[keep], pi[keep], score[keep]
        w = pi * (1.0 - pi)
        info = np.einsum("bnp,bn,bnq->bpq", xa, w, xa)
        step = batch_solve(info, score)
        beta[active] = ba + step
        iterations[active] += 1

    covariances = _batch_inv(_information(designs, beta))
    converged &= np.max(np.abs(beta), axis=1) <= DIVERGENCE_BOUND
    return BatchFits(beta, covariances, converged, iterations)


def fit_firth_many(designs: np.ndarray, y: np.ndarray) -> BatchFits:
    """Batched Firth fits: the Newton loop of :func:`fit_firth`, slice by slice.

    Uses the zero start only (no multimodality polish): the batch path
    serves re-randomization refits, whose separation certificates run
    through the dose indicators where the penalized surface is benign.
    """
    b, n, p = designs.shape
    beta, _, converged, iterations = _firth_newton_many(
        designs, np.asarray(y, dtype=float), np.zeros((b, p)))
    return BatchFits(beta, _batch_inv(_information(designs, beta)), converged, iterations)


def _firth_newton_many(designs: np.ndarray, y: np.ndarray, start: np.ndarray):
    """Newton iteration on the modified score from one start per slice.

    Returns ``(beta, penalized_loglik, converged, iterations)``.
    """
    b = start.shape[0]
    beta = start.copy()
    pen = _penalized_loglik_batch(designs, y, beta)
    active = np.ones(b, dtype=bool)
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    for _ in range(FIRTH_MAX_ITER):
        if not np.any(active):
            break
        xa = designs[active]
        ba = beta[active]
        pi = expit(np.einsum("bnp,bp->bn", xa, ba))
        w = pi * (1.0 - pi)
        xw = xa * np.sqrt(w)[:, :, None]
        info = np.einsum("bnp,bnq->bpq", xw, xw)
        inv = _batch_inv(info)
        # Hat diagonals h_i = [W^1/2 X (X'WX)^-1 X'W^1/2]_ii.
        hat = np.einsum("bnp,bpq,bnq->bn", xw, inv, xw)
        u_star = np.einsum("bnp,bn->bp", xa, y[None, :] - pi + hat * (0.5 - pi))
        done = np.linalg.norm(u_star, axis=1) < SCORE_TOL
        if np.any(done):
            idx = np.flatnonzero(active)[done]
            converged[idx] = True
            active[idx] = False
            keep = ~done
            if not np.any(keep):
                break
            xa, ba, pi, u_star, info = xa[keep], ba[keep], pi[keep], u_star[keep], info[keep]
        step = batch_solve(info, u_star)
        big = np.max(np.abs(step), axis=1) / FIRTH_MAX_STEP
        step = np.where(big[:, None] > 1.0, step / np.maximum(big, 1.0)[:, None], step)
        new_beta = ba + step
        new_pen = _penalized_loglik_batch(xa, y, new_beta)
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
            new_pen[worse] = _penalized_loglik_batch(xa[worse], y, new_beta[worse])
        beta[active] = new_beta
        pen[active] = new_pen
        iterations[active] += 1
    return beta, pen, converged, iterations


def fit_gaussian_many(designs: np.ndarray, y: np.ndarray) -> BatchFits:
    """Batched least squares, by the normal equations, with classical covariances."""
    b, n, p = designs.shape
    y = np.asarray(y, dtype=float)
    xtx = np.einsum("bnp,bnq->bpq", designs, designs)
    xty = np.einsum("bnp,n->bp", designs, y)
    beta = batch_solve(xtx, xty)
    resid = y[None, :] - np.einsum("bnp,bp->bn", designs, beta)
    rss = np.einsum("bn,bn->b", resid, resid)
    sigma2 = rss / (n - p) if n > p else np.zeros(b)
    covariances = _batch_inv(xtx) * sigma2[:, None, None]
    return BatchFits(
        beta, covariances,
        np.ones(b, dtype=bool), np.ones(b, dtype=int),
    )


def population_average_batch(fits: BatchFits, designs: np.ndarray, k: int):
    """Batched version of :func:`population_average_means`.

    Returns ``(mu, cov)`` with shapes (B, k) and (B, k, k).
    """
    b, n, p_total = designs.shape
    p = p_total - k
    if p:
        xbar = designs[:, :, k:].mean(axis=1)  # (B, p) identical rows in practice
        l_mat = np.concatenate(
            [np.broadcast_to(np.eye(k), (b, k, k)), np.repeat(xbar[:, None, :], k, axis=1)],
            axis=2,
        )
    else:
        l_mat = np.broadcast_to(np.eye(k), (b, k, k))
    mu = np.einsum("bkp,bp->bk", l_mat, fits.coefficients)
    cov = np.einsum("bkp,bpq,blq->bkl", l_mat, fits.covariances, l_mat)
    return mu, cov


def _information(designs: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Binomial information ``X'WX`` of every slice at its coefficients."""
    pi = expit(np.einsum("bnp,bp->bn", designs, beta))
    w = pi * (1.0 - pi)
    return np.einsum("bnp,bn,bnq->bpq", designs, w, designs)


def _penalized_loglik_batch(designs: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    eta = np.einsum("bnp,bp->bn", designs, beta)
    pi = expit(eta)
    w = np.clip(pi * (1.0 - pi), 1e-300, None)
    info = np.einsum("bnp,bn,bnq->bpq", designs, w, designs)
    sign, logdet = np.linalg.slogdet(info)
    ll = np.sum(y[None, :] * eta - np.logaddexp(0.0, eta), axis=1)
    out = ll + 0.5 * logdet
    out[sign <= 0] = -np.inf
    return out


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
