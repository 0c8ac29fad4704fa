"""Multiple contrast test statistics and the five testing procedures.

Two statistics are available.  The refit statistic builds the full
dose-indicator GLM for a treatment assignment and standardizes the
population-average arm means against their fitted covariance.  The
residual statistic fits a covariate-only model once, then contrasts
group means of its residuals, so re-randomization never refits.

Either statistic can drive a Monte Carlo randomization test or, for
small designs, an exact test over the enumerated reference set.  The
population-based test standardizes the refit statistic against a
multivariate normal reference with the estimated contrast correlation.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtr, chdtrc, fdtr, fdtrc, ndtr, ndtri, stdtr

from . import contrasts, glm
from .contrasts import (  # optimal_contrast is uncalled here; perfbench/trace.py patches it
    ContrastMatrix,
    _optimal_contrasts_batch,
    contrast_matrix,
    optimal_contrast,
    shape_matrix,
)
from .data import TrialDataset
from .dose_response import CandidateSet
from .randomization import (
    CR,
    RandomizationSpec,
    enumerate_sequences,
    is_member,
    sample_sequences,
)

METHOD_IDS = ("population", "glm_mle", "residual_mle", "glm_firth", "residual_firth")
# Conventional report numbering for the five procedures.
METHOD_NUMBERS = {mid: number for number, mid in enumerate(METHOD_IDS, start=1)}
_MAX_REDRAW_ROUNDS = 1000


class DegenerateVarianceError(RuntimeError):
    """An arm has fewer patients than the statistic needs (two, or one for a refit)."""


class ResidualModelError(RuntimeError):
    """The covariate-only residual model could not be fit."""


@dataclass(frozen=True)
class TestMethod:
    """One of the five testing procedures plus its tuning knobs."""

    __test__ = False  # not a pytest class, despite the name

    id: str
    n_rand: int = 1000
    pvalue_rule: str = "plain"  # "plain" | "add_one"
    # Population-test reference: None uses correlated standard normals;
    # a finite value uses the multivariate t with that many degrees of
    # freedom (the finite-sample convention of standard dose-finding
    # software; the built-in scenario presets set n minus the parameter
    # count).
    df: float | None = None

    def __post_init__(self):
        if self.id not in METHOD_IDS:
            raise ValueError(f"unknown method {self.id!r}, expected one of {METHOD_IDS}")
        if self.pvalue_rule not in ("plain", "add_one"):
            raise ValueError(f"unknown p-value rule {self.pvalue_rule!r}")
        if self.id != "population" and self.n_rand < 1:
            raise ValueError("randomization methods need n_rand >= 1")
        if self.df is not None and not (np.isfinite(self.df) and self.df > 0):
            raise ValueError(f"df must be finite and positive when given, not {self.df}")
        if self.is_randomization and self.df is not None:
            raise ValueError(f"df sets the population reference; the {self.id} method has none")
        if not self.is_randomization and self.pvalue_rule != "plain":
            raise ValueError(f"the population method takes no pvalue_rule {self.pvalue_rule!r}")

    @property
    def number(self) -> int:
        return METHOD_NUMBERS[self.id]

    @property
    def estimator(self) -> str:
        return "firth" if self.id.endswith("_firth") else "mle"

    @property
    def statistic(self) -> str:
        return "residual" if self.id.startswith("residual") else "glm"

    @property
    def is_randomization(self) -> bool:
        return self.id != "population"


def default_methods(n_rand: int = 1000) -> tuple[TestMethod, ...]:
    return tuple(TestMethod(id=mid, n_rand=n_rand) for mid in METHOD_IDS)


@dataclass(frozen=True)
class TestOutcome:
    """Observed statistic, p-value and diagnostics of one analysis."""

    __test__ = False  # not a pytest class, despite the name

    method: TestMethod
    statistic: float
    per_contrast: np.ndarray
    contrast_labels: tuple[str, ...]
    p_value: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        per = np.asarray(self.per_contrast, dtype=float)
        object.__setattr__(self, "per_contrast", per)
        if per.size:
            top = float(np.max(per))
            same = self.statistic == top or abs(self.statistic - top) <= 1e-12
            if not same:
                raise ValueError("statistic must be the maximum per-contrast value")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


# ---------------------------------------------------------------------------
# Statistic evaluation over a batch of treatment assignments
# ---------------------------------------------------------------------------

def _family(data: TrialDataset) -> str:
    return "binomial" if data.endpoint == "binary" else "gaussian"


def _contrast_statistics(mu0s: np.ndarray, mu: np.ndarray, cov: np.ndarray):
    """Per-contrast t (B, M) and optimal contrasts (B, M, k) of ``mu`` (B, k) under ``cov``."""
    c = _optimal_contrasts_batch(mu0s, cov)
    num = np.einsum("bmk,bk->bm", c, mu)
    den = np.einsum("bmk,bkl,bml->bm", c, cov, c)
    return np.where(den > 0, num / np.sqrt(np.where(den > 0, den, 1.0)), 0.0), c


def glm_statistics_batch(
    data: TrialDataset,
    arms_matrix: np.ndarray,
    candidates: CandidateSet,
    estimator: str = "mle",
):
    """Refit statistic for every row of ``arms_matrix``.

    Returns ``(stats, t_matrix, diag)`` where ``stats`` has one entry
    per assignment, ``t_matrix`` the per-contrast values, and ``diag``
    counts non-convergent refits.  Outcomes and covariates stay fixed;
    only the dose indicators move.
    """
    k = data.grid.k
    mu0s, _ = shape_matrix(candidates, data.grid)
    family = _family(data)
    if family == "gaussian":
        fit_many = glm.fit_gaussian_many
    elif estimator == "firth":
        fit_many = glm.fit_firth_many
    else:
        fit_many = glm.fit_mle_many
    fits = fit_many(arms_matrix, k, data.covariates, data.outcomes)
    mu, cov = glm.population_average_batch(fits.coefficients, fits.covariances, k, data.covariates)
    t_matrix, _ = _contrast_statistics(mu0s, mu, cov)
    return t_matrix.max(axis=1), t_matrix, {"nonconverged_refits": int(np.sum(~fits.converged))}


def residual_statistics_batch(
    residual: np.ndarray,
    arms_matrix: np.ndarray,
    k: int,
    contrasts: ContrastMatrix | None = None,
    mu0s: np.ndarray | None = None,
):
    """Residual statistic for every assignment row, as ``(stats, t_matrix, diag)``.

    With fixed target arm sizes, pass the precomputed ``contrasts``;
    under complete randomization pass ``mu0s`` instead and per-row
    contrasts are rebuilt from the realized arm sizes.  Rows with an
    arm of fewer than two patients are flagged invalid (NaN statistic).
    Arms with zero residual variance contribute no noise: if every
    contrast's variance vanishes, the statistic is 0 for a zero signal
    and +/-inf otherwise.

    Rows go through in blocks of at most ``glm.BLOCK_ENTRIES`` patient
    entries, small enough that the allocator reuses the temporaries of
    one block for the next.  Every step is row-local, so a row's values
    do not depend on its block.
    """
    if contrasts is None and mu0s is None:
        raise ValueError("need either fixed contrasts or candidate shapes")
    r = np.asarray(residual, dtype=float)
    rows = max(1, glm.BLOCK_ENTRIES // max(arms_matrix.shape[1], 1))
    parts = [_residual_block(r, arms_matrix[lo:lo + rows], k, contrasts, mu0s)
             for lo in range(0, max(arms_matrix.shape[0], 1), rows)]
    stats, t_matrix, valid = (np.concatenate(part) for part in zip(*parts))
    return stats, t_matrix, {"invalid_rows": valid.size - int(np.count_nonzero(valid))}


def _residual_block(r, arms_matrix, k, contrasts, mu0s):
    """``(stats, t_matrix, valid)`` of :func:`residual_statistics_batch` on one row block."""
    offsets = glm.arm_offsets(arms_matrix, k)
    counts = glm.arm_sums(offsets, k)
    sums = glm.arm_sums(offsets, k, r)
    sqs = glm.arm_sums(offsets, k, r ** 2)
    # Reductions over the few arms or contrasts of a row run column by
    # column: a small last axis makes numpy's per-row reductions slow.
    valid = counts[:, 0] >= 2
    for column in counts.T[1:]:
        valid &= column >= 2
    safe = np.maximum(counts, 1.0)
    means = sums / safe
    variances = np.clip(sqs - sums ** 2 / safe, 0.0, None) / np.maximum(counts - 1.0, 1.0)

    if contrasts is not None:
        # einsum forms each (row, contrast) value as one dot product over
        # the arms, whether the contrasts are one (M, k) matrix or a
        # (B, M, k) stack, so both give the same bits.
        c, subscripts = contrasts.vectors, "mk,bk->bm"
    else:
        # Design weights of the realized arm sizes: covariance diag(1/n_j).
        c, subscripts = _optimal_contrasts_batch(mu0s, np.eye(k) / safe[:, None, :]), "bmk,bk->bm"
    num = np.einsum(subscripts, c, means)
    den = np.einsum(subscripts, c ** 2, variances / safe)
    scale = float(np.max(np.abs(r))) if r.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_matrix = num / np.sqrt(den)
    zero_den = den <= (1e-14 * (scale + 1e-300)) ** 2
    if zero_den.any():
        flat = num[zero_den]
        signed_inf = np.where(flat > 0, np.inf, -np.inf)
        t_matrix[zero_den] = np.where(np.abs(flat) <= 1e-12 * (scale + 1e-300), 0.0, signed_inf)
    stats = t_matrix[:, 0].copy()
    for column in t_matrix.T[1:]:
        np.maximum(stats, column, out=stats)
    stats[~valid] = np.nan
    return stats, t_matrix, valid


# ---------------------------------------------------------------------------
# Residual model
# ---------------------------------------------------------------------------

def fit_residual_model(data: TrialDataset, estimator: str = "mle"):
    """Covariate-only (intercept + covariates) fit and its residuals."""
    design = glm.covariate_design(data.covariates, n=data.n)
    family = _family(data)
    if family == "gaussian":
        fit = glm.fit_mle(design, data.outcomes, family="gaussian")
    elif estimator == "firth":
        fit = glm.fit_firth(design, data.outcomes)
    else:
        fit = glm.fit_mle(design, data.outcomes)
    if not fit.converged:
        raise ResidualModelError(
            f"covariate-only {estimator} model did not converge "
            f"(separation: {fit.separation}); use the firth estimator"
        )
    return fit, glm.residuals(fit, design, data.outcomes)


def residual_design_contrasts(
    spec: RandomizationSpec, candidates: CandidateSet
) -> ContrastMatrix | None:
    """Fixed design-weight contrasts, or None when sizes vary per draw (CR)."""
    if spec.procedure == CR:
        return None
    return contrast_matrix(candidates, spec.grid, arm_sizes=spec.expected_arm_sizes())


# ---------------------------------------------------------------------------
# Randomization tests
# ---------------------------------------------------------------------------

def _short_rows(spec: RandomizationSpec, arms_matrix: np.ndarray, min_arm: int):
    """Mask of the rows with an arm below ``min_arm``; None for RA and PBD, whose
    arm sizes ``_randomization_statistic`` has checked."""
    if spec.procedure != CR:
        return None
    return np.any(glm.arm_sums(glm.arm_offsets(arms_matrix, spec.k), spec.k) < min_arm, axis=1)


def _draw_valid_sequences(
    spec: RandomizationSpec,
    sequences: np.ndarray,
    rng: np.random.Generator,
    min_arm: int,
) -> tuple[np.ndarray, int]:
    """Replace the rows of ``sequences`` that ``_short_rows`` marks.

    The valid rows are kept in order, fresh valid draws follow them, and
    the number of rows drawn again is returned with them.  A batch with
    no row to replace is returned as it is, uncopied.
    """
    rows = []
    redraws = 0
    need = sequences.shape[0]
    batch = sequences
    for _ in range(_MAX_REDRAW_ROUNDS):
        short = _short_rows(spec, batch, min_arm)
        if short is None or not (rows or short.any()):
            return sequences, 0
        redraws += int(np.sum(short))
        rows.append(batch[~short])
        need -= int(np.sum(~short))
        if need == 0:
            return np.concatenate(rows, axis=0), redraws
        batch = sample_sequences(spec, need, rng)
    raise DegenerateVarianceError(
        f"could not draw {sequences.shape[0]} sequences with every arm >= {min_arm} patients"
    )


def _randomization_statistic(
    data: TrialDataset,
    spec: RandomizationSpec,
    method: TestMethod,
    candidates: CandidateSet,
):
    """Checks and set-up shared by the Monte Carlo and the exact test.

    Returns ``(evaluate, labels, min_arm, residual_fit, diagnostics)``.
    ``evaluate(arms_matrix)`` is the method's statistic batch function
    with everything else fixed; ``min_arm`` is the smallest arm it is
    defined for; ``residual_fit`` is None for the refit statistic;
    ``diagnostics`` flags an observed sequence outside the reference set.
    A procedure that no sequence of fills every arm to ``min_arm`` raises
    :class:`DegenerateVarianceError`, so only CR rows can be short.
    """
    if not method.is_randomization:
        raise ValueError("use population_test for the population-based method")
    if data.n != spec.n:
        raise ValueError(f"dataset has {data.n} patients but the procedure expects {spec.n}")
    if data.grid.doses != spec.grid.doses:
        raise ValueError("dataset and randomization grids differ")
    min_arm = 2 if method.statistic == "residual" else 1
    sizes = spec.expected_arm_sizes()
    # The most patients that every arm can hold at once in one sequence.
    fill = spec.n // spec.k * (sizes.min() > 0) if spec.procedure == CR else sizes.min()
    if fill < min_arm:
        raise DegenerateVarianceError(
            f"the {method.id} statistic needs {min_arm} or more patients in every arm, which "
            f"no {spec.procedure} sequence gives (expected arm sizes {sizes.tolist()})")
    diagnostics: dict = {}
    if not is_member(spec, data.arms):
        warnings.warn("observed sequence is not a member of the declared reference set")
        diagnostics["observed_not_in_reference_set"] = True
    mu0s, labels = shape_matrix(candidates, data.grid)

    if method.statistic == "residual":
        obs_counts = data.arm_sizes()
        if np.any(obs_counts < 2):
            raise DegenerateVarianceError(
                f"observed data has an arm with < 2 patients: {obs_counts.tolist()}"
            )
        fit, residual = fit_residual_model(data, method.estimator)
        fixed = residual_design_contrasts(spec, candidates)

        def evaluate(arms_matrix):
            return residual_statistics_batch(
                residual, arms_matrix, data.grid.k,
                contrasts=fixed, mu0s=None if fixed is not None else mu0s,
            )
        return evaluate, labels, min_arm, fit, diagnostics

    # A refit of a rank-deficient design has no unique coefficients.
    glm._check_rank(glm.design_from_assignments(data.arms, data.grid.k, data.covariates))

    def evaluate(arms_matrix):
        return glm_statistics_batch(data, arms_matrix, candidates, estimator=method.estimator)
    return evaluate, labels, min_arm, None, diagnostics


def randomization_test(
    data: TrialDataset,
    spec: RandomizationSpec,
    method: TestMethod,
    candidates: CandidateSet,
    rng: np.random.Generator,
    sequences: np.ndarray | None = None,
) -> TestOutcome:
    """Monte Carlo randomization test holding outcomes and covariates fixed.

    Draws ``method.n_rand`` sequences from the procedure, evaluates the
    method's statistic on each with the observed responses, and counts
    re-randomized statistics at least as large as the observed one.
    The plain p-value rule divides by ``n_rand`` exactly; the add-one
    rule returns ``(1 + count) / (1 + n_rand)`` and can never be zero.
    The binary ``glm_mle`` test also counts the separated sequences.
    """
    evaluate, labels, min_arm, fit, diagnostics = _randomization_statistic(
        data, spec, method, candidates,
    )
    if sequences is None:
        sequences = sample_sequences(spec, method.n_rand, rng)
    sequences, redraws = _draw_valid_sequences(spec, sequences, rng, min_arm)
    if redraws:
        diagnostics["redrawn_sequences"] = redraws
    if fit is not None:
        diagnostics["residual_fit"] = {
            "estimator": fit.estimator, "iterations": fit.iterations,
            "separation": fit.separation,
        }

    batch = np.concatenate([data.arms[None, :], sequences], axis=0)
    stats, t_matrix, diag = evaluate(batch)
    diagnostics.update(diag)
    if method.id == "glm_mle" and data.endpoint == "binary":
        codes = glm.separation_batch(batch, data.outcomes, data.covariates, spec.k)
        diagnostics["observed_separation"] = glm.SEP_NAMES[int(codes[0])]
        diagnostics["separated_refits"] = int(np.sum(codes[1:] > 0))

    s_obs = stats[0]
    s_rand = stats[1:]
    count = int(np.sum(s_rand >= s_obs))
    n_rand = s_rand.shape[0]
    if method.pvalue_rule == "plain":
        p_value = count / n_rand
    else:
        p_value = (1 + count) / (1 + n_rand)
    diagnostics["n_rand"] = n_rand
    diagnostics["count_geq"] = count
    diagnostics["mc_se"] = float(np.sqrt(max(p_value * (1 - p_value), 0.0) / n_rand))
    return TestOutcome(
        method=method,
        statistic=float(s_obs),
        per_contrast=t_matrix[0],
        contrast_labels=tuple(labels),
        p_value=float(p_value),
        diagnostics=diagnostics,
    )


def exact_randomization_pvalue(
    data: TrialDataset,
    spec: RandomizationSpec,
    method: TestMethod,
    candidates: CandidateSet,
) -> TestOutcome:
    """Exact p-value by weighted enumeration of the whole reference set.

    Complete-randomization sequences whose statistic is undefined (those
    ``_short_rows`` marks) are excluded and the remaining probabilities
    renormalized; the excluded mass is reported in the diagnostics.  A
    reference set above ``randomization.ENUMERATION_CAP`` sequences
    raises :class:`~randmcp.randomization.EnumerationTooLargeError`.
    """
    evaluate, labels, min_arm, _, diagnostics = _randomization_statistic(
        data, spec, method, candidates,
    )
    s_obs_arr, t_obs, _ = evaluate(data.arms[None, :])
    s_obs = float(s_obs_arr[0])

    mass_geq = 0.0
    mass_valid = 0.0
    mass_excluded = 0.0
    total = 0
    for arms_matrix, pvec in enumerate_sequences(spec):
        total += pvec.size
        short = _short_rows(spec, arms_matrix, min_arm)
        if short is not None:
            mass_excluded += float(pvec[short].sum())
            arms_matrix, pvec = arms_matrix[~short], pvec[~short]
        if pvec.size:
            stats = evaluate(arms_matrix)[0]
            mass_valid += float(pvec.sum())
            mass_geq += float(pvec[stats >= s_obs].sum())

    if mass_valid <= 0:
        raise DegenerateVarianceError("every reference-set sequence was degenerate")
    p_value = mass_geq / mass_valid
    diagnostics.update({
        "reference_set_size": total,
        "excluded_probability_mass": mass_excluded,
        "exact": True,
    })
    return TestOutcome(
        method=method,
        statistic=s_obs,
        per_contrast=t_obs[0],
        contrast_labels=tuple(labels),
        p_value=float(min(max(p_value, 0.0), 1.0)),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Population-based test
# ---------------------------------------------------------------------------

def _radial_tail(t: float, g: np.ndarray, r: int, df: float | None) -> np.ndarray:
    """P(R g >= t) per direction value g; R is chi_r, or sqrt(r F(r, df)) under t(df)."""
    side = g > 0 if t > 0 else g < 0
    x = t * t / g[side] ** 2
    if df is None:
        prob = chdtrc(r, x) if t > 0 else chdtr(r, x)
    else:
        prob = fdtrc(r, df, x / r) if t > 0 else fdtr(r, df, x / r)
    out = np.full(g.shape, float(t <= 0))
    out[side] = prob
    return out


_SOBOL_BITS = 30  # scipy's default Sobol precision


@functools.lru_cache(maxsize=None)
def _sobol_directions(d: int, m: int) -> np.ndarray:
    """The first ``m`` unscrambled Sobol direction numbers per dimension, (d, m) uint32.

    Point 2^(b+1) - 1 of the unscrambled sequence is direction number b,
    since the Gray code of that index has bit b alone set.
    """
    from scipy.stats import qmc  # imported here: scipy.stats costs ~0.5 s to import

    points = qmc.Sobol(d, scramble=False).random(1 << m)
    directions = (points[(2 << np.arange(m)) - 1] * 2.0 ** _SOBOL_BITS).astype(np.uint32).T
    directions.flags.writeable = False  # shared by every caller through the cache
    return directions


def _scrambled_sobol(d: int, seeds, n: int) -> np.ndarray:
    """``qmc.Sobol(d, scramble=True, seed=s).random(n)`` for each seed s, as (seeds, n, d).

    Each seed's generator draws, in scipy's order, a digital shift and
    per dimension a lower-triangular GF(2) matrix with unit diagonal,
    which left-multiplies the bits of each direction number, most
    significant first (Matousek's linear matrix scramble).  A float
    product of 0/1 values is exact, so one float matrix product, mod 2,
    scrambles every seed.  Point i XORs the shift with the scrambled
    direction numbers of the bits of i's Gray code; the Gray code of
    2^b + j is that of 2^b - 1 - j with bit b set, so each block of
    points reflects the one before it.
    """
    bits, m = _SOBOL_BITS, (n - 1).bit_length()
    weights = 2.0 ** np.arange(bits)
    shift = np.empty((len(seeds), d), dtype=np.uint32)
    lower = np.empty((len(seeds), d, bits, bits))
    for i, seed in enumerate(seeds):
        draw = np.random.default_rng(seed)
        shift[i] = draw.integers(0, 2, size=(d, bits), dtype=np.uint32) @ weights
        lower[i] = draw.integers(0, 2, size=(d, bits, bits), dtype=np.uint32)
    lower = np.tril(lower)
    lower[..., np.arange(bits), np.arange(bits)] = 1.0
    msb_first = np.arange(bits - 1, -1, -1)
    v_bits = (_sobol_directions(d, m)[:, None, :] >> msb_first[:, None]) & 1  # (d, bits, m)
    scrambled_bits = (lower @ v_bits).astype(np.uint32) & 1  # (seeds, d, bits, m)
    scrambled = (weights[::-1] @ scrambled_bits).astype(np.uint32)  # (seeds, d, m)
    x = np.zeros((1 << m, len(seeds), d), dtype=np.uint32)
    for b in range(m):
        half = 1 << b
        np.bitwise_xor(x[half - 1::-1], scrambled[..., b], out=x[half:2 * half])
    x ^= shift
    return np.multiply(x[:n].transpose(1, 0, 2), 2.0 ** -bits, order="C")


def max_tail_probability(
    threshold: float,
    corr: np.ndarray,
    points: int = 1 << 14,
    reps: int = 8,
    rng: np.random.Generator | None = None,
    df: float | None = None,
):
    """Upper tail of the maximum of correlated standard variates.

    Spherical-radial integration (Genz & Bretz 2009): ``corr`` of rank r
    factors as L L', so the maximum is R max(L u) for a direction u on
    the r-sphere and a chi_r radius R, whose tail has a closed form.
    Only ``points`` directions are sampled, as antithetic pairs from
    ``reps`` scrambled Sobol replicates; their spread is the reported
    error.  Replicate i is scipy's ``qmc.Sobol(r, scramble=True,
    seed=s_i)`` with s_i drawn from ``rng``, built bit for bit by
    ``_scrambled_sobol``, and all replicates go through one pass.  A
    finite ``df`` gives the multivariate t.  ``corr`` is rounded to 12
    decimals and eigenvalues below 1e-10 of the largest are dropped, so
    rounding noise in a rank-deficient correlation leaves p unchanged;
    one below -1e-10 flags it as repaired.  A NaN ``threshold``, ``reps``
    below 2 (no error estimate), or a missing ``rng`` for two or more
    contrasts raises ``ValueError``; one contrast has a closed form that
    draws nothing.
    """
    if np.isnan(threshold):
        raise ValueError("threshold must be a number or +-inf, not NaN")
    if reps < 2:
        raise ValueError(f"reps must be at least 2 for an error estimate, not {reps}")
    corr = np.round(np.atleast_2d(np.asarray(corr, dtype=float)), 12)
    if corr.shape[0] == 1:
        # scipy.stats' norm.sf and t.sf are exactly these calls.
        tail = ndtr(-threshold) if df is None else stdtr(df, -threshold)
        return float(tail), 0.0, False
    if rng is None:
        raise ValueError("max_tail_probability needs an rng to seed its Sobol replicates "
                         "when there are two or more contrasts")
    eigval, eigvec = np.linalg.eigh(corr)
    repaired = bool(eigval.min() < -1e-10)
    kept = eigval >= 1e-10 * eigval.max()
    loadings = eigvec[:, kept] * np.sqrt(eigval[kept])  # (m, r)
    r = loadings.shape[1]

    pairs = 1 << max(int(np.ceil(np.log2(max(points, 2 * reps) / (2 * reps)))), 3)
    seeds = [int(rng.integers(2 ** 63)) for _ in range(reps)]
    z = ndtri(np.clip(_scrambled_sobol(r, seeds, pairs), 1e-15, 1 - 1e-15)).reshape(-1, r)
    squares = z * z
    # np.linalg.norm's row sums: fewer than 8 terms one by one, more pairwise.
    if r < 8:
        norm2 = squares[:, 0].copy()
        for column in squares.T[1:]:
            norm2 += column
    else:
        norm2 = np.add.reduce(squares, axis=1)
    proj = (z / np.sqrt(norm2)[:, None]) @ loadings.T
    hi, lo = proj[:, 0].copy(), proj[:, 0].copy()
    for column in proj.T[1:]:
        np.maximum(hi, column, out=hi)
        np.minimum(lo, column, out=lo)
    g = np.concatenate([hi.reshape(reps, pairs), -lo.reshape(reps, pairs)], axis=1)
    estimates = _radial_tail(threshold, g, r, df).mean(axis=1)
    p = float(np.clip(estimates.mean(), 0.0, 1.0))
    err = float(estimates.std(ddof=1) / np.sqrt(reps))
    return p, err, repaired


def population_test(
    data: TrialDataset,
    candidates: CandidateSet,
    method: TestMethod | None = None,
    rng: np.random.Generator | None = None,
) -> TestOutcome:
    """Population-based multiple contrast test (asymptotic reference).

    Fits the dose-indicator GLM once, computes the per-contrast
    statistics against the fitted covariance of the population-average
    means, and reports the one-sided multiplicity-adjusted p-value
    ``P(max of M correlated standard normals >= observed max)`` (the
    multivariate t for a finite ``method.df``) by ``max_tail_probability``
    at its default budget, with ``qmc_error`` its error.  Two or more
    candidates need an ``rng`` to seed that integral.
    """
    method = method or TestMethod(id="population")
    if method.id != "population":
        raise ValueError("population_test requires the population method")
    design = glm.design_from_assignments(data.arms, data.grid.k, data.covariates)
    fit = glm.fit_mle(design, data.outcomes, family=_family(data))
    avg = glm.population_average_means(fit, design)
    mu0s, labels = shape_matrix(candidates, data.grid)
    contrasts._check_inputs(mu0s, avg.covariance)
    (t_vec,), (c,) = _contrast_statistics(mu0s, avg.mu[None], avg.covariance[None])
    t_obs = float(t_vec.max())

    cross = np.einsum("mk,kl,nl->mn", c, avg.covariance, c)
    scale = np.sqrt(np.clip(np.diag(cross), 1e-300, None))
    corr = cross / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)

    p, err, repaired = max_tail_probability(t_obs, corr, rng=rng, df=method.df)
    diagnostics = {
        "qmc_error": err,
        "correlation_repaired": repaired,
        "fit_converged": fit.converged,
        "fit_separation": fit.separation,
        "estimator": fit.estimator,
        "reference": "normal" if method.df is None else f"t({method.df:g})",
        "fit": fit.summary(),
    }
    return TestOutcome(
        method=method,
        statistic=t_obs,
        per_contrast=t_vec,
        contrast_labels=labels,
        p_value=p,
        diagnostics=diagnostics,
    )


def analyze(
    data: TrialDataset,
    method: TestMethod,
    candidates: CandidateSet,
    spec: RandomizationSpec | None = None,
    rng: np.random.Generator | None = None,
    exact: bool = False,
) -> TestOutcome:
    """Run one method on one dataset, dispatching on its kind.

    ``exact=True`` enumerates the reference set of a randomization
    method; the population method has none, so it raises ``ValueError``.
    Every other call draws random numbers and needs an ``rng``.
    """
    if exact and not method.is_randomization:
        raise ValueError(f"the {method.id} method has no exact test; exact=True needs a "
                         "randomization method")
    if not exact and rng is None:
        raise ValueError(f"the {method.id} test draws random numbers and needs an rng")
    if method.id == "population":
        return population_test(data, candidates, method=method, rng=rng)
    if spec is None:
        raise ValueError("randomization methods need the trial's randomization procedure")
    if exact:
        return exact_randomization_pvalue(data, spec, method, candidates)
    return randomization_test(data, spec, method, candidates, rng)
