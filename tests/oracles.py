"""Independent oracles shared across test modules.

These deliberately avoid the implementation paths they check: the
penalized-likelihood maximizer is a grid search with local refinement,
and the contrast maximizer is a generic constrained optimizer.  The
batched-kernel references at the end are the earlier loops that
recompute every quantity where they use it; the kernels must match
them bit for bit.  The reference-set generator is the earlier
per-sequence recursion that the chunked enumerator must reproduce row
for row, and the per-position unranking of one block's arrangements
is the reference for its prefix and suffix tables.  The residual
statistic is the earlier form whose fixed contrasts were broadcast to
every row and whose ``where`` masks covered every entry; the pass-saving
kernel must match it bit for bit.  The population statistic is the
earlier per-shape loop that the shared contrast kernel replaced.  The population reference integral
is the earlier loop of one scipy Sobol engine per replicate, which the
batched in-package scramble must match bit for bit.
"""
from itertools import product

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, ndtr, ndtri, stdtr
from scipy.stats import qmc

from randmcp import glm
from randmcp.contrasts import optimal_contrast, shape_matrix
from randmcp.glm import (
    DIVERGENCE_BOUND,
    FIRTH_MAX_HALVINGS,
    FIRTH_MAX_ITER,
    FIRTH_MAX_STEP,
    MLE_MAX_ITER,
    SCORE_TOL,
    BatchFits,
    _as_covariates,
    _batch_inv,
    _binomial_covariances,
    _BlockDesigns,
    batch_solve,
)
from randmcp.inference import _optimal_contrasts_batch, _radial_tail
from randmcp.randomization import (
    CR,
    ENUMERATION_CAP,
    RA,
    _multinomial,
    count_sequences,
    enumerate_sequences,
)


def penalized_loglik_direct(x, y, beta):
    """loglik + 0.5 log|I(beta)| evaluated from first principles."""
    eta = x @ beta
    pi = expit(eta)
    ll = np.sum(y * eta - np.logaddexp(0.0, eta))
    info = x.T @ ((pi * (1 - pi))[:, None] * x)
    sign, logdet = np.linalg.slogdet(info)
    return ll + 0.5 * logdet if sign > 0 else -np.inf


def grid_maximize_penalized(x, y, span=24.0, coarse=41, refinements=16):
    """Brute-force maximizer of the penalized likelihood, <= 2 parameters.

    Full grid over [-span, span]^p, then repeated recenter-and-shrink
    passes; the gentle shrink factor keeps diagonal ridges inside the
    next box.  Final spacing is ~1e-9, comfortably below the 1e-6
    comparison tolerance.
    """
    p = x.shape[1]
    assert p <= 2
    center = np.zeros(p)
    width = span
    best = None
    for _ in range(refinements):
        axes = [np.linspace(c - width, c + width, coarse) for c in center]
        if p == 1:
            points = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            points = np.column_stack([g0.ravel(), g1.ravel()])
        values = np.array([penalized_loglik_direct(x, y, b) for b in points])
        best = points[np.argmax(values)]
        center = best
        width = width * 0.25
    return best


def separation_lp(design, y):
    """Separation class of a design by the two linear programs alone.

    ``glm.detect_separation`` runs them only for designs its threshold
    scan does not cover, so this is the independent reference for the scan.
    """
    from randmcp.glm import _separation_lp

    return _separation_lp(design.values, np.asarray(y, dtype=float))


def standardized_gain(c, mu0, S):
    return c @ mu0 / np.sqrt(c @ S @ c)


def maximize_gain_numerically(mu0, S, seed=0, starts=8):
    """SLSQP maximization of c'mu0/sqrt(c'Sc) over zero-sum unit vectors."""
    rng = np.random.default_rng(seed)
    k = mu0.shape[0]
    best, best_val = None, -np.inf
    for _ in range(starts):
        start = rng.normal(size=k)
        start -= start.mean()
        start /= np.linalg.norm(start)
        res = minimize(
            lambda c: -standardized_gain(c, mu0, S),
            start,
            method="SLSQP",
            constraints=[
                {"type": "eq", "fun": lambda c: np.sum(c)},
                {"type": "eq", "fun": lambda c: c @ c - 1.0},
            ],
            options={"maxiter": 600, "ftol": 1e-15},
        )
        if res.success and -res.fun > best_val:
            best, best_val = res.x, -res.fun
    assert best is not None
    return best, best_val


class DenseDesigns:
    """Dense-stack version of the operations of ``glm._BlockDesigns``.

    Every product is an ``einsum`` over the (B, n, p) stack that
    ``stack_designs`` builds (the covariates alone when k = 0).  Patched
    in for ``glm._BlockDesigns``, it runs the batched fit loops on the
    dense design, as the kernels did before they used its block structure.
    """

    def __init__(self, arms_matrix, k, covariates=None):
        from randmcp.glm import stack_designs

        self.arms, self.k, self.covariates = np.asarray(arms_matrix), k, covariates
        self.b, self.n = self.arms.shape
        if k:
            self.x = stack_designs(self.arms, k, covariates)
        else:
            z = np.asarray(covariates, dtype=float).reshape(self.n, -1)
            self.x = np.broadcast_to(z, (self.b,) + z.shape)
        self.p = self.x.shape[2]

    def take(self, rows):
        return DenseDesigns(self.arms[rows], self.k, self.covariates)

    def eta(self, beta):
        return np.einsum("bnp,bp->bn", self.x, beta)

    def xt(self, v):
        return np.einsum("bnp,bn->bp", self.x, v)

    def xtwx(self, w):
        return np.einsum("bnp,bn,bnq->bpq", self.x, w, self.x)

    def hat(self, w, inv):
        return w * np.einsum("bnp,bpq,bnq->bn", self.x, inv, self.x)


def mle_many_reference(arms_matrix, k, covariates, y):
    """Batched IRLS that rebuilds X'WX after the score test and every
    covariance at the end: the reference for ``glm.fit_mle_many``."""
    designs = _BlockDesigns(arms_matrix, k, covariates)
    y = np.asarray(y, dtype=float)
    beta = np.zeros((designs.b, designs.p))
    active = np.arange(designs.b)
    iterations = np.zeros(designs.b, dtype=int)
    converged = np.zeros(designs.b, dtype=bool)
    xa = designs
    for _ in range(MLE_MAX_ITER):
        ba = beta[active]
        pi = expit(xa.eta(ba))
        score = xa.xt(y - pi)
        done = np.linalg.norm(score, axis=1) < SCORE_TOL
        if np.any(done):
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            xa, ba, pi, score = xa.take(keep), ba[keep], pi[keep], score[keep]
        step = batch_solve(xa.xtwx(pi * (1.0 - pi)), score)
        beta[active] = ba + step
        iterations[active] += 1

    covariances = _binomial_covariances(designs, beta)
    converged &= np.max(np.abs(beta), axis=1) <= DIVERGENCE_BOUND
    return BatchFits(beta, covariances, converged, iterations)


def firth_many_reference(arms_matrix, k, covariates, y):
    """Batched Firth fits by :func:`firth_newton_reference`, covariances at the end."""
    designs = _BlockDesigns(arms_matrix, k, covariates)
    beta, _, converged, iterations = firth_newton_reference(
        designs, np.asarray(y, dtype=float), np.zeros((designs.b, designs.p)))
    return BatchFits(beta, _binomial_covariances(designs, beta), converged, iterations)


def firth_newton_reference(designs, y, start):
    """Firth Newton loop that evaluates pi, w and X'WX afresh at the top of
    every iteration.  Returns ``(beta, penalized_loglik, converged, iterations)``.
    """
    b = start.shape[0]
    beta = start.copy()
    pen = penalized_loglik_reference(designs, y, beta)
    active = np.arange(b)
    iterations = np.zeros(b, dtype=int)
    converged = np.zeros(b, dtype=bool)
    xa = designs
    for _ in range(FIRTH_MAX_ITER):
        ba = beta[active]
        pi = expit(xa.eta(ba))
        w = pi * (1.0 - pi)
        info = xa.xtwx(w)
        hat = xa.hat(w, _batch_inv(info))
        u_star = xa.xt(y[None, :] - pi + hat * (0.5 - pi))
        done = np.linalg.norm(u_star, axis=1) < SCORE_TOL
        if np.any(done):
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            if not active.size:
                break
            xa, ba, u_star, info = xa.take(keep), ba[keep], u_star[keep], info[keep]
        step = batch_solve(info, u_star)
        big = np.max(np.abs(step), axis=1) / FIRTH_MAX_STEP
        step = np.where(big[:, None] > 1.0, step / np.maximum(big, 1.0)[:, None], step)
        new_beta = ba + step
        new_pen = penalized_loglik_reference(xa, y, new_beta)
        pen_a = pen[active]
        slack = 1e-10 * (1.0 + np.abs(pen_a))
        for _h in range(FIRTH_MAX_HALVINGS):
            worse = new_pen < pen_a - slack
            if not np.any(worse):
                break
            step[worse] *= 0.5
            new_beta[worse] = ba[worse] + step[worse]
            new_pen[worse] = penalized_loglik_reference(xa.take(worse), y, new_beta[worse])
        beta[active] = new_beta
        pen[active] = new_pen
        iterations[active] += 1
    return beta, pen, converged, iterations


def penalized_loglik_reference(designs, y, beta):
    """``loglik + 0.5 log|X'WX|`` per slice, w clamped at 1e-300."""
    eta = designs.eta(beta)
    pi = expit(eta)
    w = np.maximum(pi * (1.0 - pi), 1e-300)
    sign, logdet = np.linalg.slogdet(designs.xtwx(w))
    ll = np.sum(y[None, :] * eta - np.logaddexp(0.0, eta), axis=1)
    out = ll + 0.5 * logdet
    out[sign <= 0] = -np.inf
    return out


def separation_scan_reference(arms_matrix, y, x, k):
    """Threshold-scan separation codes with one (B, n) masked pass per sign
    and arm: the reference for ``glm.separation_batch`` with <= 1 covariate."""
    b, n = arms_matrix.shape
    y = np.asarray(y, dtype=float)
    z = _as_covariates(x, n)
    assert z.shape[1] <= 1
    x = z[:, 0] if z.shape[1] else np.zeros(n)
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


def enumerated(spec, cap=ENUMERATION_CAP):
    """The enumerator's chunks joined into ``(arms (N, n), probs (N,))``."""
    chunks = list(enumerate_sequences(spec, cap))
    return np.concatenate([a for a, _ in chunks]), np.concatenate([p for _, p in chunks])


def unrank_multiset(counts, index):
    """Rows ``index`` of the lexicographic list of a multiset's arrangements.

    Of the ``total`` arrangements left after a prefix, ``total * c_s /
    remaining`` start with symbol s.  Each position takes the first
    symbol whose running sum of these exceeds the rank, and the rank
    drops by the sum before it.
    """
    b, n = index.size, sum(counts)
    # Symbols run down axis 0, so the running sums are over contiguous rows.
    left = np.repeat(np.asarray(counts, dtype=np.int64)[:, None], b, axis=1)
    total = np.full(b, _multinomial(counts), dtype=np.int64)
    rank = np.array(index, dtype=np.int64)
    cols = np.arange(b)
    out = np.empty((b, n), dtype=np.int64)
    for j in range(n):
        starting = total * left // (n - j)
        below = np.cumsum(starting, axis=0)
        sym = np.sum(rank >= below, axis=0)
        out[:, j] = sym
        total = starting[sym, cols]
        rank -= below[sym, cols] - total
        left[sym, cols] -= 1
    return out


def residual_statistics_reference(residual, arms_matrix, k, contrasts=None, mu0s=None):
    """``inference.residual_statistics_batch`` with every pass over whole (B, M, k) arrays."""
    b = arms_matrix.shape[0]
    r = np.asarray(residual, dtype=float)
    offsets = glm.arm_offsets(arms_matrix, k)
    counts = glm.arm_sums(offsets, k).astype(float)
    sums = glm.arm_sums(offsets, k, r)
    sqs = glm.arm_sums(offsets, k, r ** 2)
    valid = np.all(counts >= 2, axis=1)
    safe = np.where(counts >= 1, counts, 1.0)
    means = sums / safe
    variances = np.clip(sqs - sums ** 2 / safe, 0.0, None) / np.where(counts >= 2, counts - 1.0, 1.0)
    if contrasts is not None:
        c = np.broadcast_to(contrasts.vectors, (b,) + contrasts.vectors.shape)
    else:
        c = _optimal_contrasts_batch(mu0s, np.eye(k) / safe[:, None, :])
    num = np.einsum("bmk,bk->bm", c, means)
    den = np.einsum("bmk,bk->bm", c ** 2, variances / safe)
    scale = float(np.max(np.abs(r))) if r.size else 0.0
    zero_den = den <= (1e-14 * (scale + 1e-300)) ** 2
    zero_num = np.abs(num) <= 1e-12 * (scale + 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_matrix = num / np.sqrt(den)
    t_matrix = np.where(zero_den & zero_num, 0.0, t_matrix)
    signed_inf = np.where(num > 0, np.inf, -np.inf)
    t_matrix = np.where(zero_den & ~zero_num, signed_inf, t_matrix)
    stats = t_matrix.max(axis=1)
    stats = np.where(valid, stats, np.nan)
    return stats, t_matrix, {"invalid_rows": int(np.sum(~valid))}


def reference_sequences(spec):
    """Every reference-set ``(sequence, probability)`` from the per-sequence generator."""
    count = spec.k ** spec.n if spec.procedure == CR else count_sequences(spec)[0]
    return _reference_set(spec, count)


def sequence_probability(spec, seq) -> float:
    """Probability the procedure assigns to one member of its reference set."""
    if spec.procedure == CR:
        probs = np.asarray(spec.probs)
        return float(np.prod(probs[np.asarray(seq, dtype=int)]))
    count, _ = count_sequences(spec)
    return 1.0 / count


def _reference_set(spec, count):
    if spec.procedure == CR:
        probs = np.asarray(spec.probs)
        for tup in product(range(spec.k), repeat=spec.n):
            seq = np.array(tup, dtype=int)
            yield seq, float(np.prod(probs[seq]))
        return
    p = 1.0 / count
    if spec.procedure == RA:
        for tup in _multiset_permutations(list(spec.targets)):
            yield np.array(tup, dtype=int), p
        return
    block_arrangements = [
        np.array(tup, dtype=int) for tup in _multiset_permutations(list(spec.block))
    ]
    for combo in product(block_arrangements, repeat=spec.n_blocks):
        yield np.concatenate(combo), p


def _multiset_permutations(counts):
    """Distinct arrangements of a multiset given per-symbol counts."""
    total = sum(counts)
    prefix = []

    def rec():
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for sym, c in enumerate(counts):
            if c:
                counts[sym] -= 1
                prefix.append(sym)
                yield from rec()
                prefix.pop()
                counts[sym] += 1

    yield from rec()


def population_statistic_reference(data, candidates):
    """``(per_contrast, contrasts, corr)`` of the population test, shape by shape.

    One ``optimal_contrast`` per candidate, stacked, a BLAS numerator,
    and the correlation of the stacked contrasts under the fitted
    covariance of the population-average arm means.
    """
    design = glm.design_from_assignments(data.arms, data.grid.k, data.covariates)
    family = "binomial" if data.endpoint == "binary" else "gaussian"
    fit = glm.fit_mle(design, data.outcomes, family=family)
    avg = glm.population_average_means(fit, design)
    mu0s, _ = shape_matrix(candidates, data.grid)
    c = np.vstack([optimal_contrast(mu0, avg.covariance) for mu0 in mu0s])
    num = c @ avg.mu
    den = np.einsum("mk,kl,ml->m", c, avg.covariance, c)
    t_vec = np.where(den > 0, num / np.sqrt(np.where(den > 0, den, 1.0)), 0.0)
    cross = np.einsum("mk,kl,nl->mn", c, avg.covariance, c)
    scale = np.sqrt(np.clip(np.diag(cross), 1e-300, None))
    corr = cross / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return t_vec, c, corr


def max_tail_probability_reference(threshold, corr, points=1 << 14, reps=8, rng=None, df=None):
    """``inference.max_tail_probability`` with one scipy Sobol engine per replicate."""
    corr = np.round(np.atleast_2d(np.asarray(corr, dtype=float)), 12)
    if corr.shape[0] == 1:
        tail = ndtr(-threshold) if df is None else stdtr(df, -threshold)
        return float(tail), 0.0, False
    eigval, eigvec = np.linalg.eigh(corr)
    repaired = bool(eigval.min() < -1e-10)
    kept = eigval >= 1e-10 * eigval.max()
    loadings = eigvec[:, kept] * np.sqrt(eigval[kept])
    r = loadings.shape[1]
    rng = rng or np.random.default_rng()
    pairs = 1 << max(int(np.ceil(np.log2(max(points, 2 * reps) / (2 * reps)))), 3)
    estimates = np.empty(reps)
    for rep in range(reps):
        engine = qmc.Sobol(d=r, scramble=True, seed=int(rng.integers(2 ** 63)))
        z = ndtri(np.clip(engine.random(pairs), 1e-15, 1 - 1e-15))
        proj = (z / np.linalg.norm(z, axis=1, keepdims=True)) @ loadings.T
        g = np.concatenate([proj.max(axis=1), -proj.min(axis=1)])
        estimates[rep] = np.mean(_radial_tail(threshold, g, r, df))
    p = float(np.clip(estimates.mean(), 0.0, 1.0))
    err = float(estimates.std(ddof=1) / np.sqrt(reps))
    return p, err, repaired
