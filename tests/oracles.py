"""Independent oracles shared across test modules.

These deliberately avoid the implementation paths they check: the
penalized-likelihood maximizer is a grid search with local refinement,
and the contrast maximizer is a generic constrained optimizer.
"""
import numpy as np
from scipy.optimize import minimize
from scipy.special import expit


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
