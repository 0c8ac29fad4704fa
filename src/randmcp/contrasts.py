"""Optimal contrast coefficients for multiple contrast tests.

For a candidate mean shape ``mu0`` and a covariance ``S`` of the arm
mean estimates, the optimal contrast maximizes the standardized signal
``c'mu0 / sqrt(c'Sc)`` among zero-sum coefficient vectors.  The closed
form is ``c ∝ S^-1 (mu0 - mu_bar 1)`` with ``mu_bar`` the S^-1-weighted
mean of ``mu0``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dose_response import CandidateSet, DoseGrid, standardized_shape
from .glm import batch_solve

ZERO_SUM_TOL = 1e-10


class DegenerateShapeError(ValueError):
    """The candidate mean vector is constant, so no contrast exists."""


class NoContrastsError(ValueError):
    """Every candidate was flat; the contrast matrix would be empty."""


class SingularCovarianceError(np.linalg.LinAlgError):
    """The covariance of the arm mean estimates is not positive definite."""


@dataclass(frozen=True)
class ContrastMatrix:
    """Per-candidate optimal contrasts, one unit-norm zero-sum row each."""

    vectors: np.ndarray  # (M, k)
    labels: tuple[str, ...]
    weight_source: str  # "arm_sizes" | "fitted_covariance"
    skipped: tuple[str, ...] = ()  # flat candidates left out

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "vectors", v)
        if v.shape[0] != len(self.labels):
            raise ValueError("one label per contrast row required")
        sums = np.abs(v.sum(axis=1))
        norms = np.linalg.norm(v, axis=1)
        if np.any(sums > ZERO_SUM_TOL):
            raise ValueError(f"contrast rows must sum to zero, max |sum| = {sums.max():.3e}")
        if np.any(np.abs(norms - 1.0) > ZERO_SUM_TOL):
            raise ValueError("contrast rows must have unit Euclidean norm")

    @property
    def m(self) -> int:
        return self.vectors.shape[0]


def optimal_contrast(mu0: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Closed-form optimal contrast for one mean shape.

    Parameters
    ----------
    mu0 : candidate mean vector over the k arms.
    S : symmetric positive-definite covariance of the arm mean estimates.

    Returns the unit-norm, zero-sum maximizer of ``c'mu0 / sqrt(c'Sc)``
    with its sign fixed so ``c'mu0 > 0``: the batched kernel with one
    shape and one covariance.
    """
    mu0s = np.asarray(mu0, dtype=float)[None]
    S = np.asarray(S, dtype=float)
    _check_inputs(mu0s, S)
    c = _optimal_contrasts_batch(mu0s, S[None])[0, 0]
    if not np.any(c):
        raise DegenerateShapeError("optimal contrast collapsed to zero")
    return c


def _check_inputs(mu0s: np.ndarray, S: np.ndarray) -> None:
    """Reject a covariance of the wrong shape or not positive definite, and flat shapes."""
    k = mu0s.shape[1]
    if S.shape != (k, k):
        raise ValueError(f"covariance shape {S.shape} does not match mean length {k}")
    if np.any(np.ptp(mu0s, axis=1) == 0.0):
        raise DegenerateShapeError("candidate mean vector is constant (flat shape)")
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(f"covariance is not positive definite: {exc}") from exc


def _optimal_contrasts_batch(mu0s: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Per-slice optimal contrasts: (B, M, k) from shapes (M, k) and covariances (B, k, k).

    Each row is ``S^-1 (mu0 - mu_bar 1)``, centred to sum to zero,
    scaled to unit norm and signed so ``c'mu0 >= 0``.  A singular slice
    is solved with its pseudo-inverse; a row that collapses to zero, as
    every row of an all-zero covariance does, stays exactly zero.
    """
    b, k, _ = covs.shape
    m = mu0s.shape[0]
    rhs = np.concatenate([mu0s.T, np.ones((k, 1))], axis=1)  # (k, M+1)
    sol = batch_solve(covs, np.broadcast_to(rhs, (b, k, m + 1)))
    sinv_mu = sol[:, :, :m].transpose(0, 2, 1)  # (B, M, k)
    sinv_one = sol[:, :, m]  # (B, k)
    total = sinv_one.sum(axis=1)[:, None]  # 1'S^-1 1, 0 only for an all-zero S^-1 1
    shift = np.einsum("mk,bk->bm", mu0s, sinv_one) / np.where(total != 0, total, 1.0)
    c = sinv_mu - shift[:, :, None] * sinv_one[:, None, :]
    c = c - c.mean(axis=2, keepdims=True)
    norms = np.linalg.norm(c, axis=2, keepdims=True)
    c = c / np.where(norms > 0, norms, 1.0)
    sign = np.sign(np.einsum("bmk,mk->bm", c, mu0s))
    return c * np.where(sign == 0, 1.0, sign)[:, :, None]


def shape_matrix(candidates: CandidateSet, grid: DoseGrid):
    """Stacked mean vectors of the non-flat candidates: (M, k) plus labels.

    A non-flat candidate that is constant over the dose grid (say,
    ``linear`` with ``theta1=0``) has no contrast and raises
    :class:`DegenerateShapeError`.
    """
    models = candidates.non_flat()
    if not models:
        raise NoContrastsError("all candidate shapes are flat; no contrasts can be formed")
    mu0s = np.vstack([standardized_shape(m, grid) for m in models])
    constant = [m.name for m, mu0 in zip(models, mu0s) if np.ptp(mu0) == 0.0]
    if constant:
        raise DegenerateShapeError(f"candidate shapes constant over the dose grid: {constant}")
    return mu0s, tuple(m.name for m in models)


def contrast_matrix(
    candidates: CandidateSet,
    grid: DoseGrid,
    arm_sizes=None,
    covariance=None,
) -> ContrastMatrix:
    """Optimal contrasts for every non-flat candidate shape.

    Exactly one of ``arm_sizes`` (design weights, giving the diagonal
    covariance diag(1/n_j)) or ``covariance`` (a fitted covariance of
    the arm mean estimates) must be provided.  Flat candidates carry no
    shape information and are skipped with a record in ``skipped``.
    """
    if (arm_sizes is None) == (covariance is None):
        raise ValueError("provide exactly one of arm_sizes or covariance")
    if arm_sizes is not None:
        n = np.asarray(arm_sizes, dtype=float)
        if n.shape != (grid.k,):
            raise ValueError(f"expected {grid.k} arm sizes, got shape {n.shape}")
        if np.any(n < 1):
            raise ValueError("every arm needs at least one patient")
        S = np.diag(1.0 / n)
        source = "arm_sizes"
    else:
        S = np.asarray(covariance, dtype=float)
        source = "fitted_covariance"

    mu0s, labels = shape_matrix(candidates, grid)
    _check_inputs(mu0s, S)
    return ContrastMatrix(
        vectors=_optimal_contrasts_batch(mu0s, S[None])[0],
        labels=labels,
        weight_source=source,
        skipped=tuple(m.name for m in candidates.models if m.is_flat),
    )
