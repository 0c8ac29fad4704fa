import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from randmcp import glm
from randmcp.glm import (
    DesignMatrix,
    RankDeficientDesignError,
    covariate_design,
    design_from_assignments,
    detect_separation,
    fit_firth,
    fit_firth_many,
    fit_gaussian_many,
    fit_mle,
    fit_mle_many,
    population_average_means,
    residuals,
    separation_batch,
)


from oracles import (
    DenseDesigns,
    firth_many_reference,
    grid_maximize_penalized,
    mle_many_reference,
    penalized_loglik_reference,
    separation_lp,
    separation_scan_reference,
)


class TestDesignMatrix:
    ARMS = np.array([0, 1, 2, 1])
    X = np.array([[0.5], [1.0], [-2.0], [0.0]])
    LABELS = ("arm_0", "arm_1", "arm_2", "x_1")

    def test_values_are_indicators_then_covariates(self):
        design = DesignMatrix(arms=self.ARMS, dose_columns=3, covariates=self.X,
                              labels=self.LABELS)
        assert np.array_equal(design.values, np.hstack([np.eye(3)[self.ARMS], self.X]))
        assert (design.n, design.n_columns) == (4, 4)
        residual = covariate_design(self.X)
        assert np.array_equal(residual.values, np.hstack([np.ones((4, 1)), self.X]))
        assert not residual.arms.any() and residual.dose_columns == 0

    @pytest.mark.parametrize("change, message", [
        ({"arms": np.array([0, 1, 3, 1])}, r"\[0, 3\)"),
        ({"arms": np.array([0, -1, 2, 1])}, r"\[0, 3\)"),
        ({"arms": np.array([0.0, 1.0, 2.0, 1.0])}, "integer"),
        ({"covariates": X[:3]}, r"\(4, q\)"),
        ({"covariates": np.array([[0.5], [np.nan], [-2.0], [0.0]])}, "non-finite"),
        ({"covariates": np.array([[0.5], [1.0], [np.inf], [0.0]])}, "non-finite"),
        ({"labels": LABELS[:3]}, "one label per design column"),
        ({"arms": np.zeros(4, dtype=int), "dose_columns": 0,
          "labels": ("intercept",)}, "intercept column first"),
    ])
    def test_hand_built_design_is_validated(self, change, message):
        fields = {"arms": self.ARMS, "dose_columns": 3, "covariates": self.X,
                  "labels": self.LABELS, **change}
        with pytest.raises(ValueError, match=message):
            DesignMatrix(**fields)


class TestMleBinary:
    def test_all_zero_outcomes_flagged_diverging(self):
        design = covariate_design(None, n=12)
        fit = fit_mle(design, np.zeros(12))
        assert not fit.converged
        assert fit.separation == "complete"
        assert fit.coefficients[0] < -8  # marching toward -inf

    def test_two_arm_saturated_closed_form(self):
        arms = np.repeat([0, 1], 10)
        y = np.concatenate([np.repeat([1.0, 0.0], [3, 7]), np.repeat([1.0, 0.0], [7, 3])])
        fit = fit_mle(design_from_assignments(arms, 2), y)
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(logit(0.3), abs=1e-8)
        assert fit.coefficients[1] == pytest.approx(logit(0.7), abs=1e-8)

    def test_score_norm_small_at_reported_optimum(self):
        rng = np.random.default_rng(0)
        arms = rng.integers(0, 3, size=60)
        x = rng.normal(size=60)
        y = (rng.random(60) < expit(0.3 * arms - 0.2 + 0.5 * x)).astype(float)
        design = design_from_assignments(arms, 3, x)
        fit = fit_mle(design, y)
        assert fit.converged
        pi = expit(design.values @ fit.coefficients)
        assert np.linalg.norm(design.values.T @ (y - pi)) < 1e-8

    def test_rank_deficiency_names_columns(self):
        arms = np.repeat([0, 1], 5)
        dup = np.repeat([1.0, 0.0], 5)  # duplicates the first indicator
        design = design_from_assignments(arms, 2, dup)
        with pytest.raises(RankDeficientDesignError, match="x_1|arm_"):
            fit_mle(design, np.tile([0.0, 1.0], 5))

    def test_more_columns_than_patients_names_columns(self):
        # Four arm columns and two covariates for five patients.
        z = np.random.default_rng(3).normal(size=(5, 2))
        design = design_from_assignments(np.array([0, 1, 2, 3, 0]), 4, z)
        with pytest.raises(RankDeficientDesignError, match="dependent columns: \\[.+\\]"):
            fit_mle(design, np.array([0.0, 1.0, 0.0, 1.0, 1.0]))

    def test_binary_outcomes_validated(self):
        design = covariate_design(None, n=4)
        with pytest.raises(ValueError, match="0, 1"):
            fit_mle(design, np.array([0.0, 1.0, 2.0, 0.0]))


class TestGaussian:
    def test_exact_fit_recovers_coefficients_with_zero_variance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 2))
        design = covariate_design(x)
        b = np.array([1.5, -2.0, 0.5])
        y = design.values @ b
        fit = fit_mle(design, y, family="gaussian")
        assert np.allclose(fit.coefficients, b, atol=1e-10)
        assert np.allclose(fit.covariance, 0.0, atol=1e-12)

    def test_normal_equations_match_qr_least_squares_with_offset_covariate(self):
        # Least squares solves the normal equations, which square the
        # design's condition number; a covariate far from zero is where
        # that loses digits.  README Notes gives the measured errors.
        rng = np.random.default_rng(18)
        arms = rng.permutation(np.repeat([0, 1, 2, 3], [7, 14, 14, 14]))
        x = 1e3 + rng.normal(size=49)
        y = 0.5 * arms + 0.4 * x + rng.normal(size=49)
        design = design_from_assignments(arms, 4, x)
        fit = fit_mle(design, y, family="gaussian")
        xv = design.values
        beta = np.linalg.lstsq(xv, y, rcond=None)[0]
        r_inv = np.linalg.inv(np.linalg.qr(xv)[1])
        cov = np.sum((y - xv @ beta) ** 2) / (49 - 5) * r_inv @ r_inv.T
        np.testing.assert_allclose(xv @ fit.coefficients, xv @ beta, rtol=1e-8)
        assert np.max(np.abs(fit.covariance - cov)) <= 1e-8 * np.max(np.abs(cov))

    def test_firth_rejects_continuous_outcomes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 1))
        y = 2.0 + x[:, 0] + rng.normal(size=15)
        with pytest.raises(ValueError, match="outcomes in"):
            fit_firth(covariate_design(x), y)


@st.composite
def separation_problems(draw):
    """Arms (B, n) over k = 1..5, q = 0..2 covariates and binary outcomes.

    k = 1 is the covariate-only design, its intercept the one arm; q = 2
    takes the linear-program route.  The covariates are rounded to
    provoke ties, and some rows lose an arm.
    """
    k = draw(st.integers(1, 5))
    q = draw(st.integers(0, 2))
    n = draw(st.integers(2 * k + 2, 30))
    b = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.round(rng.normal(size=(n, q)), 1)
    y = (rng.random(n) < draw(st.sampled_from([0.1, 0.3, 0.5]))).astype(float)
    arms = rng.integers(0, k, size=(b, n))
    if k > 1:
        for row in draw(st.lists(st.integers(0, b - 1), max_size=2, unique=True)):
            gone = draw(st.integers(0, k - 1))
            arms[row][arms[row] == gone] = (gone + 1) % k
    return arms, k, x, y


class TestSeparationDetection:
    def test_threshold_separated_is_complete(self):
        design = covariate_design(np.arange(1.0, 7.0))
        y = np.array([0.0, 0, 0, 1, 1, 1])
        assert separation_lp(design, y) == "complete"

    def test_overlapping_is_none(self):
        design = covariate_design(np.array([1.0, 1.0, 2.0, 2.0]))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        assert separation_lp(design, y) == "none"

    def test_tied_boundary_is_quasicomplete(self):
        # One failure sits exactly on the separating threshold.
        design = covariate_design(np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0]))
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        assert separation_lp(design, y) == "quasicomplete"

    def test_degenerate_arm_is_quasicomplete(self):
        arms = np.repeat([0, 1, 2], 6)
        rng = np.random.default_rng(3)
        x = rng.normal(size=18)
        y = np.tile([0.0, 1.0], 9)
        y[arms == 1] = 0.0  # one arm all failures
        design = design_from_assignments(arms, 3, x)
        assert detect_separation(design, y) == "quasicomplete"
        assert separation_lp(design, y) == "quasicomplete"

    def test_threshold_scan_matches_lp_on_fuzzed_designs(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2 * k, 26))
            arms = rng.integers(0, k, size=n)
            while np.bincount(arms, minlength=k).min() == 0:
                arms = rng.integers(0, k, size=n)
            x = np.round(rng.normal(size=n), 2)  # rounding provokes ties
            y = (rng.random(n) < 0.4).astype(float)
            design = design_from_assignments(arms, k, x)
            fast = detect_separation(design, y)
            lp = separation_lp(design, y)
            assert fast == lp, (arms.tolist(), x.tolist(), y.tolist(), fast, lp)

    def test_batch_scan_matches_scalar(self):
        rng = np.random.default_rng(23)
        k, n, b = 4, 30, 40
        x = np.round(rng.normal(size=n), 2)
        y = (rng.random(n) < 0.3).astype(float)
        arms_matrix = rng.integers(0, k, size=(b, n))
        codes = separation_batch(arms_matrix, y, x, k)
        for row, code in zip(arms_matrix, codes):
            design = design_from_assignments(row, k, x)
            assert glm.SEP_NAMES[int(code)] == separation_lp(design, y)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=separation_problems())
    def test_batch_scan_matches_lp_row_by_row(self, problem):
        arms, k, x, y = problem
        codes = separation_batch(arms, y, x, k)
        for row, code in zip(arms, codes):
            if k == 1:
                design = covariate_design(x, n=len(y))
            else:
                design = design_from_assignments(row, k, x)
            lp = separation_lp(design, y)
            assert glm.SEP_NAMES[int(code)] == lp
            assert detect_separation(design, y) == lp


class TestFirth:
    def test_separated_slope_matches_grid_oracle(self):
        x = covariate_design(np.arange(1.0, 7.0))
        y = np.array([0.0, 0, 0, 1, 1, 1])
        fit = fit_firth(x, y)
        assert fit.converged
        oracle = grid_maximize_penalized(x.values, y)
        assert np.allclose(fit.coefficients, oracle, atol=1e-6)
        assert np.all(np.isfinite(fit.coefficients))

    def test_intercept_only_closed_form(self):
        # Firth on a binomial intercept equals the 1/2-augmented
        # empirical logit: the penalty adds half a success and half a
        # failure, so the optimum is logit((s + 1/2) / (n + 1)).
        # Tolerance follows the 1e-8 stopping rule on the modified score.
        for n, s in [(10, 0), (10, 3), (7, 7), (25, 13)]:
            y = np.repeat([1.0, 0.0], [s, n - s])
            fit = fit_firth(covariate_design(None, n=n), y)
            assert fit.coefficients[0] == pytest.approx(
                logit((s + 0.5) / (n + 1.0)), abs=1e-7
            )

    def test_modified_score_below_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(12, 40))
            x = rng.normal(size=(n, 2))
            y = (rng.random(n) < 0.3).astype(float)
            design = covariate_design(x)
            fit = fit_firth(design, y)
            assert fit.converged
            xv = design.values
            pi = expit(xv @ fit.coefficients)
            w = pi * (1 - pi)
            xw = np.sqrt(w)[:, None] * xv
            info = xw.T @ xw
            hat = np.einsum("np,pn->n", xw, np.linalg.solve(info, xw.T))
            u_star = xv.T @ (y - pi + hat * (0.5 - pi))
            assert np.linalg.norm(u_star) < 1e-8

    def test_finite_on_fuzzed_separated_datasets(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(6, 30))
            x = rng.normal(size=n)
            order = np.argsort(x)
            cut = int(rng.integers(1, n - 1))
            y = np.zeros(n)
            y[order[cut:]] = 1.0  # threshold-separated by construction
            design = covariate_design(x)
            fit = fit_firth(design, y)
            assert np.all(np.isfinite(fit.coefficients))
            assert np.all(np.isfinite(fit.covariance))


class TestResiduals:
    def test_mle_intercept_residuals_sum_to_zero(self):
        rng = np.random.default_rng(7)
        y = (rng.random(30) < 0.4).astype(float)
        design = covariate_design(None, n=30)
        fit = fit_mle(design, y)
        r = residuals(fit, design, y)
        assert abs(r.sum()) < 1e-8

    def test_gaussian_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(25, 2))
        y = 1.0 + x @ np.array([0.5, -1.0]) + rng.normal(size=25)
        design = covariate_design(x)
        fit = fit_mle(design, y, family="gaussian")
        r = residuals(fit, design, y)
        assert np.allclose(design.values.T @ r, 0.0, atol=1e-8)

    def test_firth_all_failure_residuals_closed_form(self):
        n = 12
        y = np.zeros(n)
        design = covariate_design(None, n=n)
        fit = fit_firth(design, y)
        r = residuals(fit, design, y)
        assert np.allclose(r, -(0.5) / (n + 1.0), atol=1e-9)

    def test_dose_columns_rejected(self):
        arms = np.repeat([0, 1], 5)
        design = design_from_assignments(arms, 2)
        fit = fit_mle(design, np.tile([0.0, 1.0], 5))
        with pytest.raises(ValueError, match="covariate-only"):
            residuals(fit, design, np.tile([0.0, 1.0], 5))


class TestPopulationAverages:
    def _fit(self, arms, k, x, y, family="binomial"):
        design = design_from_assignments(arms, k, x)
        return fit_mle(design, y, family=family), design

    def test_no_covariates_returns_arm_coefficients(self):
        rng = np.random.default_rng(9)
        arms = np.repeat([0, 1, 2], 12)
        y = (rng.random(36) < 0.5).astype(float)
        fit, design = self._fit(arms, 3, None, y)
        avg = population_average_means(fit, design)
        assert np.allclose(avg.mu, fit.coefficients[:3])
        assert np.allclose(avg.covariance, fit.covariance[:3, :3])

    def test_centered_covariates_leave_arm_means(self):
        rng = np.random.default_rng(10)
        arms = np.repeat([0, 1], 20)
        x = rng.normal(size=40)
        x -= x.mean()
        y = (rng.random(40) < expit(0.5 * arms)).astype(float)
        fit, design = self._fit(arms, 2, x, y)
        avg = population_average_means(fit, design)
        assert np.allclose(avg.mu, fit.coefficients[:2], atol=1e-12)

    def test_covariance_matches_parametric_bootstrap(self):
        # Oracle: redraw outcomes from the fitted model, refit each draw,
        # and compare the empirical covariance of the population averages
        # with the reported covariance.  The arms need enough patients
        # for the information-based covariance to be accurate at all;
        # at very small n the MLE variance genuinely exceeds it.
        rng = np.random.default_rng(11)
        arms = np.repeat([0, 1, 2], [40, 40, 40])
        x = rng.normal(size=120)
        y = (rng.random(120) < expit(0.4 * arms - 0.3 + 0.4 * x)).astype(float)
        fit, design = self._fit(arms, 3, x, y)
        avg = population_average_means(fit, design)

        pi = expit(design.values @ fit.coefficients)
        draws = 20_000
        yboot = (rng.random((draws, 120)) < pi[None, :]).astype(float)
        # The design is fixed and only y varies, so run the refits as one
        # batched Newton iteration (ridge keeps separated draws solvable).
        xv = design.values
        beta = np.zeros((draws, xv.shape[1]))
        ridge = 1e-9 * np.eye(xv.shape[1])
        for _ in range(30):
            pvals = expit(beta @ xv.T)
            w = pvals * (1 - pvals)
            info = np.einsum("np,bn,nq->bpq", xv, w, xv) + ridge
            score = np.einsum("np,bn->bp", xv, yboot - pvals)
            beta += np.linalg.solve(info, score[..., None])[..., 0]
        boot = beta[:, :3] + beta[:, 3:] * x.mean()
        keep = np.all(np.abs(beta) < 8, axis=1)  # drop separated bootstrap draws
        emp = np.cov(boot[keep].T)
        rel = np.abs(np.diag(emp) - np.diag(avg.covariance)) / np.diag(avg.covariance)
        assert np.all(rel < 0.15)

    def test_requires_dose_columns(self):
        design = covariate_design(np.arange(6.0))
        fit = fit_mle(design, np.tile([0.0, 1.0], 3))
        with pytest.raises(ValueError, match="dose-indicator"):
            population_average_means(fit, design)


class TestTheoremCrossChecks:
    def test_separation_implies_nonconvergence_and_vice_versa(self):
        rng = np.random.default_rng(12)
        seen = {"none": 0, "separated": 0}
        for _ in range(120):
            n = int(rng.integers(10, 26))
            k = 2
            arms = rng.integers(0, k, size=n)
            while np.bincount(arms, minlength=k).min() == 0:
                arms = rng.integers(0, k, size=n)
            x = rng.normal(size=n)
            y = (rng.random(n) < 0.25).astype(float)
            design = design_from_assignments(arms, k, x)
            fit = fit_mle(design, y)
            if fit.separation == "none":
                assert fit.converged
                assert np.all(np.abs(fit.coefficients) < 50)
                seen["none"] += 1
            else:
                assert not fit.converged
                seen["separated"] += 1
        assert min(seen.values()) > 5  # both branches exercised

    def test_mle_and_firth_agree_on_large_benign_data(self):
        rng = np.random.default_rng(13)
        arms = np.repeat([0, 1, 2, 3], [70, 140, 140, 140])
        x = rng.normal(size=490)
        eta = np.array([-1.39, -0.8, -0.6, -0.4])[arms] + 0.6 * x
        y = (rng.random(490) < expit(eta)).astype(float)
        design = design_from_assignments(arms, 4, x)
        mle = fit_mle(design, y)
        firth = fit_firth(design, y)
        assert mle.converged and firth.converged
        assert np.max(np.abs(mle.coefficients - firth.coefficients)) < 0.1

    def test_covariances_are_symmetric_psd(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(20, 50))
            arms = rng.integers(0, 3, size=n)
            while np.bincount(arms, minlength=3).min() == 0:
                arms = rng.integers(0, 3, size=n)
            x = rng.normal(size=n)
            y = (rng.random(n) < 0.4).astype(float)
            design = design_from_assignments(arms, 3, x)
            for fit in (fit_mle(design, y), fit_firth(design, y)):
                cov = fit.covariance
                assert np.allclose(cov, cov.T, atol=1e-10)
                assert np.linalg.eigvalsh(cov).min() > -1e-10


class TestBatchedFits:
    def test_batched_mle_matches_single_fits(self):
        rng = np.random.default_rng(15)
        n, k, b = 49, 4, 30
        x = rng.normal(size=n)
        y = (rng.random(n) < 0.35).astype(float)
        arms_matrix = np.stack([rng.permutation(np.repeat(np.arange(k), [7, 14, 14, 14]))
                                for _ in range(b)])
        batch = fit_mle_many(arms_matrix, k, x, y)
        for i in range(b):
            design = design_from_assignments(arms_matrix[i], k, x)
            single = fit_mle(design, y)
            assert np.array_equal(batch.coefficients[i], single.coefficients)
            assert np.array_equal(batch.covariances[i], single.covariance)
            assert batch.converged[i] == single.converged

    def test_batched_firth_matches_single_fits(self):
        rng = np.random.default_rng(16)
        n, k, b = 35, 3, 20
        x = rng.normal(size=n)
        y = (rng.random(n) < 0.3).astype(float)
        arms_matrix = rng.integers(0, k, size=(b, n))
        for row in arms_matrix:  # ensure no empty arms
            row[:k] = np.arange(k)
        batch = fit_firth_many(arms_matrix, k, x, y)
        assert np.all(batch.converged)
        for i in range(0, b, 3):
            design = design_from_assignments(arms_matrix[i], k, x)
            single = fit_firth(design, y)
            assert np.allclose(batch.coefficients[i], single.coefficients, atol=1e-6)

    def test_batched_gaussian_matches_single_fits(self):
        rng = np.random.default_rng(17)
        n, k, b = 30, 3, 12
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.4 * x
        arms_matrix = rng.integers(0, k, size=(b, n))
        for row in arms_matrix:
            row[:k] = np.arange(k)
        batch = fit_gaussian_many(arms_matrix, k, x, y)
        for i in range(b):
            design = design_from_assignments(arms_matrix[i], k, x)
            single = fit_mle(design, y, family="gaussian")
            assert np.array_equal(batch.coefficients[i], single.coefficients)
            assert np.array_equal(batch.covariances[i], single.covariance)


@st.composite
def batch_problems(draw):
    """Arms (B, n), k = 0..5, q = 0..2 covariates and an outcome seed.

    With k = 0 an intercept joins the covariates, as in the residual
    model.  Some rows lose an arm, so their information is singular.
    """
    k = draw(st.integers(0, 5))
    q = draw(st.integers(0, 2))
    n = draw(st.integers(max(8, 6 * (k + q + 1)), 60))
    b = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.normal(size=(n, q))
    empty = []
    if k:
        arms = np.stack([rng.permutation(np.arange(n) % k) for _ in range(b)])
        if k > 1:
            empty = draw(st.lists(st.integers(0, b - 1), max_size=2, unique=True))
        for row in empty:
            arms[row][arms[row] == 0] = 1
    else:
        arms = np.zeros((b, n), dtype=int)
        z = np.hstack([np.ones((n, 1)), z])
    return arms, k, z, rng, empty


def _assert_close(a, b, rel=1e-12):
    scale = np.maximum(1.0, np.max(np.abs(b), axis=tuple(range(1, b.ndim)), keepdims=True))
    assert np.all(np.abs(a - b) <= rel * scale)


class TestBlockStructuredKernels:
    """The kernels' block-structured products against the dense stack."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=batch_problems(), estimator=st.sampled_from(["mle", "firth", "gaussian"]))
    def test_fits_match_dense_reference(self, problem, estimator):
        arms, k, z, rng, empty = problem
        n = arms.shape[1]
        if estimator == "gaussian":
            y = rng.normal(size=n) + z.sum(axis=1)
        else:
            y = (rng.random(n) < 0.4).astype(float)
        fit_many = getattr(glm, f"fit_{estimator}_many")
        fits = fit_many(arms, k, z, y)
        with mock.patch.object(glm, "_BlockDesigns", DenseDesigns):
            dense = fit_many(arms, k, z, y)
        usable = np.ones(len(arms), dtype=bool)
        if estimator == "mle":
            # A diverging IRLS run amplifies rounding; compare fits that exist.
            usable = dense.converged
        _assert_close(fits.coefficients[usable], dense.coefficients[usable])
        _assert_close(fits.covariances[usable], dense.covariances[usable])
        assert np.array_equal(fits.iterations, dense.iterations)
        assert np.array_equal(fits.converged, dense.converged)
        # The rows with an empty arm fall back to a pseudo-inverse; every
        # other row gives the same bits as when fitted alone.
        for i in range(len(arms)):
            if i in empty:
                # The empty arm's step is the pseudo-inverse's zero.
                assert fits.coefficients[i, 0] == 0.0
                continue
            alone = fit_many(arms[i:i + 1], k, z, y)
            assert np.array_equal(alone.coefficients[0], fits.coefficients[i])
            assert np.array_equal(alone.covariances[0], fits.covariances[i])

    @pytest.mark.parametrize("estimator", ["mle", "firth", "gaussian"])
    def test_empty_batch_gives_empty_fits(self, estimator):
        fit_many = getattr(glm, f"fit_{estimator}_many")
        fits = fit_many(np.zeros((0, 10), dtype=int), 2, np.arange(10.0), np.ones(10))
        assert fits.coefficients.shape == (0, 3)
        assert fits.covariances.shape == (0, 3, 3)

    @pytest.mark.parametrize("n", [49, 490])
    @pytest.mark.parametrize("with_arms", [False, True])
    def test_firth_restarts_as_one_batch_match_separate_starts(self, n, with_arms):
        rng = np.random.default_rng(n + with_arms)
        for _ in range(5 if n == 49 else 2):
            x = rng.normal(size=n)
            arms = rng.integers(0, 4, size=n)
            y = (rng.random(n) < expit(-1.0 + 0.8 * x)).astype(float)
            design = design_from_assignments(arms, 4, x) if with_arms else covariate_design(x)
            designs = glm._BlockDesigns(design.arms[None], design.dose_columns, design.covariates)
            beta = glm._firth_newton_many(designs, y, np.zeros((1, design.n_columns)))[0][0]
            starts = np.stack([2.0 * beta, 4.0 * beta])
            both = glm._firth_newton_many(designs.take([0, 0]), y, starts)
            for j in range(2):
                alone = glm._firth_newton_many(designs, y, starts[j:j + 1])
                for together, single in zip(both, alone):
                    assert np.array_equal(together[j], single[0])



OUTCOMES = ("random", "rare", "complete", "quasi", "arm")


def kernel_problem(rng, k, q, n, b, outcome):
    """Arms (B, n), covariates (n, q) rounded to provoke ties, and outcomes.

    Arms are drawn independently per patient, so small rows can lose an
    arm.  ``complete`` outcomes split at a covariate threshold,
    ``quasi`` ones also mix both levels at the threshold, and ``arm``
    gives one arm of the first row a single outcome level.
    """
    arms = rng.integers(0, k, size=(b, n))
    z = np.round(rng.normal(size=(n, q)), 1)
    x = z[:, 0] if q else arms[0].astype(float)
    if outcome == "random":
        y = rng.random(n) < rng.choice([0.1, 0.3, 0.5])
    elif outcome == "rare":
        y = rng.random(n) < 0.05
    elif outcome == "arm":
        y = arms[0] == 0
    else:
        cut = np.median(x)
        y = x > cut
        if outcome == "quasi":
            y[x == cut] = rng.random(np.sum(x == cut)) < 0.5
    return arms, k, z, y.astype(float)


def seeded_corpus():
    """60 seeded kernel problems, cycling through the outcome kinds."""
    rng = np.random.default_rng(31)
    for i in range(60):
        k, q = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        n, b = int(rng.integers(max(6, 3 * (k + q)), 50)), int(rng.integers(1, 9))
        yield kernel_problem(rng, k, q, n, b, OUTCOMES[i % len(OUTCOMES)])


@st.composite
def kernel_problems(draw):
    k = draw(st.integers(1, 5))
    q = draw(st.integers(0, 2))
    n = draw(st.integers(max(6, 3 * (k + q)), 50))
    b = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return kernel_problem(rng, k, q, n, b, draw(st.sampled_from(OUTCOMES)))


class TestKernelsMatchReferenceLoops:
    """The kernels against the reference loops in ``oracles``, which
    evaluate every quantity afresh where they use it: same bits."""

    @staticmethod
    def assert_matches_references(arms, k, z, y):
        """Compare fits and codes with the references; return the Firth fits."""
        designs = glm._BlockDesigns(arms, k, z)
        for fit_many, reference in ((fit_mle_many, mle_many_reference),
                                    (fit_firth_many, firth_many_reference)):
            fits, ref = fit_many(arms, k, z, y), reference(arms, k, z, y)
            for field in ("coefficients", "covariances", "converged", "iterations"):
                assert np.array_equal(getattr(fits, field), getattr(ref, field)), field
            covariances = glm._binomial_covariances(designs, fits.coefficients)
            assert np.array_equal(fits.covariances, covariances)
        if z.shape[1] <= 1:
            assert np.array_equal(separation_batch(arms, y, z, k),
                                  separation_scan_reference(arms, y, z, k))
        return fits

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=kernel_problems())
    def test_fuzzed_designs(self, problem):
        self.assert_matches_references(*problem)

    def test_seeded_corpus_reaches_every_branch(self):
        """Halvings, the w clamp, the iteration caps and all three
        separation codes occur in this corpus, so the comparison covers them."""
        seen = {"halvings": 0, "clamped": 0, "firth_cap": 0, "codes": set()}
        penalized = glm._penalized_loglik_batch

        def spy(designs, y, beta):
            out = penalized(designs, y, beta)
            seen["clamped"] += int(np.sum(np.any(out[2] < 1e-300, axis=1)))
            return out

        for arms, k, z, y in seeded_corpus():
            with mock.patch.object(glm, "_penalized_loglik_batch", side_effect=spy) as calls:
                fits = self.assert_matches_references(arms, k, z, y)
            # One call per step plus the start; the rest are halving rounds.
            seen["halvings"] += calls.call_count - 1 - int(fits.iterations.max())
            seen["firth_cap"] += int(np.sum(fits.iterations == glm.FIRTH_MAX_ITER))
            if z.shape[1] <= 1:
                seen["codes"].update(separation_batch(arms, y, z, k).tolist())
        assert seen["halvings"] > 0 and seen["clamped"] > 0 and seen["firth_cap"] > 0
        assert seen["codes"] == {0, 1, 2}

    def test_clamped_weights_keep_parent_likelihood_and_exact_information(self):
        # Arm 2 holds one patient at eta = -800, so its w underflows to 0.
        arms = np.array([[0, 1, 0, 1, 2, 0, 1, 0]])
        x = np.array([0.3, -1.2, 0.8, 0.1, 0.5, -0.4, 1.1, -0.9])
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        designs = glm._BlockDesigns(arms, 3, x)
        beta = np.array([[0.2, -0.1, -800.0, 0.0]])
        pen, pi, w, info = glm._penalized_loglik_batch(designs, y, beta)
        assert w[0, 4] == 0.0
        assert np.array_equal(pen, penalized_loglik_reference(designs, y, beta))
        assert np.isfinite(pen[0])  # the clamp keeps |X'WX| > 0
        assert np.array_equal(pi, expit(designs.eta(beta)))
        assert np.array_equal(w, pi * (1.0 - pi))
        assert np.array_equal(info, designs.xtwx(w))
        assert info[0, 2, 2] == 0.0


class TestAvailableCpus:
    def test_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(glm.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(glm.os, "cpu_count", lambda: 64)
        assert glm.available_cpus() == 2

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(glm.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(glm.os, "cpu_count", lambda: None)
        assert glm.available_cpus() == 1
        monkeypatch.setattr(glm.os, "cpu_count", lambda: 5)
        assert glm.available_cpus() == 5


def fit_in_pool_child(arms, k, z, y):
    """Fit ``arms`` one row per block with 3 CPUs claimed, where starting
    a thread fails; returns the fits and the helper count."""
    with mock.patch.object(glm, "available_cpus", return_value=3), \
            mock.patch.object(glm, "BLOCK_ENTRIES", arms.shape[1]), \
            mock.patch.object(glm.threading, "Thread", side_effect=AssertionError):
        return glm.fit_firth_many(arms, k, z, y), glm._block_helpers(arms.shape[0])


class TestRowBlocks:
    """The batched fits give the same bits in row blocks of any size,
    fitted on any number of threads, and each call enters its public
    kernel once."""

    KERNELS = (("fit_mle_many", "_irls_many"), ("fit_firth_many", "_firth_zero_start"),
               ("fit_gaussian_many", "_least_squares"))

    @staticmethod
    def block_spy(fit_block, seen):
        """``fit_block`` that records each block's row count and thread;
        ``list.append`` is atomic, where a Mock's call count is not."""
        def spy(designs, y):
            seen.append((designs.b, threading.current_thread()))
            return fit_block(designs, y)
        return spy

    @classmethod
    def assert_block_invariant(cls, arms, k, z, y):
        b, n = arms.shape
        for public, block in cls.KERNELS:
            whole = getattr(glm, public)(arms, k, z, y)
            for rows in sorted({1, 3, max(b - 1, 1)}):
                for cpus in (1, 2, 3):
                    seen = []
                    with mock.patch.object(glm, "BLOCK_ENTRIES", rows * n), \
                            mock.patch.object(glm, "available_cpus", return_value=cpus), \
                            mock.patch.object(glm, public, wraps=getattr(glm, public)) as entered, \
                            mock.patch.object(glm, block, cls.block_spy(getattr(glm, block), seen)):
                        fits = entered(arms, k, z, y)
                    assert entered.call_count == 1
                    blocks = max(1, -(-b // rows))
                    assert len(seen) == blocks
                    assert sum(size for size, _ in seen) == b
                    assert len({thread for _, thread in seen}) <= min(cpus, blocks)
                    for field in ("coefficients", "covariances", "converged", "iterations"):
                        assert np.array_equal(getattr(fits, field), getattr(whole, field)), \
                            (public, rows, cpus, field)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=kernel_problems())
    def test_fuzzed_designs(self, problem):
        self.assert_block_invariant(*problem)

    def test_seeded_corpus(self):
        # The corpus reaches halvings, clamped weights and the iteration
        # caps (TestKernelsMatchReferenceLoops checks that it does).
        for problem in seeded_corpus():
            self.assert_block_invariant(*problem)

    def test_empty_batch(self):
        self.assert_block_invariant(np.zeros((0, 10), dtype=int), 2, np.arange(10.0),
                                    np.arange(10) % 2.0)

    def test_batch_within_one_block_is_fitted_whole(self):
        rng = np.random.default_rng(5)
        arms, k, z, y = kernel_problem(rng, 3, 1, 40, 6, "random")
        for public, block in self.KERNELS:
            seen = []
            with mock.patch.object(glm, "available_cpus", return_value=3), \
                    mock.patch.object(glm, block, self.block_spy(getattr(glm, block), seen)):
                getattr(glm, public)(arms, k, z, y)
            assert seen == [(6, threading.main_thread())]

    @staticmethod
    def multi_block_problem():
        """Seven rows of 30 patients and a block size of 2 rows: 4 blocks."""
        arms, k, z, y = kernel_problem(np.random.default_rng(6), 3, 1, 30, 7, "random")
        return (arms, k, z, y), mock.patch.object(glm, "BLOCK_ENTRIES", 60)

    def test_blocks_run_on_helper_threads_that_end_with_the_call(self):
        problem, two_rows = self.multi_block_problem()
        before = threading.active_count()
        seen = []
        with two_rows, mock.patch.object(glm, "available_cpus", return_value=3), \
                mock.patch.object(glm, "_firth_zero_start",
                                  self.block_spy(glm._firth_zero_start, seen)), \
                mock.patch.object(glm.threading, "Thread", wraps=threading.Thread) as started:
            glm.fit_firth_many(*problem)
            assert threading.active_count() == before
        assert started.call_count == 2
        assert len(seen) == 4 and threading.main_thread() in {t for _, t in seen}

    def test_callers_errstate_holds_in_every_block(self):
        problem, two_rows = self.multi_block_problem()
        seen, states = [], []
        fit_block = glm._firth_zero_start

        def record_errstate(designs, y):
            states.append(np.geterr())
            return fit_block(designs, y)

        with two_rows, mock.patch.object(glm, "available_cpus", return_value=2), \
                mock.patch.object(glm, "_firth_zero_start",
                                  self.block_spy(record_errstate, seen)), \
                np.errstate(all="raise"):
            glm.fit_firth_many(*problem)
        assert len(states) == 4
        assert all(state == dict.fromkeys(state, "raise") for state in states)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_lowest_failed_block_raises_after_helpers_end(self, cpus):
        # Blocks from row 2 on fail.  On threads the row-2 block waits
        # until the row-4 block has failed, so the failures arrive out of
        # block order; the serial loop stops at row 2.
        problem, two_rows = self.multi_block_problem()
        arms = problem[0]
        before = threading.active_count()
        fit_block = glm._irls_many
        row_four_failed = threading.Event()

        def fail_from_row_two(designs, y):
            start = next(i for i, row in enumerate(arms) if np.array_equal(row, designs.arms[0]))
            if start == 2 and cpus > 1:
                row_four_failed.wait(timeout=60)
            if start == 4:
                row_four_failed.set()
            if start >= 2:
                raise FloatingPointError(f"block at row {start}")
            return fit_block(designs, y)

        with two_rows, mock.patch.object(glm, "available_cpus", return_value=cpus), \
                mock.patch.object(glm, "_irls_many", fail_from_row_two), \
                pytest.raises(FloatingPointError, match="block at row 2$"):
            glm.fit_mle_many(*problem)
        assert row_four_failed.is_set() == (cpus > 1)
        assert threading.active_count() == before

    def test_every_block_fitted_once_under_contention(self):
        # More threads than cores, a 1 us switch interval and 729 one-row
        # blocks whose stand-in fit is near free: a lost update of the
        # block counter would fit a block twice or skip one.  Row r holds
        # the base-3 digits of r, and its stand-in coefficient is r.
        b, n = 729, 6
        arms = (np.arange(b)[:, None] // 3 ** np.arange(n)) % 3
        seen, result = [], []

        def fit_rows(designs, y):
            start = int(designs.arms[0] @ 3 ** np.arange(n))
            seen.append(start)
            rows, p = designs.b, designs.p
            return (np.full((rows, p), float(start)), np.zeros((rows, p, p)),
                    np.ones(rows, dtype=bool), np.zeros(rows, dtype=int))

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            with mock.patch.object(glm, "available_cpus", return_value=6), \
                    mock.patch.object(glm, "BLOCK_ENTRIES", n), \
                    mock.patch.object(glm, "_firth_zero_start", fit_rows):
                caller = threading.Thread(target=lambda: result.append(
                    glm.fit_firth_many(arms, 3, None, np.zeros(n))))
                caller.start()
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and len(result) == 1
        assert sorted(seen) == list(range(b))
        assert np.array_equal(result[0].coefficients[:, 0], np.arange(b))

    def test_pool_child_fits_serially(self):
        arms, k, z, y = kernel_problem(np.random.default_rng(7), 3, 1, 30, 5, "random")
        with mock.patch.object(glm, "available_cpus", return_value=3), \
                mock.patch.object(glm, "BLOCK_ENTRIES", 30):
            threaded = glm.fit_firth_many(arms, k, z, y)
        with ProcessPoolExecutor(max_workers=1) as pool:
            serial, helpers = pool.submit(fit_in_pool_child, arms, k, z, y).result(timeout=120)
        assert helpers == 0
        for field in ("coefficients", "covariances", "converged", "iterations"):
            assert np.array_equal(getattr(serial, field), getattr(threaded, field)), field


class TestSoftplusLikelihood:
    """The penalized likelihood's SIMD softplus stays within a few ulps per
    patient of the reference's ``np.logaddexp``."""

    ETAS = np.array([0.0, 1e-300, -1e-300, 36.0, -36.0, 40.0, -40.0,
                     710.0, -710.0, 800.0, -800.0])

    @staticmethod
    def assert_near_reference(designs, y, beta):
        pen, _, w, _ = glm._penalized_loglik_batch(designs, y, beta)
        ref = penalized_loglik_reference(designs, y, beta)
        assert np.all(np.isfinite(pen)) and np.all(np.isfinite(ref))
        tolerance = 4 * designs.n * np.finfo(float).eps * (1.0 + np.abs(ref))
        assert np.all(np.abs(pen - ref) <= tolerance)
        return np.any(w < 1e-300, axis=1)

    def test_extreme_predictors(self):
        # Arm j holds one success and one failure at eta = beta[j]; the
        # covariate's coefficient is 0, so it only fills X'WX's cross terms.
        k = self.ETAS.size
        arms = np.tile(np.repeat(np.arange(k), 2), (4, 1))
        z = np.tile([0.5, -0.5], k)
        y = np.tile([1.0, 0.0], k)
        designs = glm._BlockDesigns(arms, k, z)
        etas = np.stack([self.ETAS, self.ETAS[::-1], np.clip(self.ETAS, -36.0, 36.0),
                         np.zeros(k)])
        beta = np.hstack([etas, np.zeros((4, 1))])
        clamped = self.assert_near_reference(designs, y, beta)
        assert clamped.tolist() == [True, True, False, False]

    def test_random_predictors(self):
        rng = np.random.default_rng(8)
        arms, k, z, y = kernel_problem(rng, 4, 1, 45, 50, "random")
        beta = rng.normal(scale=[[20.0] * 4 + [2.0]], size=(50, 5))
        self.assert_near_reference(glm._BlockDesigns(arms, k, z), y, beta)
