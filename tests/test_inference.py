import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm, qmc
from scipy.stats import t as student_t

from randmcp import glm, inference
from randmcp.contrasts import (
    ContrastMatrix,
    DegenerateShapeError,
    SingularCovarianceError,
    contrast_matrix,
)
from randmcp.data import TrialDataset
from randmcp.dose_response import (
    CandidateModel,
    CandidateSet,
    DoseGrid,
    calibrate_emax,
    default_candidate_set,
    eval_model,
    inverse_logit,
    wide_range_candidate_set,
)
from randmcp.inference import (
    METHOD_IDS,
    DegenerateVarianceError,
    _draw_valid_sequences,
    TestMethod,
    analyze,
    exact_randomization_pvalue,
    fit_residual_model,
    glm_statistics_batch,
    max_tail_probability,
    population_test,
    randomization_test,
    residual_statistics_batch,
    shape_matrix,
)
from randmcp.glm import RankDeficientDesignError, design_from_assignments, separation_batch
from randmcp.randomization import (
    RandomizationSpec,
    enumerate_sequences,
    sample_sequence,
    sample_sequences,
)
from randmcp.presets import load_preset
from randmcp.rng import substream
from randmcp.simulate import generate_binary_trial, synthetic_potential_table

from oracles import (
    enumerated,
    max_tail_probability_reference,
    population_statistic_reference,
    residual_statistics_reference,
    separation_lp,
)

GRID4 = DoseGrid(doses=(0.0, 10.0, 25.0, 100.0))
GRID2 = DoseGrid(doses=(0.0, 100.0))
LINEAR_ONLY = CandidateSet(models=(CandidateModel(shape="linear", name="linear"),))


def toy_dataset(arms, outcomes, grid, covariates=None, endpoint="binary"):
    return TrialDataset(arms=arms, outcomes=outcomes, covariates=covariates, grid=grid,
                        endpoint=endpoint)


def trial_corr():
    """Correlation of the five default contrasts on the 7:14:14:14 design (rank 3)."""
    contrasts = contrast_matrix(default_candidate_set(), GRID4, arm_sizes=(7, 14, 14, 14))
    cross = contrasts.vectors @ np.diag(1.0 / np.array([7.0, 14, 14, 14])) @ contrasts.vectors.T
    scale = np.sqrt(np.diag(cross))
    corr = cross / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return corr


class TestResidualStatistic:
    def test_arm_index_residuals_give_most_increasing_contrast(self):
        # Hand-checkable case: residuals j +/- eps in arm j, two patients
        # per arm, so every arm variance is 2*eps^2/... = eps^2 and the
        # per-contrast value is c'(0,1,2,3)/eps; the maximum over the
        # candidate set is attained by the steepest increasing contrast.
        eps = 0.01
        arms = np.repeat([0, 1, 2, 3], 2)
        r = np.repeat([0.0, 1.0, 2.0, 3.0], 2) + np.tile([-eps, eps], 4)
        contrasts = contrast_matrix(default_candidate_set(), GRID4, arm_sizes=(2, 2, 2, 2))
        stats, t_matrix, diag = residual_statistics_batch(
            r, arms[None, :], 4, contrasts=contrasts
        )
        means = np.array([0.0, 1.0, 2.0, 3.0])
        expected = contrasts.vectors @ means / eps
        assert np.allclose(t_matrix[0], expected, rtol=1e-10)
        assert stats[0] == pytest.approx(expected.max())
        assert diag["invalid_rows"] == 0

    def test_within_arm_permutation_leaves_statistic(self):
        rng = np.random.default_rng(0)
        arms = np.repeat([0, 1, 2, 3], 5)
        r = rng.normal(size=20)
        contrasts = contrast_matrix(default_candidate_set(), GRID4, arm_sizes=(5, 5, 5, 5))
        base = residual_statistics_batch(r, arms[None, :], 4, contrasts=contrasts)[0][0]
        shuffled = r.copy()
        for j in range(4):
            idx = np.flatnonzero(arms == j)
            shuffled[idx] = shuffled[rng.permutation(idx)]
        again = residual_statistics_batch(shuffled, arms[None, :], 4, contrasts=contrasts)[0][0]
        assert again == pytest.approx(base, rel=1e-12)

    def test_identical_residuals_guarded_to_zero(self):
        arms = np.repeat([0, 1], 3)
        r = np.full(6, 0.25)
        contrasts = contrast_matrix(LINEAR_ONLY, GRID2, arm_sizes=(3, 3))
        stats, t_matrix, _ = residual_statistics_batch(r, arms[None, :], 2,
                                                       contrasts=contrasts)
        assert stats[0] == 0.0
        assert t_matrix[0, 0] == 0.0

    def test_zero_variance_with_signal_is_infinite(self):
        arms = np.array([1, 1, 0, 0])
        r = np.array([0.5, 0.5, -0.5, -0.5])
        contrasts = contrast_matrix(LINEAR_ONLY, GRID2, arm_sizes=(2, 2))
        stats, _, _ = residual_statistics_batch(r, arms[None, :], 2, contrasts=contrasts)
        assert stats[0] == np.inf

    def test_small_arm_flagged_invalid(self):
        arms = np.array([0, 1, 1, 1])
        r = np.array([0.1, -0.2, 0.3, 0.4])
        contrasts = contrast_matrix(LINEAR_ONLY, GRID2, arm_sizes=(2, 2))
        stats, _, diag = residual_statistics_batch(r, arms[None, :], 2,
                                                   contrasts=contrasts)
        assert np.isnan(stats[0])
        assert diag["invalid_rows"] == 1

    def test_affine_candidate_rescaling_leaves_statistic(self):
        # Contrasts are invariant to a + b*shape (b > 0), so the whole
        # statistic is too.
        rng = np.random.default_rng(1)
        arms = np.repeat([0, 1, 2, 3], 4)
        r = rng.normal(size=16)
        shifted = CandidateSet(models=(
            CandidateModel(shape="emax", theta0=2.0, theta1=5.0, theta2=10.0, name="emax"),
        ))
        plain = CandidateSet(models=(
            CandidateModel(shape="emax", theta2=10.0, name="emax"),
        ))
        c1 = contrast_matrix(plain, GRID4, arm_sizes=(4, 4, 4, 4))
        c2 = contrast_matrix(shifted, GRID4, arm_sizes=(4, 4, 4, 4))
        s1 = residual_statistics_batch(r, arms[None, :], 4, contrasts=c1)[0][0]
        s2 = residual_statistics_batch(r, arms[None, :], 4, contrasts=c2)[0][0]
        assert s1 == pytest.approx(s2, rel=1e-12)


    @pytest.mark.parametrize("contrasts", ["fixed", "per_row"])
    def test_row_does_not_depend_on_its_batch_neighbours(self, contrasts):
        # Fixed contrasts (RA/PBD) and per-row contrasts (CR); one
        # neighbour has a single-patient arm and is flagged invalid.
        rng = np.random.default_rng(22)
        arms = rng.permutation(np.repeat([0, 1, 2, 3], [7, 14, 14, 14]))
        r = rng.normal(size=49)
        rows = np.stack([rng.permutation(arms) for _ in range(5)])
        thin = np.where(arms == 0, 1, arms)
        thin[0] = 0
        batch = np.vstack([rows[:2], thin, rows[2:]])
        cands = default_candidate_set()
        if contrasts == "fixed":
            kwargs = {"contrasts": contrast_matrix(cands, GRID4, arm_sizes=(7, 14, 14, 14))}
        else:
            kwargs = {"mu0s": shape_matrix(cands, GRID4)[0]}
        stats, t_matrix, diag = residual_statistics_batch(r, batch, 4, **kwargs)
        assert np.isnan(stats[2]) and diag["invalid_rows"] == 1
        for i, row in zip([0, 1, 3, 4, 5], rows):
            alone, t_alone, _ = residual_statistics_batch(r, row[None], 4, **kwargs)
            assert alone[0] == stats[i]
            assert np.array_equal(t_alone[0], t_matrix[i])


@st.composite
def residual_batches(draw):
    """``(k, arms, residual, mu0s)`` for the residual statistic.

    Arms are drawn per patient, so rows often leave an arm short or
    empty.  Residuals from a few repeated values give arms of zero
    variance; a constant or all-zero residual gives every contrast a
    zero variance, with and without signal.
    """
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arms = rng.integers(0, k, size=(draw(st.integers(1, 40)), n))
    kind = draw(st.sampled_from(["normal", "few_values", "constant", "zero"]))
    scale = 10.0 ** draw(st.integers(-8, 8))
    if kind == "normal":
        r = rng.normal(size=n) * scale
    elif kind == "few_values":
        r = rng.choice([-1.5, 0.0, 0.5, 2.0], size=n) * scale
    else:
        r = np.full(n, 0.0 if kind == "zero" else rng.normal() * scale)
    return k, arms, r, rng.normal(size=(draw(st.integers(1, 6)), k))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestResidualStatisticBits:
    """The pass-saving residual statistic returns the bits of the whole-array form."""

    @settings(max_examples=150, deadline=None)
    @given(batch=residual_batches(), fixed=st.booleans(),
           block=st.sampled_from([1, 20, glm.BLOCK_ENTRIES]))
    def test_matches_whole_array_form(self, batch, fixed, block):
        k, arms, r, mu0s = batch
        if fixed:
            vectors = mu0s - mu0s.mean(axis=1, keepdims=True)
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            kwargs = {"contrasts": ContrastMatrix(vectors, tuple(map(str, range(len(mu0s)))),
                                                  "arm_sizes")}
        else:
            kwargs = {"mu0s": mu0s}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 0/0 in the reference
            want = residual_statistics_reference(r, arms, k, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glm, "BLOCK_ENTRIES", block)
            got = residual_statistics_batch(r, arms, k, **kwargs)
        assert _same_bits(got[0], want[0])
        assert _same_bits(got[1], want[1])
        assert got[2] == want[2]

    def test_exact_chunk_matches_whole_array_form(self):
        # One 20,000-row chunk of the RA(4, 4, 4) reference set: several blocks.
        spec = RandomizationSpec(procedure="ra", grid=GRID3, n=12, targets=(4, 4, 4))
        arms, _ = next(enumerate_sequences(spec))
        r = np.random.default_rng(41).normal(size=12)
        contrasts = contrast_matrix(default_candidate_set(), GRID3, arm_sizes=(4, 4, 4))
        got = residual_statistics_batch(r, arms, 3, contrasts=contrasts)
        want = residual_statistics_reference(r, arms, 3, contrasts=contrasts)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


class TestRefitStatistic:
    def test_equal_arms_give_zero_statistic(self):
        data = toy_dataset([0, 0, 1, 1], [1.0, 0.0, 1.0, 0.0], GRID2)
        stats, t_matrix, _ = glm_statistics_batch(
            data, data.arms[None, :], LINEAR_ONLY
        )
        assert abs(stats[0]) < 1e-6

    def test_statistic_grows_with_effect_size(self):
        # Monte Carlo trend check over increasing top-dose response.
        spec = RandomizationSpec(procedure="ra", grid=GRID4, n=48, targets=(12, 12, 12, 12))
        means = []
        for pk in (0.3, 0.6, 0.9):
            theta0, theta1 = calibrate_emax(0.2, pk, 100.0, 10.0)
            truth = CandidateModel(shape="emax", theta0=theta0, theta1=theta1, theta2=10.0)
            vals = []
            for rep in range(40):
                rng = substream(100, int(pk * 10), rep)
                arms = sample_sequence(spec, rng)
                eta = np.asarray(eval_model(truth, GRID4.as_array()))[arms]
                y = (rng.random(48) < np.asarray(inverse_logit(eta))).astype(float)
                data = toy_dataset(arms, y, GRID4)
                vals.append(glm_statistics_batch(data, arms[None, :],
                                                 default_candidate_set())[0][0])
            means.append(np.mean(vals))
        assert means[0] < means[1] < means[2]

    def test_covariate_column_order_irrelevant(self):
        rng = np.random.default_rng(2)
        arms = np.repeat([0, 1, 2, 3], 8)
        x = rng.normal(size=(32, 2))
        y = (rng.random(32) < 0.5).astype(float)
        d1 = toy_dataset(arms, y, GRID4, covariates=x)
        d2 = toy_dataset(arms, y, GRID4, covariates=x[:, ::-1])
        s1 = glm_statistics_batch(d1, arms[None, :], default_candidate_set())[0][0]
        s2 = glm_statistics_batch(d2, arms[None, :], default_candidate_set())[0][0]
        assert s1 == pytest.approx(s2, rel=1e-9)

    @pytest.mark.parametrize("estimator", ["mle", "firth"])
    def test_row_does_not_depend_on_its_batch_neighbours(self, estimator):
        # The row with an empty placebo arm has a singular information
        # matrix; only that row may fall back to a pseudo-inverse.
        rng = np.random.default_rng(21)
        arms = rng.permutation(np.repeat([0, 1, 2, 3], [7, 14, 14, 14]))
        x = rng.normal(size=49)
        y = (rng.random(49) < 0.35).astype(float)
        data = toy_dataset(arms, y, GRID4, covariates=x)
        rows = np.stack([rng.permutation(arms) for _ in range(5)])
        empty_placebo = np.where(arms == 0, 1, arms)
        batch = np.vstack([rows[:2], empty_placebo, rows[2:]])
        cands = default_candidate_set()
        stats, t_matrix, _ = glm_statistics_batch(data, batch, cands, estimator=estimator)
        for i, row in zip([0, 1, 3, 4, 5], rows):
            alone, t_alone, _ = glm_statistics_batch(data, row[None], cands,
                                                     estimator=estimator)
            assert alone[0] == stats[i]
            assert np.array_equal(t_alone[0], t_matrix[i])

    def test_all_zero_refit_covariance_gives_zero_statistic_silently(self):
        # A completely separated refit whose population-average covariance
        # underflows to exactly zero: no contrast exists for it.
        arms = np.array([3, 0, 2, 0, 2, 3, 1, 3, 1, 2, 3, 2])
        y = np.array([0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], dtype=float)
        x = np.array([1.483, -1.83, -0.003, -0.892, 0.776, -2.118, -0.344, 0.21,
                      -1.484, 0.985, 0.179, 1.007])[:, None]
        data = toy_dataset(arms, y, GRID4, covariates=x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats, t_matrix, _ = glm_statistics_batch(
                data, arms[None, :], default_candidate_set())
            codes = separation_batch(arms[None, :], y, x, 4)
        assert stats.tolist() == [0.0]
        assert not np.any(t_matrix)
        assert codes.tolist() == [2]


class TestRandomizationTest:
    def test_constant_outcomes_give_p_one(self):
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=8, targets=(4, 4))
        data = toy_dataset([0] * 4 + [1] * 4, [1.0] * 8, GRID2)
        out = randomization_test(data, spec, TestMethod(id="residual_firth", n_rand=200),
                                 LINEAR_ONLY, substream(5, 0))
        assert out.p_value == 1.0

    def test_duplicated_observed_sequence_ties_count(self):
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=8, targets=(4, 4))
        rng = substream(5, 1)
        data = toy_dataset([0, 1] * 4, (rng.random(8) < 0.5).astype(float), GRID2)
        sequences = np.tile(data.arms, (50, 1))
        out = randomization_test(data, spec, TestMethod(id="residual_firth", n_rand=50),
                                 LINEAR_ONLY, rng, sequences=sequences)
        assert out.p_value == 1.0  # ties count as >=

    def test_add_one_rule_never_zero(self):
        spec = RandomizationSpec(procedure="pbd", grid=GRID4, n=28, block=(1, 2, 2, 2))
        rng = substream(6, 0)
        arms = sample_sequence(spec, rng)
        # Strong increasing signal: observed statistic should top them all.
        y = (GRID4.as_array()[arms] >= 25).astype(float)
        data = toy_dataset(arms, y, GRID4)
        plain = randomization_test(data, spec, TestMethod(id="residual_firth", n_rand=400),
                                   default_candidate_set(), substream(6, 1))
        addone = randomization_test(
            data, spec,
            TestMethod(id="residual_firth", n_rand=400, pvalue_rule="add_one"),
            default_candidate_set(), substream(6, 1))
        assert plain.p_value == 0.0
        assert addone.p_value == pytest.approx(1 / 401)

    def test_monte_carlo_matches_exact_on_tiny_design(self):
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=6, targets=(3, 3))
        rng = substream(7, 0)
        data = toy_dataset([0, 1, 0, 1, 0, 1], [0.0, 1.0, 0.0, 1.0, 1.0, 0.0], GRID2)
        method = TestMethod(id="residual_firth", n_rand=100_000)
        exact = exact_randomization_pvalue(data, spec, method, LINEAR_ONLY)
        mc = randomization_test(data, spec, method, LINEAR_ONLY, rng)
        se = np.sqrt(exact.p_value * (1 - exact.p_value) / method.n_rand)
        assert abs(mc.p_value - exact.p_value) <= max(3 * se, 0.01)

    def test_observed_sequence_membership_warning(self):
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=6, targets=(3, 3))
        data = toy_dataset([0, 0, 0, 0, 1, 1], [0.0, 1.0, 0.0, 1.0, 1.0, 0.0], GRID2)
        with pytest.warns(UserWarning, match="reference set"):
            out = randomization_test(data, spec,
                                     TestMethod(id="residual_firth", n_rand=50),
                                     LINEAR_ONLY, substream(7, 1))
        assert out.diagnostics["observed_not_in_reference_set"]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("sizes", [(5, 4, 3), (4, 4, 4)])
    def test_membership_flag_on_monte_carlo_and_exact(self, exact, sizes):
        grid3 = DoseGrid(doses=(0.0, 25.0, 100.0))
        spec = RandomizationSpec(procedure="ra", grid=grid3, n=12, targets=(4, 4, 4))
        arms = np.repeat([0, 1, 2], sizes)
        y = np.array([0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0], dtype=float)
        data = toy_dataset(arms, y, grid3)
        method = TestMethod(id="residual_firth", n_rand=200)

        def run():
            if exact:
                return exact_randomization_pvalue(data, spec, method, LINEAR_ONLY)
            return randomization_test(data, spec, method, LINEAR_ONLY, substream(7, 2))

        if sizes == (4, 4, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = run()
            assert "observed_not_in_reference_set" not in out.diagnostics
        else:
            with pytest.warns(UserWarning, match="reference set"):
                out = run()
            assert out.diagnostics["observed_not_in_reference_set"] is True
        assert 0.0 <= out.p_value <= 1.0

    def test_mle_refit_separation_diagnostics_counted(self):
        spec = RandomizationSpec(procedure="pbd", grid=GRID4, n=28, block=(1, 2, 2, 2))
        rng = substream(8, 0)
        arms = sample_sequence(spec, rng)
        x = rng.normal(size=28)
        y = np.zeros(28)
        y[x > 0.8] = 1.0  # sparse successes force frequent degenerate arms
        data = toy_dataset(arms, y, GRID4, covariates=x[:, None])
        out = randomization_test(data, spec, TestMethod(id="glm_mle", n_rand=300),
                                 default_candidate_set(), substream(8, 1))
        assert out.diagnostics["separated_refits"] > 0
        assert "observed_separation" in out.diagnostics

    def test_valid_batch_kept_and_invalid_rows_redrawn(self):
        spec = RandomizationSpec(procedure="cr", grid=GRID4, n=40, weights=(1, 1, 1, 1))
        batch = sample_sequences(spec, 6, substream(9, 0))
        rng = substream(9, 1)
        out, redraws = _draw_valid_sequences(spec, batch, rng, 2)
        assert out is batch and redraws == 0
        assert np.array_equal(rng.random(3), substream(9, 1).random(3))  # no draw made
        rng = substream(9, 1)
        # One row with a single patient outside arm 0: it is redrawn from
        # the same stream, after the valid rows.
        bad = batch.copy()
        bad[2] = 0
        bad[2, 0] = 1
        out, redraws = _draw_valid_sequences(spec, bad, rng, 2)
        reference = substream(9, 1)
        fresh = sample_sequences(spec, 1, reference)
        assert np.bincount(fresh[0], minlength=4).min() >= 2
        assert redraws == 1
        assert np.array_equal(out, np.concatenate([batch[[0, 1, 3, 4, 5]], fresh]))
        assert np.array_equal(rng.random(3), reference.random(3))

    def test_two_covariate_separated_refits_match_lp_count(self):
        spec = RandomizationSpec(procedure="pbd", grid=GRID4, n=28, block=(1, 2, 2, 2))
        rng = substream(8, 2)
        arms = sample_sequence(spec, rng)
        z = np.round(rng.normal(size=(28, 2)), 1)
        y = (rng.random(28) < 0.2).astype(float)
        data = toy_dataset(arms, y, GRID4, covariates=z)
        sequences = sample_sequences(spec, 60, substream(8, 3))
        out = randomization_test(data, spec, TestMethod(id="glm_mle", n_rand=60),
                                 default_candidate_set(), substream(8, 4), sequences=sequences)
        lp = [separation_lp(design_from_assignments(row, 4, z), y)
              for row in sequences]
        separated = sum(name != "none" for name in lp)
        assert 0 < separated < len(sequences)
        assert out.diagnostics["separated_refits"] == separated
        assert out.diagnostics["observed_separation"] == separation_lp(
            design_from_assignments(arms, 4, z), y)


class TestExactTest:
    def test_two_arm_allocation_toy_is_one_sixth(self):
        # Both successes land in the high arm; enumeration of the six
        # allocations leaves only the observed one at +inf.
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=4, targets=(2, 2))
        data = toy_dataset([1, 1, 0, 0], [1.0, 1.0, 0.0, 0.0], GRID2)
        out = exact_randomization_pvalue(
            data, spec, TestMethod(id="residual_mle"), LINEAR_ONLY
        )
        assert out.p_value == pytest.approx(1 / 6)
        assert out.statistic == np.inf
        assert out.diagnostics["reference_set_size"] == 6

    def test_constant_outcomes_exact_p_one(self):
        spec = RandomizationSpec(procedure="pbd", grid=GRID2, n=6, block=(1, 1))
        data = toy_dataset([0, 1, 1, 0, 0, 1], [1.0] * 6, GRID2)
        out = exact_randomization_pvalue(
            data, spec, TestMethod(id="residual_firth"), LINEAR_ONLY
        )
        assert out.p_value == 1.0

    def test_cr_exact_excludes_degenerate_sequences(self):
        spec = RandomizationSpec(procedure="cr", grid=GRID2, n=6)
        data = toy_dataset([0, 1, 0, 1, 0, 1], [0.0, 1.0, 1.0, 0.0, 0.0, 1.0], GRID2)
        out = exact_randomization_pvalue(
            data, spec, TestMethod(id="residual_firth"), LINEAR_ONLY
        )
        assert out.diagnostics["excluded_probability_mass"] > 0
        assert 0.0 <= out.p_value <= 1.0

    def test_exact_glm_statistic_runs(self):
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=8, targets=(4, 4))
        rng = substream(9, 0)
        y = (rng.random(8) < 0.5).astype(float)
        data = toy_dataset([0, 1] * 4, y, GRID2)
        out = exact_randomization_pvalue(
            data, spec, TestMethod(id="glm_firth"), LINEAR_ONLY
        )
        assert 0.0 <= out.p_value <= 1.0
        assert out.diagnostics["reference_set_size"] == 70

    def test_validity_over_all_outcomes_and_sequences(self):
        # Strong-null validity: for every outcome vector, the exact
        # p-value's distribution over equally likely observed sequences
        # satisfies P(p <= alpha) <= alpha at every level.
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=4, targets=(2, 2))
        method = TestMethod(id="residual_firth")
        sequences, _ = enumerated(spec)
        alphas = np.linspace(0.02, 1.0, 20)
        for bits in range(16):
            y = np.array([(bits >> i) & 1 for i in range(4)], dtype=float)
            pvals = []
            for seq in sequences:
                data = toy_dataset(seq, y, GRID2)
                pvals.append(
                    exact_randomization_pvalue(data, spec, method, LINEAR_ONLY).p_value
                )
            pvals = np.array(pvals)
            for alpha in alphas:
                assert np.mean(pvals <= alpha) <= alpha + 1e-12


GRID3 = DoseGrid(doses=(0.0, 25.0, 100.0))


def covariate_trial(spec, seed):
    """A binary trial on GRID3 whose log-odds rise with dose and one covariate."""
    rng = substream(seed, spec.n)
    arms = sample_sequence(spec, rng)
    x = rng.normal(size=spec.n)
    eta = -0.4 + np.array([0.0, 0.6, 1.2])[arms] + 0.9 * x
    y = (rng.random(spec.n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return toy_dataset(arms, y, GRID3, covariates=x[:, None])


class TestExactPinned:
    """Exact p-values pinned bit for bit.

    The mass sums run over the reference set in enumeration order, chunk
    by chunk, so a change to the rows, their order, their probabilities
    or the chunk boundaries shows up here even when it moves p by one ulp.
    """

    RA = RandomizationSpec(procedure="ra", grid=GRID3, n=12, targets=(4, 4, 4))
    PBD = RandomizationSpec(procedure="pbd", grid=GRID3, n=9, block=(1, 1, 1))
    CR = RandomizationSpec(procedure="cr", grid=GRID3, n=7, weights=(1, 1, 2))

    @pytest.mark.parametrize("seed, method_id, p", [
        (4, "residual_mle", 0.07471861471861471),
        (4, "residual_firth", 0.07780663780663781),
        (7, "residual_mle", 0.13347763347763347),
        (7, "residual_firth", 0.12917748917748917),
    ])
    def test_random_allocation(self, seed, method_id, p):
        out = exact_randomization_pvalue(covariate_trial(self.RA, seed), self.RA,
                                         TestMethod(id=method_id), default_candidate_set())
        assert out.diagnostics["reference_set_size"] == 34650
        assert out.p_value == p

    def test_permuted_blocks_refit_statistic(self):
        out = exact_randomization_pvalue(covariate_trial(self.PBD, 2), self.PBD,
                                         TestMethod(id="glm_mle"), default_candidate_set())
        assert out.p_value == 0.35648148148148157

    def test_complete_randomization_with_excluded_mass(self):
        out = exact_randomization_pvalue(covariate_trial(self.CR, 2), self.CR,
                                         TestMethod(id="residual_firth"), default_candidate_set())
        assert out.diagnostics["excluded_probability_mass"] == 0.794921875
        assert out.p_value == 0.20357142857142857


class TestResidualModel:
    def test_firth_residual_model_handles_constant_outcomes(self):
        data = toy_dataset([0, 1] * 5, [0.0] * 10, GRID2)
        fit, r = fit_residual_model(data, "firth")
        assert fit.converged
        assert np.allclose(r, -(0.5) / 11.0, atol=1e-9)

    def test_mle_residual_model_raises_on_separation(self):
        from randmcp.inference import ResidualModelError
        x = np.arange(10.0)
        y = (x >= 5).astype(float)
        data = toy_dataset([0, 1] * 5, y, GRID2, covariates=x[:, None])
        with pytest.raises(ResidualModelError):
            fit_residual_model(data, "mle")

    def test_gaussian_endpoint_uses_least_squares(self):
        rng = np.random.default_rng(3)
        data = toy_dataset([0, 1] * 6, rng.normal(size=12), GRID2,
                           covariates=rng.normal(size=(12, 1)), endpoint="continuous")
        fit, r = fit_residual_model(data, "firth")
        assert fit.estimator == "gaussian_ls"
        assert abs(r.mean()) < 1e-10


class TestMaxTailProbability:
    def test_single_contrast_is_normal_tail(self):
        p, err, repaired = max_tail_probability(1.3, np.eye(1))
        assert p == norm.sf(1.3)
        assert err == 0.0
        assert not repaired
        p, err, repaired = max_tail_probability(1.3, np.eye(1), df=44.0)
        assert p == student_t.sf(1.3, 44)
        assert err == 0.0
        assert not repaired

    def test_perfectly_correlated_pair_collapses(self):
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        p, err, _ = max_tail_probability(1.5, corr, points=1 << 16, rng=substream(1, 0))
        assert p == pytest.approx(norm.sf(1.5), abs=5e-4)

    def test_independent_pair_closed_form(self):
        # P(max(Z1,Z2) >= t) = 1 - Phi(t)^2 under independence.
        t = 1.0
        p, err, _ = max_tail_probability(t, np.eye(2), points=1 << 16, rng=substream(1, 1))
        assert p == pytest.approx(1 - norm.cdf(t) ** 2, abs=5e-4)

    def test_five_contrast_trial_matches_mvn_sampling_oracle(self):
        contrasts = contrast_matrix(default_candidate_set(), GRID4,
                                    arm_sizes=(7, 14, 14, 14))
        S = np.diag(1.0 / np.array([7.0, 14, 14, 14]))
        cross = contrasts.vectors @ S @ contrasts.vectors.T
        scale = np.sqrt(np.diag(cross))
        corr = cross / np.outer(scale, scale)
        t = 2.0
        p, err, _ = max_tail_probability(t, corr, points=1 << 17, rng=substream(1, 2))

        # Oracle: plain Monte Carlo over 10^7 multivariate normal draws.
        chol = np.linalg.cholesky(corr + 1e-12 * np.eye(5))
        hits = 0
        draws_total = 10_000_000
        rng = substream(1, 3)
        for _ in range(10):
            z = rng.standard_normal((1_000_000, 5)) @ chol.T
            hits += int(np.sum(z.max(axis=1) >= t))
        oracle = hits / draws_total
        assert p == pytest.approx(oracle, abs=0.002)

    def test_non_psd_inputs_repaired_and_flagged(self):
        corr = np.array([
            [1.0, 0.9, 0.9],
            [0.9, 1.0, 0.9],
            [0.9, 0.9, 1.0],
        ])
        corr -= 0.05 * np.outer([1, -1, 0], [1, -1, 0])  # knock an eigenvalue negative
        corr = (corr + corr.T) / 2
        np.fill_diagonal(corr, 1.0)
        eigs = np.linalg.eigvalsh(corr)
        if eigs.min() > -1e-10:  # ensure the construction really is non-PSD
            corr[0, 1] = corr[1, 0] = 1.02
        p, err, repaired = max_tail_probability(1.0, corr, points=1 << 14,
                                                rng=substream(1, 4))
        assert repaired
        assert 0.0 <= p <= 1.0


    def test_rounding_in_rank_deficient_corr_leaves_p(self):
        # Five contrasts over four arms: corr has rank 3, and rounding
        # leaves its two null eigenvalues at ~1e-16 of either sign.  A
        # 1-ulp change of some entries rotates that null space.
        contrasts = contrast_matrix(default_candidate_set(), GRID4,
                                    arm_sizes=(7, 14, 14, 14))
        cross = contrasts.vectors @ np.diag(1.0 / np.array([7.0, 14, 14, 14])) \
            @ contrasts.vectors.T
        scale = np.sqrt(np.diag(cross))
        corr = cross / np.outer(scale, scale)
        np.fill_diagonal(corr, 1.0)
        rng = np.random.default_rng(23)
        upper = np.triu_indices(5, 1)
        for t in np.arange(1.0, 1.5, 0.05):
            bumped = corr.copy()
            direction = rng.choice([-1.0, 0.0, 1.0], size=upper[0].size)
            for i, j, d in zip(*upper, direction):
                if d:
                    bumped[i, j] = bumped[j, i] = np.nextafter(corr[i, j], 2.0 * d)
            p, _, repaired = max_tail_probability(t, corr, rng=substream(2, 0))
            q, _, _ = max_tail_probability(t, bumped, rng=substream(2, 0))
            assert p == q
            assert not repaired

    @pytest.mark.parametrize("t", [-0.5, 0.0])
    def test_independent_pair_at_nonpositive_threshold(self, t):
        p, err, _ = max_tail_probability(t, np.eye(2), points=1 << 16, rng=substream(1, 5))
        assert p == pytest.approx(1 - norm.cdf(t) ** 2, abs=5e-4)
        assert err < 2e-4

    @pytest.mark.parametrize("df", [None, 44.0])
    @pytest.mark.parametrize("t", [-0.7, 0.0, 1.5])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rank_one_pairs_match_closed_form(self, sign, t, df):
        # Z2 = sign * Z1: the maximum is Z1 (correlated) or |Z1| (anti-correlated).
        sf = norm.sf if df is None else (lambda x: student_t.sf(x, df))
        want = sf(t) if sign > 0 else (2 * sf(t) if t > 0 else 1.0)
        corr = np.array([[1.0, sign], [sign, 1.0]])
        p, err, repaired = max_tail_probability(t, corr, points=1 << 10, rng=substream(1, 6), df=df)
        assert p == pytest.approx(want, abs=1e-12)
        assert err < 1e-12
        assert not repaired

    def test_five_contrast_t_reference_matches_mvt_sampling_oracle(self):
        corr = trial_corr()
        t, df = 1.8, 44.0
        p, err, _ = max_tail_probability(t, corr, rng=substream(1, 7), df=df)

        # Oracle: plain Monte Carlo over 4 * 10^6 multivariate t draws.
        chol = np.linalg.cholesky(corr + 1e-12 * np.eye(5))
        rng = substream(1, 8)
        hits, draws_total = 0, 4_000_000
        for _ in range(4):
            z = rng.standard_normal((1_000_000, 5)) @ chol.T
            z /= np.sqrt(rng.chisquare(df, size=1_000_000) / df)[:, None]
            hits += int(np.sum(z.max(axis=1) >= t))
        oracle = hits / draws_total
        assert p == pytest.approx(oracle, abs=1.5e-3)
        assert err < 1e-3

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
           df=st.sampled_from([None, 44.0]), seed=st.integers(0, 2 ** 16))
    def test_p_non_increasing_in_threshold(self, a, b, df, seed):
        # The same rng gives the same directions, and each direction's
        # radial tail is non-increasing in t on both sides of t = 0.
        lo, hi = min(a, b), max(a, b)
        corr = trial_corr()
        p_lo, _, _ = max_tail_probability(lo, corr, points=1 << 10, rng=substream(3, seed), df=df)
        p_hi, _, _ = max_tail_probability(hi, corr, points=1 << 10, rng=substream(3, seed), df=df)
        assert p_lo >= p_hi

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(2, 8), rank=st.integers(1, 8), corr_seed=st.integers(0, 2 ** 32),
           ulp_noise=st.booleans(),
           t=st.one_of(st.just(0.0), st.floats(-3.0, 4.0)),
           df=st.one_of(st.none(), st.floats(1.0, 100.0)),
           points=st.integers(1, 1 << 17), reps=st.integers(2, 8),
           seed=st.integers(0, 2 ** 32))
    @example(m=8, rank=8, corr_seed=1, ulp_noise=False, t=1.2, df=None, points=1 << 14,
             reps=8, seed=0)  # r = 8, where numpy's norm adds pairwise
    @example(m=5, rank=3, corr_seed=2, ulp_noise=True, t=-0.4, df=44.0, points=1 << 17,
             reps=2, seed=1)
    def test_batched_replicates_equal_the_per_engine_loop(self, m, rank, corr_seed, ulp_noise,
                                                          t, df, points, reps, seed):
        rng = np.random.default_rng(corr_seed)
        factor = rng.normal(size=(m, min(rank, m)))
        cross = factor @ factor.T
        scale = np.sqrt(np.diag(cross))
        corr = cross / np.outer(scale, scale)
        np.fill_diagonal(corr, 1.0)
        if ulp_noise:  # rounding noise that leaves a rank-deficient corr indefinite
            upper = np.triu_indices(m, 1)
            for i, j, d in zip(*upper, rng.choice([-1.0, 0.0, 1.0], size=upper[0].size)):
                if d:
                    corr[i, j] = corr[j, i] = np.nextafter(corr[i, j], 2.0 * d)
        got = max_tail_probability(t, corr, points=points, reps=reps,
                                   rng=np.random.default_rng(seed), df=df)
        want = max_tail_probability_reference(t, corr, points=points, reps=reps,
                                              rng=np.random.default_rng(seed), df=df)
        assert got == want

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("n", [8, 13, 1024, 4096])
    def test_scrambled_sobol_equals_scipy(self, d, n):
        seeds = [0, 1, 12345, 2 ** 31 - 1, 2 ** 32, 2 ** 63 - 1]
        seeds += [int(s) for s in np.random.default_rng(d * n).integers(2 ** 63, size=3)]
        got = inference._scrambled_sobol(d, seeds, n)
        assert got.shape == (len(seeds), n, d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n = 13 is not a power of 2
            for points, seed in zip(got, seeds):
                want = qmc.Sobol(d, scramble=True, seed=seed).random(n)
                assert np.array_equal(points, want)

    @pytest.mark.parametrize("t, want", [(np.inf, 0.0), (-np.inf, 1.0)])
    @pytest.mark.parametrize("df", [None, 44.0])
    def test_infinite_threshold_gives_certain_tail(self, t, want, df):
        assert max_tail_probability(t, trial_corr(), rng=substream(1, 10), df=df) \
            == (want, 0.0, False)


class TestMethodValidation:
    @pytest.mark.parametrize("reps", [1, 0])
    def test_fewer_than_two_replicates_raise(self, reps):
        with pytest.raises(ValueError, match=f"reps must be at least 2 .*not {reps}"):
            max_tail_probability(1.0, trial_corr(), reps=reps, rng=substream(1, 11))

    @pytest.mark.parametrize("corr", [trial_corr(), np.eye(1)])
    def test_nan_threshold_raises(self, corr):
        with pytest.raises(ValueError, match="threshold must be a number or \\+-inf, not NaN"):
            max_tail_probability(float("nan"), corr, rng=substream(1, 12))

    def test_smallest_budget_reports_finite_error(self):
        p, err, _ = max_tail_probability(1.0, trial_corr(), points=1, reps=2,
                                         rng=substream(1, 9))
        assert 0.0 <= p <= 1.0
        assert np.isfinite(err)

    @pytest.mark.parametrize("df", [0.0, -3.0, float("inf"), float("nan")])
    def test_df_must_be_finite_and_positive(self, df):
        with pytest.raises(ValueError, match="df must be finite and positive"):
            TestMethod(id="population", df=df)

    def test_exact_population_raises_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before rejecting exact=True")

        monkeypatch.setattr(inference.glm, "fit_mle", no_fit)
        spec = RandomizationSpec(procedure="ra", grid=GRID4, n=12, targets=(3, 3, 3, 3))
        data = toy_dataset(np.repeat(np.arange(4), 3), np.arange(12.0), GRID4,
                           endpoint="continuous")
        with pytest.raises(ValueError, match="population method has no exact test"):
            analyze(data, TestMethod(id="population"), default_candidate_set(), spec=spec,
                    rng=substream(78, 0), exact=True)


class TestPopulationTest:
    def _trial_data(self, seed=0, pk=0.8, n=49):
        spec = RandomizationSpec(procedure="pbd", grid=GRID4, n=n, block=(1, 2, 2, 2))
        rng = substream(200, seed)
        arms = sample_sequence(spec, rng)
        theta0, theta1 = calibrate_emax(0.2, pk, 100.0, 10.0)
        truth = CandidateModel(shape="emax", theta0=theta0, theta1=theta1, theta2=10.0)
        x = rng.normal(size=n)
        eta = np.asarray(eval_model(truth, GRID4.as_array()))[arms] + 0.6 * x
        y = (rng.random(n) < np.asarray(inverse_logit(eta))).astype(float)
        return toy_dataset(arms, y, GRID4, covariates=x[:, None])

    def test_single_candidate_equals_normal_tail(self):
        data = self._trial_data(seed=1)
        out = population_test(data, LINEAR_ONLY, rng=substream(2, 0))
        assert out.p_value == pytest.approx(norm.sf(out.statistic), abs=1e-12)

    def test_five_candidates_reports_qmc_error(self):
        data = self._trial_data(seed=2)
        out = population_test(data, default_candidate_set(), rng=substream(2, 1))
        assert 0.0 <= out.p_value <= 1.0
        assert out.diagnostics["qmc_error"] < 1e-3
        assert out.per_contrast.shape == (5,)
        assert out.statistic == pytest.approx(out.per_contrast.max())

    def test_adjusted_p_exceeds_single_contrast_p(self):
        # Multiplicity can only make the one-sided p larger.
        data = self._trial_data(seed=3)
        full = population_test(data, default_candidate_set(), rng=substream(2, 2))
        assert full.p_value >= norm.sf(full.statistic) - 1e-3

    def test_missing_rng_raises_for_two_or_more_candidates(self):
        # An unseeded reference gave a different p on every call.
        data = self._trial_data(seed=5)
        with pytest.raises(ValueError, match="rng"):
            population_test(data, default_candidate_set())
        with pytest.raises(ValueError, match="rng"):
            max_tail_probability(1.0, trial_corr())
        one = population_test(data, LINEAR_ONLY)  # closed form, draws nothing
        assert one.p_value == population_test(data, LINEAR_ONLY, rng=substream(2, 4)).p_value

    def test_separation_reported_for_mle_fit(self):
        data = self._trial_data(seed=4)
        y = data.outcomes.copy()
        y[data.arms == 0] = 0.0  # empty the placebo arm of successes
        forced = TrialDataset(arms=data.arms, outcomes=y, covariates=data.covariates,
                              grid=GRID4)
        out = population_test(forced, default_candidate_set(), rng=substream(2, 3))
        assert out.diagnostics["fit_separation"] in ("quasicomplete", "complete")
        assert not out.diagnostics["fit_converged"]


GRID5 = DoseGrid(doses=(0.0, 100.0, 200.0, 400.0, 1000.0))


def preset_trial(preset, seed):
    return generate_binary_trial(load_preset(preset), substream(71, seed))


def replay_trial(seed, n=50):
    """A continuous trial as a potential-outcome replay draws it, baseline as covariate."""
    rng = substream(72, seed)
    table = synthetic_potential_table(n, GRID5, rng).sorted_by_baseline()
    spec = RandomizationSpec(procedure="ra", grid=GRID5, n=n, targets=(n // 5,) * 5)
    arms = sample_sequence(spec, rng)
    return toy_dataset(arms, table.outcomes[np.arange(n), arms], GRID5,
                       covariates=table.baseline[:, None], endpoint="continuous")


CORPUS = (
    [("n49_pbd_notrend", default_candidate_set(), s) for s in range(12)]
    + [("n490_cr_notrend", default_candidate_set(), s) for s in range(3)]
    + [("n98_ra_trend", default_candidate_set(), s) for s in range(6)]
    + [("replay", wide_range_candidate_set(1000.0), s) for s in range(12)]
)


def population_with_kernel_outputs(monkeypatch, data, candidates):
    """``population_test``'s outcome plus the contrasts and correlation it used."""
    seen = {}
    kernel, reference = inference._contrast_statistics, inference.max_tail_probability

    def kernel_spy(*args):
        seen["t"], seen["contrasts"] = out = kernel(*args)
        return out

    def reference_spy(threshold, corr, **kwargs):
        seen["corr"] = corr
        return reference(threshold, corr, **kwargs)

    monkeypatch.setattr(inference, "_contrast_statistics", kernel_spy)
    monkeypatch.setattr(inference, "max_tail_probability", reference_spy)
    out = population_test(data, candidates, rng=substream(73, 0))
    return out, seen["contrasts"][0], seen["corr"]


class TestPopulationSharesRefitKernel:
    @pytest.mark.parametrize("source, candidates, seed", CORPUS,
                             ids=[f"{src}-{seed}" for src, _, seed in CORPUS])
    def test_matches_per_shape_reference(self, monkeypatch, source, candidates, seed):
        data = replay_trial(seed) if source == "replay" else preset_trial(source, seed)
        out, c, corr = population_with_kernel_outputs(monkeypatch, data, candidates)
        t_ref, c_ref, corr_ref = population_statistic_reference(data, candidates)
        assert np.array_equal(c, c_ref)
        assert np.array_equal(corr, corr_ref)
        assert np.all(np.abs(out.per_contrast - t_ref) <= 1e-12 * np.abs(t_ref))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 5),
        per_arm=st.integers(2, 6),
        endpoint=st.sampled_from(["binary", "continuous"]),
        with_covariate=st.booleans(),
        seed=st.integers(0, 2 ** 16),
    )
    def test_equals_observed_refit_row(self, k, per_arm, endpoint, with_covariate, seed):
        grid = DoseGrid(doses=(0.0, 10.0, 25.0, 60.0, 100.0)[:k])
        rng = np.random.default_rng(seed)
        n = k * per_arm
        arms = rng.permutation(np.repeat(np.arange(k), per_arm))
        x = rng.normal(size=(n, 1)) if with_covariate else None
        if endpoint == "binary":
            y = (rng.random(n) < 0.3 + 0.1 * arms).astype(float)
        else:
            y = rng.normal(size=n) + 0.3 * arms
        data = toy_dataset(arms, y, grid, covariates=x, endpoint=endpoint)
        candidates = wide_range_candidate_set(100.0)
        try:
            out = population_test(data, candidates, rng=substream(74, 0))
        except SingularCovarianceError:
            return  # a separated binary fit can leave no definite covariance
        stats, t_matrix, _ = glm_statistics_batch(data, arms[None], candidates)
        assert out.statistic == stats[0]
        assert np.array_equal(out.per_contrast, t_matrix[0])


class TestDegenerateInputsTyped:
    CONSTANT_SHAPE = CandidateSet(models=(
        CandidateModel(shape="linear", theta1=0.0, name="linear_zero"),
        CandidateModel(shape="emax", theta2=10.0, name="emax"),
    ))

    @pytest.mark.parametrize("procedure", ["ra", "cr"])
    @pytest.mark.parametrize("method_id", METHOD_IDS)
    def test_constant_candidate_raises_for_every_method(self, method_id, procedure):
        spec = (RandomizationSpec(procedure="ra", grid=GRID4, n=16, targets=(4, 4, 4, 4))
                if procedure == "ra" else RandomizationSpec(procedure="cr", grid=GRID4, n=16))
        rng = substream(75, 0)
        arms = np.repeat(np.arange(4), 4)
        y = np.tile([0.0, 1.0], 8)
        data = toy_dataset(arms, y, GRID4, covariates=rng.normal(size=(16, 1)))
        method = TestMethod(id=method_id, n_rand=20)
        with pytest.raises(DegenerateShapeError, match="linear_zero"):
            analyze(data, method, self.CONSTANT_SHAPE, spec=spec, rng=rng)

    @pytest.mark.parametrize("method_id", METHOD_IDS)
    def test_constant_covariate_raises_for_every_method(self, method_id):
        # The covariate duplicates the sum of the dose indicators.
        spec = RandomizationSpec(procedure="ra", grid=GRID4, n=16, targets=(4, 4, 4, 4))
        data = toy_dataset(np.repeat(np.arange(4), 4), np.tile([0.0, 1.0], 8), GRID4,
                           covariates=np.ones((16, 1)))
        with pytest.raises(RankDeficientDesignError, match="rank deficient"):
            analyze(data, TestMethod(id=method_id, n_rand=100), default_candidate_set(),
                    spec=spec, rng=substream(77, 0))

    def test_more_columns_than_patients_is_rank_deficient(self):
        # Four arm columns and two covariates for five patients.
        spec = RandomizationSpec(procedure="cr", grid=GRID4, n=5)
        rng = substream(79, 0)
        data = toy_dataset([0, 1, 2, 3, 0], [0.0, 1.0, 0.0, 1.0, 1.0], GRID4,
                           covariates=rng.normal(size=(5, 2)))
        with pytest.raises(RankDeficientDesignError, match="rank deficient"):
            randomization_test(data, spec, TestMethod(id="glm_mle", n_rand=20),
                               default_candidate_set(), rng)

    @pytest.mark.parametrize("method_id", ["glm_mle", "glm_firth"])
    def test_exact_refit_raises_on_constant_covariate(self, method_id):
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=8, targets=(4, 4))
        data = toy_dataset([0, 1] * 4, np.tile([0.0, 1.0, 1.0, 0.0], 2), GRID2,
                           covariates=np.full((8, 1), 2.5))
        with pytest.raises(RankDeficientDesignError, match="rank deficient"):
            exact_randomization_pvalue(data, spec, TestMethod(id=method_id), LINEAR_ONLY)

    @pytest.mark.parametrize("outcome", ["constant", "noise_free"])
    def test_population_singular_covariance_is_typed(self, outcome):
        arms = np.repeat(np.arange(4), 4)
        y = np.full(16, 3.0) if outcome == "constant" else arms.astype(float)
        data = toy_dataset(arms, y, GRID4, endpoint="continuous")
        with pytest.raises(SingularCovarianceError, match="not positive definite"):
            population_test(data, default_candidate_set(), rng=substream(76, 0))


class TestRowValidityRule:
    """A procedure none of whose sequences suits the statistic raises before any refit."""

    def test_pbd_block_without_an_arm_raises_for_monte_carlo_refits(self):
        # Arm 0 is in no block, so every re-randomized refit has an empty arm.
        spec = RandomizationSpec(procedure="pbd", grid=GRID3, n=8, block=(0, 2, 2))
        data = toy_dataset(np.array([0, 1, 2, 2, 1, 1, 2, 0]),
                           np.array([0, 1, 1, 0, 1, 0, 1, 0], dtype=float), GRID3)
        with pytest.raises(DegenerateVarianceError, match="expected arm sizes"):
            randomization_test(data, spec, TestMethod(id="glm_mle", n_rand=50), LINEAR_ONLY,
                               substream(79, 0))

    def test_exact_cr_zero_probability_arm_raises_before_enumerating(self):
        spec = RandomizationSpec(procedure="cr", grid=GRID3, n=12, probs=(0.0, 0.5, 0.5))
        data = toy_dataset(np.arange(12) % 3, (np.arange(12) % 2).astype(float), GRID3)
        start = time.perf_counter()
        with pytest.raises(DegenerateVarianceError, match="expected arm sizes"):
            exact_randomization_pvalue(data, spec, TestMethod(id="glm_mle"), LINEAR_ONLY)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("method_id, n", [("glm_mle", 3), ("residual_firth", 7)])
    def test_monte_carlo_cr_with_too_few_patients_draws_nothing(self, monkeypatch,
                                                                method_id, n):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew sequences for a procedure that cannot fill every arm")

        monkeypatch.setattr(inference, "sample_sequences", no_draw)
        spec = RandomizationSpec(procedure="cr", grid=GRID4, n=n)
        data = toy_dataset(np.arange(n) % 4, (np.arange(n) % 2).astype(float), GRID4)
        with pytest.raises(DegenerateVarianceError, match="expected arm sizes"):
            randomization_test(data, spec, TestMethod(id=method_id, n_rand=50), LINEAR_ONLY,
                               substream(79, 1))


class TestMethodFields:
    def test_df_on_a_randomization_method_raises(self):
        with pytest.raises(ValueError, match="df sets the population reference"):
            TestMethod(id="residual_mle", df=10.0)

    def test_add_one_rule_on_the_population_method_raises(self):
        with pytest.raises(ValueError, match="takes no pvalue_rule 'add_one'"):
            TestMethod(id="population", pvalue_rule="add_one")

    def test_population_analysis_without_rng_raises(self):
        # Its reference integral draws scrambled Sobol seeds from the rng.
        arms = np.repeat(np.arange(4), 6)
        y = np.tile([0.0, 1.0, 1.0], 8)
        data = toy_dataset(arms, y, GRID4, covariates=substream(80, 0).normal(size=(24, 1)))
        with pytest.raises(ValueError, match="population test draws random numbers"):
            analyze(data, TestMethod(id="population"), default_candidate_set())
