import warnings

import numpy as np
import pytest

from randmcp.contrasts import (
    DegenerateShapeError,
    NoContrastsError,
    _optimal_contrasts_batch,
    contrast_matrix,
    optimal_contrast,
)
from randmcp.dose_response import (
    CandidateModel,
    CandidateSet,
    DoseGrid,
    default_candidate_set,
    standardized_shape,
)

GRID = DoseGrid(doses=(0.0, 10.0, 25.0, 100.0))
TRIAL_ARM_SIZES = (7, 14, 14, 14)


from oracles import maximize_gain_numerically, standardized_gain


def random_spd(rng, k):
    a = rng.normal(size=(k, k))
    return a @ a.T + k * np.eye(k) * 0.1


class TestOptimalContrast:
    def test_two_arm_contrast_is_forced(self):
        c = optimal_contrast(np.array([0.0, 1.0]), np.eye(2))
        assert np.allclose(c, [-1.0 / np.sqrt(2), 1.0 / np.sqrt(2)])

    def test_matches_numerical_maximizer_on_trial_design(self):
        mu0 = standardized_shape(CandidateModel(shape="emax", theta2=10.0), GRID)
        S = np.diag(1.0 / np.asarray(TRIAL_ARM_SIZES, dtype=float))
        c = optimal_contrast(mu0, S)
        oracle, oracle_val = maximize_gain_numerically(mu0, S)
        assert standardized_gain(c, mu0, S) == pytest.approx(oracle_val, abs=1e-9)
        assert np.allclose(c, oracle, atol=1e-6)

    def test_beats_random_zero_sum_vectors(self):
        rng = np.random.default_rng(42)
        mu0 = standardized_shape(CandidateModel(shape="sigemax", theta2=25.0, h=3.0), GRID)
        S = random_spd(rng, 4)
        c = optimal_contrast(mu0, S)
        gain = standardized_gain(c, mu0, S)
        draws = rng.normal(size=(10_000, 4))
        draws -= draws.mean(axis=1, keepdims=True)
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        rival = (draws @ mu0) / np.sqrt(np.einsum("ik,kl,il->i", draws, S, draws))
        assert gain >= rival.max() - 1e-12

    def test_affine_shift_invariance(self):
        rng = np.random.default_rng(3)
        mu0 = np.array([0.0, 0.4, 0.8, 0.9])
        S = random_spd(rng, 4)
        base = optimal_contrast(mu0, S)
        for a in (-3.0, 0.7, 12.0):
            assert np.allclose(optimal_contrast(mu0 + a, S), base, atol=1e-12)

    def test_positive_scaling_invariance_and_sign_convention(self):
        rng = np.random.default_rng(4)
        mu0 = np.array([0.0, 0.4, 0.8, 0.9])
        S = random_spd(rng, 4)
        base = optimal_contrast(mu0, S)
        assert np.allclose(optimal_contrast(2.5 * mu0, S), base, atol=1e-12)
        # Flipping the shape flips the candidate; the convention re-anchors
        # the sign so c'mu0 > 0 for the flipped shape too.
        flipped = optimal_contrast(-mu0, S)
        assert flipped @ (-mu0) > 0
        assert np.allclose(flipped, -base, atol=1e-12)

    def test_flat_shape_rejected(self):
        with pytest.raises(DegenerateShapeError):
            optimal_contrast(np.ones(4), np.eye(4))

    def test_singular_covariance_rejected(self):
        S = np.ones((4, 4))
        with pytest.raises(np.linalg.LinAlgError):
            optimal_contrast(np.array([0.0, 1.0, 2.0, 3.0]), S)


class TestContrastMatrix:
    def test_trial_design_rows_are_unit_norm_zero_sum(self):
        matrix = contrast_matrix(default_candidate_set(), GRID, arm_sizes=TRIAL_ARM_SIZES)
        assert matrix.m == 5
        assert np.all(np.abs(matrix.vectors.sum(axis=1)) < 1e-10)
        assert np.allclose(np.linalg.norm(matrix.vectors, axis=1), 1.0, atol=1e-10)
        assert matrix.weight_source == "arm_sizes"

    def test_scaling_arm_sizes_leaves_contrasts_unchanged(self):
        small = contrast_matrix(default_candidate_set(), GRID, arm_sizes=TRIAL_ARM_SIZES)
        big = contrast_matrix(
            default_candidate_set(), GRID,
            arm_sizes=tuple(10 * s for s in TRIAL_ARM_SIZES),
        )
        assert np.allclose(small.vectors, big.vectors, atol=1e-12)

    def test_covariance_path_matches_per_shape_contrast(self):
        rng = np.random.default_rng(9)
        cov = random_spd(rng, 4) * 0.05
        matrix = contrast_matrix(default_candidate_set(), GRID, covariance=cov)
        for row, model in zip(matrix.vectors, default_candidate_set().models):
            expected = optimal_contrast(standardized_shape(model, GRID), cov)
            assert np.allclose(row, expected, atol=1e-12)
        assert matrix.weight_source == "fitted_covariance"

    def test_flat_candidates_skipped_with_notice(self):
        cands = CandidateSet(models=(
            CandidateModel(shape="flat", name="flat"),
            CandidateModel(shape="emax", theta2=10.0, name="emax"),
        ))
        matrix = contrast_matrix(cands, GRID, arm_sizes=TRIAL_ARM_SIZES)
        assert matrix.labels == ("emax",)
        assert matrix.skipped == ("flat",)

    def test_all_flat_rejected(self):
        cands = CandidateSet(models=(CandidateModel(shape="flat"),))
        with pytest.raises(NoContrastsError):
            contrast_matrix(cands, GRID, arm_sizes=TRIAL_ARM_SIZES)

    def test_requires_exactly_one_weight_source(self):
        with pytest.raises(ValueError):
            contrast_matrix(default_candidate_set(), GRID)
        with pytest.raises(ValueError):
            contrast_matrix(default_candidate_set(), GRID,
                            arm_sizes=TRIAL_ARM_SIZES, covariance=np.eye(4))


class TestBatchKernel:
    def test_all_zero_covariance_gives_exact_zero_contrasts(self):
        mu0s = np.vstack([standardized_shape(m, GRID) for m in default_candidate_set().non_flat()])
        design = np.diag(1.0 / np.asarray(TRIAL_ARM_SIZES, dtype=float))
        covs = np.stack([design, np.zeros((4, 4)), design])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = _optimal_contrasts_batch(mu0s, covs)
        assert np.array_equal(c[1], np.zeros_like(c[1]))
        alone = _optimal_contrasts_batch(mu0s, design[None])[0]
        assert np.array_equal(c[0], alone) and np.array_equal(c[2], alone)


class TestOptimalityFuzz:
    def test_random_instances_beat_random_rivals(self):
        rng = np.random.default_rng(2024)
        for trial in range(25):
            k = int(rng.integers(3, 7))
            mu0 = rng.normal(size=k)
            while np.ptp(mu0) < 1e-6:
                mu0 = rng.normal(size=k)
            S = random_spd(rng, k)
            c = optimal_contrast(mu0, S)
            assert abs(c.sum()) < 1e-10
            assert abs(np.linalg.norm(c) - 1.0) < 1e-10
            gain = standardized_gain(c, mu0, S)
            draws = rng.normal(size=(2000, k))
            draws -= draws.mean(axis=1, keepdims=True)
            draws /= np.linalg.norm(draws, axis=1, keepdims=True)
            rival = (draws @ mu0) / np.sqrt(np.einsum("ik,kl,il->i", draws, S, draws))
            assert gain >= rival.max() - 1e-12
