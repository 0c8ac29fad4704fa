import hashlib
import json
import logging
import re

import numpy as np
import pytest
from dataclasses import replace

from randmcp import glm, simulate
from randmcp.data import PotentialOutcomeTable, TrialDataset
from randmcp.dose_response import DoseGrid, default_candidate_set, wide_range_candidate_set
from randmcp.glm import SEP_NAMES, design_from_assignments
from randmcp.inference import TestMethod, default_methods
from randmcp.presets import build_preset_dict, load_preset, preset_names
from randmcp.randomization import RandomizationSpec
from randmcp.rng import substream
from randmcp.simulate import (
    ScenarioConfig,
    _trial_diagnostics,
    generate_binary_trial,
    linear_time_trend,
    run_power_study,
    run_table_block,
    scenario_from_dict,
    scenario_to_dict,
    simulate_from_potential_outcomes,
    synthetic_potential_table,
)

from oracles import separation_lp

GRID4 = DoseGrid(doses=(0.0, 10.0, 25.0, 100.0))
GRID5 = DoseGrid(doses=(0.0, 100.0, 200.0, 400.0, 1000.0))
# sha256 of each preset's canonical JSON (sorted keys, no whitespace).
PRESET_SHA256 = {
    "n49_ra_notrend": "f0ed73188546494b73c8b11d377992e9116e98c04b10b3f296f84e03b8c6b80b",
    "n49_ra_trend": "d4a2dda7e4d622a9b95bf2c31084b64f28424f6ebb2fc940da557df2da000fc2",
    "n49_pbd_notrend": "cf4e29ad79cab4376d597ae230c685667297d13bbdbbcbad36b3657a7977e048",
    "n49_pbd_trend": "e734cd89bc550ecc5072bf0315d1ec34580d2193ea49126c0d1daa2ade2191c0",
    "n98_ra_notrend": "a76f882097dd9d762aae124fcda0f5d8dc474ca771a72ea4608e031024f8e620",
    "n98_ra_trend": "d0eb53c349f64280078b7b9f4caad3428461013b54e922e01af93893d9d178b1",
    "n98_pbd_notrend": "ed990113ff1be95d2dc902e453ade2047cb7d72e262a5192e1f2bd8a73447fbf",
    "n98_pbd_trend": "f44689b931ad49b1fd92e22676902a3c2fa25e3e129f4d707b3dd64c95a9e70a",
    "n490_ra_notrend": "b5e66021b14a9fb1978fd13da91809d01961bcf62750087eed8be1b00a604207",
    "n490_ra_trend": "a31da04f4019bf902c09a6bf8d85fc83dc61e5da0d03375956e06ddd9e81faf9",
    "n490_pbd_notrend": "afc424ebd1488e614ce83455a0e36ffd40401e7aeb0a832e2f2b713ab056b64e",
    "n490_pbd_trend": "a33a6b638323f038a404545b7b4f18a153b0097ae3c066edcbb6f2e7593809c9",
    "n490_cr_notrend": "a5ee3eab4047e4c13df65aafc90bb7a55f49d03dca1ed9987ab7720b56902c63",
    "n490_cr_trend": "d722dea09cd7f96202c2fdd8e4055eac1b00392bafad359b7cc4acfb8c4a544c",
}


def trial_config(**overrides):
    base = dict(
        name="test49",
        spec=RandomizationSpec(procedure="pbd", grid=GRID4, n=49, block=(1, 2, 2, 2)),
        p0=0.2,
        pk=0.8,
        n_sim=10,
        n_rand=200,
        seed=5,
        methods=(TestMethod(id="residual_firth", n_rand=200),),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGeneration:
    def test_flat_truth_without_covariate_matches_rate(self):
        spec = RandomizationSpec(procedure="cr", grid=GRID4, n=1_000_000)
        config = trial_config(spec=spec, p0=0.2, pk=0.2, covariate_coef=0.0,
                              n_rand=10, methods=(TestMethod(id="population"),))
        data = generate_binary_trial(config, substream(1, 0))
        assert abs(data.outcomes.mean() - 0.2) < 0.002

    def test_time_trend_endpoints(self):
        t = linear_time_trend(49)
        assert t[0] == pytest.approx(-0.2 + 0.4 / 49)
        assert t[-1] == pytest.approx(0.2)

    def test_trend_clamps_probabilities(self):
        assert min(max(0.9 + 0.2, 0.0), 1.0) == 1.0  # the clamping rule itself
        spec = RandomizationSpec(procedure="cr", grid=GRID4, n=200_000)
        config = trial_config(spec=spec, p0=0.97, pk=0.97, covariate_coef=0.0,
                              time_trend="linear", methods=(TestMethod(id="population"),))
        data = generate_binary_trial(config, substream(1, 1))
        # Late-enrolled patients sit at the clamp: probability exactly 1.
        tail = data.outcomes[-20_000:]
        assert tail.mean() == 1.0

    def test_covariate_strength_has_auc_two_thirds(self):
        # Rank-based AUC of the covariate for control-arm outcomes.
        n = 100_000
        rng = substream(1, 2)
        from randmcp.dose_response import inverse_logit
        from scipy.special import logit
        x = rng.normal(size=n)
        gamma = np.asarray(inverse_logit(logit(0.2) + 0.6 * x))
        y = (rng.random(n) < gamma).astype(float)
        order = np.argsort(x, kind="stable")
        ranks = np.empty(n)
        ranks[order] = np.arange(1, n + 1)
        n1 = int(y.sum())
        auc = (ranks[y == 1].sum() - n1 * (n1 + 1) / 2) / (n1 * (n - n1))
        assert 0.64 <= auc <= 0.68

    def test_determinism_and_stream_separation(self):
        config = trial_config()
        a = generate_binary_trial(config, substream(config.seed, 0, 3))
        b = generate_binary_trial(config, substream(config.seed, 0, 3))
        c = generate_binary_trial(config, substream(config.seed, 0, 4))
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.arms, b.arms)
        assert not np.array_equal(a.outcomes, c.outcomes)


class TestTrialDataset:
    def test_no_covariates_given_as_none(self):
        data = TrialDataset(arms=[0, 1, 1, 0], outcomes=[0.0, 1.0, 1.0, 0.0],
                            covariates=None, grid=GRID4)
        assert data.covariates.shape == (4, 0)
        assert data.n_covariates == 0

    @pytest.mark.parametrize("arms, covariates, bad", [
        (1, None, "arms"),
        ([0, 1, 1, 0], 2.0, "covariates"),
        ([0, 1, 1, 0], np.zeros((4, 1, 1)), "covariates"),
    ])
    def test_wrong_dimensions_rejected_naming_the_shape(self, arms, covariates, bad):
        shape = np.shape(arms if bad == "arms" else covariates)
        with pytest.raises(ValueError, match=rf"{bad} must .*shape {re.escape(str(shape))}"):
            TrialDataset(arms=arms, outcomes=[0.0, 1.0, 1.0, 0.0], covariates=covariates,
                         grid=GRID4)


class TestTrialDiagnostics:
    @pytest.mark.parametrize("failing_arm, expected", [(None, "none"), (1, "quasicomplete")])
    def test_empty_arm_without_covariate_matches_lp(self, failing_arm, expected):
        # Complete randomization can leave an arm empty: here the top arm.
        arms = np.repeat([0, 1, 2], 6)
        y = np.tile([0.0, 1.0], 9)
        if failing_arm is not None:
            y[arms == failing_arm] = 0.0
        x = substream(3, 0).normal(size=(18, 1))
        data = TrialDataset(arms=arms, outcomes=y, covariates=x, grid=GRID4, endpoint="binary")
        diag = _trial_diagnostics(data, False)
        lp = separation_lp(design_from_assignments(arms, 4), y)
        assert SEP_NAMES[diag["separation_code"]] == lp == expected


class TestPowerStudy:
    def test_worker_count_does_not_change_results(self):
        config = trial_config(n_sim=6)
        seq = run_power_study(config, workers=1)
        par = run_power_study(config, workers=3)
        for mid in seq.p_values:
            assert np.array_equal(seq.p_values[mid], par.p_values[mid])
        assert seq.separation == par.separation

    def test_worker_count_does_not_change_multi_block_results(self, monkeypatch):
        # 151 refits of 490 patients span two row blocks: one worker fits
        # them on two threads in this process, two workers fit them serially.
        monkeypatch.setattr(glm, "available_cpus", lambda: 2)
        config = replace(load_preset("n490_cr_notrend"), n_rand=150, n_sim=2)
        assert 151 * 490 > glm.BLOCK_ENTRIES
        seq = run_table_block(config, workers=1)
        par = run_table_block(config, workers=2)
        assert seq.rows() == par.rows()
        for one, two in ((seq.null, par.null), (seq.alternative, par.alternative)):
            for mid in one.p_values:
                assert np.array_equal(one.p_values[mid], two.p_values[mid]), mid

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        config = trial_config(n_sim=2)
        for study in (run_power_study, run_table_block):
            with pytest.raises(ValueError, match="workers must be at least 1"):
                study(config, workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            replay_study(workers=workers)

    def test_same_seed_reproduces_exactly(self):
        config = trial_config(n_sim=5)
        a = run_power_study(config)
        b = run_power_study(config)
        for mid in a.p_values:
            assert np.array_equal(a.p_values[mid], b.p_values[mid])

    def test_null_scenario_separation_rates_recorded(self):
        config = trial_config(pk=0.2, n_sim=60,
                              methods=(TestMethod(id="residual_firth", n_rand=100),),
                              n_rand=100)
        result = run_power_study(config)
        # Around 26% of null trials at n=49 have a degenerate arm, and the
        # placebo arm alone accounts for about 18 points of that.
        assert 0.08 < result.separation["mle_nonexistent_rate"] < 0.45
        assert result.separation["placebo_degenerate_rate"] <= \
            result.separation["any_arm_degenerate_rate"]
        assert result.separation["complete_rate"] <= 0.05

    def test_table_block_shape(self):
        config = trial_config(n_sim=4, methods=(
            TestMethod(id="population"),
            TestMethod(id="residual_firth", n_rand=100),
        ), n_rand=100)
        block = run_table_block(config)
        rows = block.rows()
        assert len(rows) == 2
        assert rows[0]["test"] == 1
        assert rows[1]["test"] == 5
        assert rows[0]["randomization_procedure"] == "PBD"
        assert set(rows[0]) == {
            "sample_size", "randomization_procedure", "time_trend", "test",
            "type1_error_pct", "power_pct", "type1_mcse_pct", "power_mcse_pct",
        }


def replay_study(workers=1, **overrides):
    table = synthetic_potential_table(20, GRID5, substream(23, 0))
    spec = RandomizationSpec(procedure="ra", grid=GRID5, n=20, targets=(4,) * 5)
    methods = tuple(TestMethod(id=m, n_rand=50)
                    for m in ("population", "glm_mle", "residual_mle"))
    kwargs = dict(alpha=0.05, n_sim=3, seed=29, workers=workers)
    kwargs.update(overrides)
    return simulate_from_potential_outcomes(
        table, spec, methods, wide_range_candidate_set(1000.0), **kwargs
    )


# Population p-values recorded with the 2^17-point QMC reference that the
# spherical-radial integral replaced; the pinned values must stay close.
QMC_POPULATION = {
    "null": [0.8043670654296875, 0.8362655639648438],
    "alt": [0.0015106201171875, 0.08457183837890625],
    "replay": [0.0004730224609375, 0.00011444091796875, 0.25434112548828125],
}


def assert_near_qmc_record(pinned, key):
    assert np.abs(np.asarray(pinned) - QMC_POPULATION[key]).max() <= 2e-3


class TestGoldenResults:
    """p-values recorded before the power and replay loops were merged.

    The population entries were re-recorded for the spherical-radial
    reference integral, and the replay's again when the population
    statistic moved to the refit statistic's contrast kernel; every
    other method's values are the originals.
    """

    def test_power_study(self):
        config = trial_config(pk=0.2, n_sim=2, n_rand=50, seed=17,
                              methods=default_methods(50))
        null = run_power_study(config)
        alt = run_power_study(replace(config, pk=0.8, covariate_in_analysis=False))
        assert {mid: p.tolist() for mid, p in null.p_values.items()} == {
            "population": [0.8050110675647931, 0.8362497802678808],
            "glm_mle": [0.78, 0.78],
            "residual_mle": [0.8, 0.08],
            "glm_firth": [0.84, 0.38],
            "residual_firth": [0.8, 0.08],
        }
        assert {mid: p.tolist() for mid, p in alt.p_values.items()} == {
            "population": [0.0015573930666954315, 0.0843630902484479],
            "glm_mle": [0.0, 0.08],
            "residual_mle": [0.0, 0.0],
            "glm_firth": [0.0, 0.0],
            "residual_firth": [0.0, 0.0],
        }
        assert_near_qmc_record(null.p_values["population"], "null")
        assert_near_qmc_record(alt.p_values["population"], "alt")
        assert null.separation == {
            "mle_nonexistent_rate": 0.5, "complete_rate": 0.0, "quasicomplete_rate": 0.5,
            "placebo_degenerate_rate": 0.5, "any_arm_degenerate_rate": 0.5,
        }
        assert null.summary("glm_mle").diagnostics == {
            "separated_refits": 33, "nonconverged_refits": 34}
        assert alt.summary("glm_mle").diagnostics == {
            "separated_refits": 5, "nonconverged_refits": 6}

    def test_replay(self):
        res = replay_study()
        assert {mid: p.tolist() for mid, p in res.p_values.items()} == {
            "population": [0.0004883164102616605, 0.00011895362397578072, 0.2543388144912677],
            "glm_mle": [0.0, 0.0, 0.22],
            "residual_mle": [0.0, 0.02, 0.18],
        }
        # The per-shape population statistic gave these; the kernel moves
        # the continuous statistic in its last bits only.
        per_shape = [0.0004883164102616605, 0.00011895362397578116, 0.2543388144912676]
        assert np.abs(res.p_values["population"] - per_shape).max() <= 1e-15
        assert_near_qmc_record(res.p_values["population"], "replay")
        assert res.separation == {}


class TestProgress:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_is_logged_not_printed(self, workers, caplog, capsys):
        caplog.set_level(logging.INFO, logger="randmcp.simulate")
        config = trial_config(n_sim=4, n_rand=20,
                              methods=(TestMethod(id="residual_mle", n_rand=20),))
        run_power_study(config, workers=workers, progress=2)
        messages = [r.getMessage() for r in caplog.records if r.name == "randmcp.simulate"]
        assert messages == ["[test49] 2/4 trials", "[test49] 4/4 trials"]
        assert capsys.readouterr().out == ""


class TestPotentialOutcomes:
    def test_worker_count_does_not_change_results(self):
        seq = replay_study(workers=1, n_sim=4)
        par = replay_study(workers=2, n_sim=4)
        for mid in seq.p_values:
            assert np.array_equal(seq.p_values[mid], par.p_values[mid])
            assert seq.summary(mid).rejection_rate == par.summary(mid).rejection_rate
            assert seq.summary(mid).diagnostics == par.summary(mid).diagnostics

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad, match", [
        ({"n_sim": 0}, "n_sim"), ({"alpha": 1.5}, "alpha"), ({"alpha": 0.0}, "alpha"),
    ])
    def test_invalid_n_sim_or_alpha_rejected(self, workers, bad, match):
        with pytest.raises(ValueError, match=match):
            replay_study(workers=workers, **bad)

    def test_zero_variance_null_table_gives_p_one(self):
        n = 20
        outcomes = np.tile(np.full(5, 3.0), (n, 1))  # no dose effect, no variation
        table = PotentialOutcomeTable(outcomes=outcomes, baseline=np.zeros(n))
        spec = RandomizationSpec(procedure="ra", grid=GRID5, n=n, targets=(4,) * 5)
        res = simulate_from_potential_outcomes(
            table, spec, (TestMethod(id="residual_mle", n_rand=100),),
            wide_range_candidate_set(1000.0),
            alpha=0.05, n_sim=6, seed=2, include_baseline_covariate=False,
        )
        assert np.all(res.p_values["residual_mle"] == 1.0)

    def test_constant_across_doses_controls_type_one(self):
        rng = substream(3, 0)
        table = synthetic_potential_table(40, GRID5, rng, constant_across_doses=True)
        spec = RandomizationSpec(procedure="ra", grid=GRID5, n=40, targets=(8,) * 5)
        res = simulate_from_potential_outcomes(
            table, spec, (TestMethod(id="residual_mle", n_rand=400),),
            wide_range_candidate_set(1000.0),
            alpha=0.05, n_sim=200, seed=3,
        )
        rate = res.summary("residual_mle").rejection_rate
        assert abs(rate - 0.05) < 3 * np.sqrt(0.05 * 0.95 / 200) + 0.01

    def test_baseline_covariate_raises_power(self):
        rng = substream(4, 0)
        table = synthetic_potential_table(40, GRID5, rng, effect=6.0,
                                          baseline_slope=1.2, noise_sd=2.0)
        spec = RandomizationSpec(procedure="ra", grid=GRID5, n=40, targets=(8,) * 5)
        with_cov = simulate_from_potential_outcomes(
            table, spec, (TestMethod(id="residual_mle", n_rand=300),),
            wide_range_candidate_set(1000.0), alpha=0.05, n_sim=150, seed=4,
            include_baseline_covariate=True,
        )
        without_cov = simulate_from_potential_outcomes(
            table, spec, (TestMethod(id="residual_mle", n_rand=300),),
            wide_range_candidate_set(1000.0), alpha=0.05, n_sim=150, seed=4,
            include_baseline_covariate=False,
        )
        gain = with_cov.summary("residual_mle").rejection_rate \
            - without_cov.summary("residual_mle").rejection_rate
        assert gain >= 0.05

    def test_sorted_baseline_orders_rows(self):
        rng = substream(5, 0)
        table = synthetic_potential_table(30, GRID5, rng)
        spec = RandomizationSpec(procedure="pbd", grid=GRID5, n=30, block=(1,) * 5)
        res = simulate_from_potential_outcomes(
            table, spec, (TestMethod(id="residual_mle", n_rand=50),),
            wide_range_candidate_set(1000.0), alpha=0.05, n_sim=3, seed=5,
            sort_by_baseline=True,
        )
        assert res.time_trend == "sorted_baseline"

    def test_dimension_mismatch_rejected(self):
        table = synthetic_potential_table(30, GRID5, substream(6, 0))
        spec = RandomizationSpec(procedure="ra", grid=GRID5, n=40, targets=(8,) * 5)
        with pytest.raises(ValueError, match="rows"):
            simulate_from_potential_outcomes(
                table, spec, (TestMethod(id="residual_mle", n_rand=10),),
                wide_range_candidate_set(1000.0), n_sim=2, seed=1,
            )

    def test_empty_method_tuple_rejected_before_any_trial(self, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("ran a trial of a study without methods")

        monkeypatch.setattr(simulate, "_trial_range", no_trial)
        table = synthetic_potential_table(20, GRID5, substream(6, 0))
        spec = RandomizationSpec(procedure="ra", grid=GRID5, n=20, targets=(4,) * 5)
        with pytest.raises(ValueError, match="at least one method"):
            simulate_from_potential_outcomes(table, spec, (), wide_range_candidate_set(1000.0),
                                             n_sim=2, seed=1)


class TestPresetsAndSerialization:
    def test_all_presets_load(self):
        names = preset_names()
        assert len(names) == 14
        for name in names:
            config = load_preset(name)
            assert config.n_sim == 10_000
            assert config.n_rand == 1_000
            assert config.alpha == 0.10
            assert len(config.methods) == 5

    def test_preset_dicts_are_pinned(self):
        assert sorted(preset_names()) == sorted(PRESET_SHA256)
        for name in preset_names():
            text = json.dumps(build_preset_dict(name), sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[name], name

    def test_n49_pbd_notrend_in_full(self):
        assert build_preset_dict("n49_pbd_notrend") == {
            "name": "n49_pbd_notrend",
            "doses": [0.0, 10.0, 25.0, 100.0],
            "procedure": "pbd",
            "n": 49,
            "block": [1, 2, 2, 2],
            "p0": 0.2,
            "pk": 0.8,
            "emax_ed50": 10.0,
            "covariate_coef": 0.6,
            "covariate_in_analysis": True,
            "time_trend": "none",
            "alpha": 0.1,
            "n_sim": 10000,
            "n_rand": 1000,
            "seed": 1,
            "methods": [{"id": "population", "df": 44},
                        "glm_mle", "residual_mle", "glm_firth", "residual_firth"],
        }
        config = load_preset("n49_pbd_notrend")
        assert config.methods[0] == TestMethod(id="population", df=44)
        assert config.spec.block == (1, 2, 2, 2)

    def test_preset_rates_follow_sample_size(self):
        assert load_preset("n49_pbd_notrend").pk == 0.8
        assert load_preset("n98_ra_trend").pk == 0.61
        assert load_preset("n490_cr_notrend").pk == 0.364

    def test_round_trip_through_dict(self):
        config = trial_config(time_trend="linear")
        rebuilt = scenario_from_dict(scenario_to_dict(config))
        assert rebuilt.spec == config.spec
        assert rebuilt.pk == config.pk
        assert rebuilt.time_trend == "linear"
        assert tuple(m.id for m in rebuilt.methods) == tuple(m.id for m in config.methods)
        assert rebuilt.candidates == config.candidates

    def test_truth_model_matches_calibration_identity(self):
        config = load_preset("n98_pbd_notrend")
        truth = config.truth_model()
        from randmcp.dose_response import eval_model, inverse_logit
        assert inverse_logit(eval_model(truth, 0.0)) == pytest.approx(0.2, abs=1e-12)
        assert inverse_logit(eval_model(truth, 100.0)) == pytest.approx(0.61, abs=1e-12)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            build_preset_dict("n49_urn_notrend")
