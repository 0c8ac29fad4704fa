import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from randmcp import cli, simulate
from randmcp.cli import main
from randmcp.data import (
    PotentialOutcomeTable,
    TrialDataset,
    write_potential_outcomes_csv,
    write_trial_csv,
)
from randmcp.dose_response import DoseGrid
from randmcp.inference import TestMethod
from randmcp.rng import substream
from randmcp.simulate import synthetic_potential_table


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def tiny_scenario(tmp_path):
    config = {
        "name": "tiny",
        "doses": [0.0, 10.0, 25.0, 100.0],
        "procedure": "pbd",
        "n": 49,
        "block": [1, 2, 2, 2],
        "p0": 0.2,
        "pk": 0.8,
        "alpha": 0.10,
        "n_sim": 4,
        "n_rand": 100,
        "seed": 9,
        "methods": ["population", "residual_firth"],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def replay_config(tmp_path):
    """Write a potential-outcome replay config; returns a writer taking overrides."""
    grid = DoseGrid(doses=(0.0, 100.0, 200.0, 400.0, 1000.0))
    write_potential_outcomes_csv(tmp_path / "po.csv",
                                 synthetic_potential_table(20, grid, substream(3, 1)),
                                 grid.doses)

    def write(**overrides):
        config = {
            "name": "demo", "potential_outcomes": "po.csv", "doses": list(grid.doses),
            "procedure": "ra", "n": 20, "targets": [4] * 5, "methods": ["residual_mle"],
            "n_sim": 4, "n_rand": 20, "seed": 4,
        }
        config.update(overrides)
        path = tmp_path / "po.json"
        path.write_text(json.dumps(config))
        return path

    return write


@pytest.fixture
def two_arm_config(tmp_path):
    config = {
        "doses": [0.0, 100.0],
        "procedure": "ra",
        "n": 8,
        "targets": [4, 4],
        "candidates": [{"shape": "linear", "name": "linear"}],
        "n_rand": 200,
        "seed": 3,
    }
    path = tmp_path / "analysis.json"
    path.write_text(json.dumps(config))
    return path


def write_two_arm_trial(path, outcomes, doses=None):
    grid = DoseGrid(doses=(0.0, 100.0))
    arms = np.array([0, 1] * 4)
    data = TrialDataset(arms=arms, outcomes=np.asarray(outcomes, dtype=float),
                        covariates=np.empty((8, 0)), grid=grid)
    write_trial_csv(path, data)


class TestSimulateCommand:
    def test_writes_table_and_summary(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "run1"
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(out), "--workers", "1") == 0
        table = out / "tiny_table.csv"
        summary = out / "tiny_summary.json"
        assert table.exists() and summary.exists()
        lines = table.read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1].split(",")[0] == "sample_size"
        assert len(lines) == 4  # comment + header + one row per method
        payload = json.loads(summary.read_text())
        assert payload["provenance"]["seed"] == 9
        assert "null_separation" in payload["results"]

    def test_rerun_reproduces_identical_results(self, tiny_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", str(tiny_scenario), "--out", str(out1),
                       "--workers", "1") == 0
        assert run_cli("simulate", "--config", str(tiny_scenario), "--out", str(out2),
                       "--workers", "2") == 0
        assert (out1 / "tiny_table.csv").read_bytes() == (out2 / "tiny_table.csv").read_bytes()
        r1 = json.loads((out1 / "tiny_summary.json").read_text())
        r2 = json.loads((out2 / "tiny_summary.json").read_text())
        assert r1["results"] == r2["results"]
        assert r1["provenance"] == r2["provenance"]

    def test_progress_goes_to_stderr(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(tiny_scenario), "--out", str(out),
                       "--workers", "2", "--progress", "1") == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            f"wrote {out / 'tiny_table.csv'} and {out / 'tiny_summary.json'}"
        ]
        assert "[tiny_null] 4/4 trials" in captured.err
        assert "[tiny_alt] 4/4 trials" in captured.err

    def test_replay_config_writes_table(self, replay_config, tmp_path, capsys):
        out = tmp_path / "po_out"
        assert run_cli("simulate", "--config", str(replay_config()), "--out", str(out),
                       "--workers", "1", "--progress", "2") == 0
        lines = (out / "demo_po_table.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=") and lines[0].endswith(" seed=4")
        assert lines[1] == "test,method,rejection_rate_pct,mcse_pct"
        assert json.loads((out / "demo_po_summary.json").read_text())["results"]["n_sim"] == 4
        assert "[demo] 4/4 trials" in capsys.readouterr().err

    def test_replay_method_entry_sets_its_own_n_rand(self, replay_config, tmp_path,
                                                     monkeypatch):
        seen = []
        study = simulate.simulate_from_potential_outcomes

        def spy(table, spec, methods, *args, **kwargs):
            seen.append(methods)
            return study(table, spec, methods, *args, **kwargs)

        monkeypatch.setattr(simulate, "simulate_from_potential_outcomes", spy)
        config = replay_config(methods=[{"id": "residual_mle", "n_rand": 10}, "glm_mle"])
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                       "--workers", "1") == 0
        assert seen == [(TestMethod(id="residual_mle", n_rand=10),
                         TestMethod(id="glm_mle", n_rand=20))]

    @pytest.mark.parametrize("bad", [{"n_sim": 0}, {"alpha": 1.5}])
    def test_invalid_replay_config_exits_2(self, replay_config, tmp_path, bad):
        assert run_cli("simulate", "--config", str(replay_config(**bad)),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert not (tmp_path / "o").exists()

    def test_replay_without_methods_exits_2_before_any_trial(self, replay_config, tmp_path,
                                                               capsys):
        assert run_cli("simulate", "--config", str(replay_config(methods=[])),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert "at least one method" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_without_name_exits_2(self, tiny_scenario, tmp_path, capsys):
        config = json.loads(tiny_scenario.read_text())
        del config["name"]
        tiny_scenario.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert "required field 'name'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "doses": [0, 10], "procedure": "urn",
                                   "n": 4}))
        assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_unknown_method_entry_field_exits_2(self, tiny_scenario, tmp_path, capsys):
        config = json.loads(tiny_scenario.read_text())
        config["methods"] = [{"id": "glm_mle", "bogus": 1}]
        tiny_scenario.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_constant_candidate_exits_2(self, tiny_scenario, tmp_path, capsys):
        config = json.loads(tiny_scenario.read_text())
        config["candidates"] = [{"shape": "emax", "name": "emax", "theta2": 25.0},
                                {"shape": "linear", "name": "flat_line", "theta1": 0.0}]
        tiny_scenario.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert "flat_line" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("argv, env, message", [
        (["--workers", "0"], None, "at least 1, not 0"),
        (["--workers", "-3"], None, "at least 1, not -3"),
        ([], "0", "at least 1, not 0"),
        ([], "abc", "RANDMCP_WORKERS must be an integer, not 'abc'"),
    ])
    def test_bad_worker_count_exits_2(self, tiny_scenario, replay_config, tmp_path, capsys,
                                      monkeypatch, replay, argv, env, message):
        monkeypatch.delenv("RANDMCP_WORKERS", raising=False)
        if env is not None:
            monkeypatch.setenv("RANDMCP_WORKERS", env)
        config = replay_config() if replay else tiny_scenario
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                       *argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, field", [
        ({"pk": 1.5}, "pk"),
        ({"emax_ed50": -3}, "emax_ed50"),
        ({"covariate_coef": math.nan}, "covariate_coef"),
        ({"methods": [{"id": "population", "df": math.inf}]}, "df"),
        ({"methods": [{"id": "population", "df": math.nan}]}, "df"),
        ({"emax_ed50": 0}, "emax_ed50"),
        ({"methods": [{"id": "residual_firth", "df": 44}]}, "df"),
        ({"methods": [{"id": "population", "pvalue_rule": "add_one"}]}, "pvalue_rule"),
    ])
    def test_invalid_truth_or_df_exits_2_before_any_trial(self, tiny_scenario, tmp_path,
                                                          capsys, monkeypatch, change, field):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the config was rejected")

        monkeypatch.setattr(simulate, "generate_binary_trial", no_trials)
        config = json.loads(tiny_scenario.read_text())
        config.update(change)
        tiny_scenario.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, message", [
        ({"n_rand": 1.5}, "n_rand must be an integer, not 1.5"),
        ({"n_sim": 2.5}, "n_sim must be an integer, not 2.5"),
        ({"n_sim": "4"}, "n_sim must be an integer, not '4'"),
        ({"n": 49.0}, "n must be an integer, not 49.0"),
        ({"seed": 1.7}, "seed must be an integer, not 1.7"),
        ({"seed": True}, "seed must be an integer, not True"),
        ({"seed": -1}, "seed must be at least 0, not -1"),
        ({"covariate_in_analysis": "no"}, "covariate_in_analysis must be true or false"),
        ({"covariate_in_analysis": 0}, "covariate_in_analysis must be true or false"),
        ({"alpha": "0.1"}, "alpha must be a finite number, not '0.1'"),
        ({"p0": "0.2"}, "p0 must be a finite number, not '0.2'"),
        ({"pk": True}, "pk must be a finite number, not True"),
        ({"emax_ed50": "10"}, "emax_ed50 must be a finite number, not '10'"),
        ({"covariate_coef": [0.6]}, "covariate_coef must be a finite number, not [0.6]"),
        ({"p0": math.inf}, "p0 must be a finite number, not inf"),
        ({"name": "sub/dir"}, "name must be a non-empty name without a path separator, "
                              "not 'sub/dir'"),
        ({"name": 7}, "name must be a non-empty name without a path separator, not 7"),
        ({"name": ""}, "name must be a non-empty name without a path separator, not ''"),
    ])
    def test_mistyped_scenario_field_exits_2(self, tiny_scenario, tmp_path, capsys,
                                             change, message):
        config = json.loads(tiny_scenario.read_text())
        config.update(change)
        tiny_scenario.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, message", [
        ({"n_rand": 1.5}, "n_rand must be an integer, not 1.5"),
        ({"methods": [{"id": "residual_mle", "n_rand": 2.5}]},
         "n_rand must be an integer, not 2.5"),
        ({"n_sim": 2.5}, "n_sim must be an integer, not 2.5"),
        ({"n": 20.0}, "n must be an integer, not 20.0"),
        ({"seed": -1}, "seed must be at least 0, not -1"),
        ({"include_baseline_covariate": "false"},
         "include_baseline_covariate must be true or false"),
        ({"sort_by_baseline": 1}, "sort_by_baseline must be true or false"),
        ({"alpha": "0.5"}, "alpha must be a finite number, not '0.5'"),
        ({"alpha": False}, "alpha must be a finite number, not False"),
        ({"alpha": math.nan}, "alpha must be a finite number, not nan"),
        ({"name": "sub/dir"}, "name must be a non-empty name without a path separator, "
                              "not 'sub/dir'"),
        ({"name": 7}, "name must be a non-empty name without a path separator, not 7"),
    ])
    def test_mistyped_replay_field_exits_2(self, replay_config, tmp_path, capsys,
                                           change, message):
        assert run_cli("simulate", "--config", str(replay_config(**change)),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_default_worker_count_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("RANDMCP_WORKERS", raising=False)
        monkeypatch.setattr(cli, "available_cpus", lambda: 3)
        assert cli._worker_count(None) == 3
        monkeypatch.setenv("RANDMCP_WORKERS", "2")
        assert cli._worker_count(None) == 2
        assert cli._worker_count(5) == 5

    def test_scenario_method_entry_cannot_set_n_rand(self, tiny_scenario, tmp_path, capsys):
        config = json.loads(tiny_scenario.read_text())
        config["methods"] = [{"id": "glm_mle", "n_rand": 5}]
        tiny_scenario.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        err = capsys.readouterr().err
        assert "n_rand" in err and "governs every method" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("in_config", [False, True])
    def test_duplicate_method_ids_exit_2(self, tiny_scenario, replay_config, tmp_path, capsys,
                                         replay, in_config):
        config = replay_config() if replay else tiny_scenario
        argv = ["--methods", "residual_mle,residual_mle"]
        if in_config:
            payload = json.loads(config.read_text())
            payload["methods"] = ["residual_mle", "glm_mle", "residual_mle"]
            config.write_text(json.dumps(payload))
            argv = []
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                       "--workers", "1", *argv) == 2
        assert "duplicate method ids: ['residual_mle']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_methods_flag_keeps_the_preset_entries(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("simulate", "--preset", "n49_pbd_notrend", "--out", str(out),
                       "--workers", "1", "--sims", "1", "--rand", "5",
                       "--methods", "population,glm_mle") == 0
        config = json.loads((out / "n49_pbd_notrend_summary.json").read_text())["config"]
        assert config["methods"] == [{"id": "population", "df": 44}, "glm_mle"]

    @pytest.mark.parametrize("replay", [False, True])
    def test_overrides_equal_the_same_config_written_out(self, tiny_scenario, replay_config,
                                                         tmp_path, replay):
        config = replay_config() if replay else tiny_scenario
        flags = ["--seed", "5", "--sims", "3", "--rand", "12", "--methods", "glm_mle,population"]
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "flags"),
                       "--workers", "1", *flags) == 0
        payload = json.loads(config.read_text())
        payload.update(seed=5, n_sim=3, n_rand=12, methods=["glm_mle", "population"])
        config.write_text(json.dumps(payload))
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "file"),
                       "--workers", "1") == 0
        for path in (tmp_path / "flags").iterdir():
            twin = tmp_path / "file" / path.name
            if path.suffix == ".json":
                assert _pinned_json(path) == _pinned_json(twin)
            else:
                assert path.read_bytes() == twin.read_bytes()

    def test_degenerate_replayed_trial_exits_1(self, replay_config, tmp_path, capsys):
        config = replay_config(methods=["population"])
        rng = substream(3, 2)
        write_potential_outcomes_csv(tmp_path / "po.csv", PotentialOutcomeTable(
            outcomes=np.tile(np.arange(5.0), (20, 1)), baseline=rng.normal(size=20)),
            (0.0, 100.0, 200.0, 400.0, 1000.0))
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                       "--workers", "1") == 1
        assert "invalid" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_preset_and_config_mutually_exclusive(self, tiny_scenario, tmp_path):
        assert run_cli("simulate", "--preset", "n49_pbd_notrend",
                       "--config", str(tiny_scenario), "--out", str(tmp_path / "o")) == 2


class TestAnalyzeCommand:
    def test_identical_arms_give_p_near_one(self, two_arm_config, tmp_path, capsys):
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [1, 1, 0, 0, 1, 1, 0, 0])  # same mix in both arms
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", "residual_firth", "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert result["p_value"] > 0.5
        assert "warning" not in result

    def test_firth_method_on_separated_data_no_warning(self, two_arm_config, tmp_path):
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [0, 1, 0, 1, 0, 1, 0, 1])  # arm 1 all successes
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", "residual_firth", "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert "warning" not in result
        stat = result["statistic"]
        assert stat in ("inf", "-inf") or np.isfinite(stat)

    def test_mle_refit_method_on_separated_data_warns(self, two_arm_config, tmp_path):
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [0, 1, 0, 1, 0, 1, 0, 1])
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", "glm_mle", "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert "separation" in result["warning"]

    def test_exact_flag_reproduces_enumeration_oracle(self, tmp_path):
        config = {
            "doses": [0.0, 100.0],
            "procedure": "ra",
            "n": 4,
            "targets": [2, 2],
            "candidates": [{"shape": "linear", "name": "linear"}],
            "seed": 1,
        }
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(json.dumps(config))
        trial = tmp_path / "toy.csv"
        grid = DoseGrid(doses=(0.0, 100.0))
        data = TrialDataset(arms=np.array([1, 1, 0, 0]),
                            outcomes=np.array([1.0, 1.0, 0.0, 0.0]),
                            covariates=np.empty((4, 0)), grid=grid)
        write_trial_csv(trial, data)
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(cfg_path),
                       "--method", "residual_mle", "--exact", "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert result["p_value"] == pytest.approx(1 / 6)

    def test_exact_population_exits_2(self, two_arm_config, tmp_path, capsys):
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [1, 0, 1, 1, 0, 1, 0, 0])
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", "population", "--exact", "--out", str(out)) == 2
        assert "population method has no exact test" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_add_one_exits_2(self, two_arm_config, tmp_path, capsys):
        config = json.loads(two_arm_config.read_text())
        config["pvalue_rule"] = "add_one"
        two_arm_config.write_text(json.dumps(config))
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [1, 0, 1, 1, 0, 1, 0, 0])
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", "residual_mle", "--exact", "--out", str(out)) == 2
        assert "pvalue_rule 'add_one'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_dose_level_exits_2(self, two_arm_config, tmp_path):
        trial = tmp_path / "trial.csv"
        trial.write_text(
            "enrollment_index,dose,outcome\n0,0,1\n1,55.0,0\n2,0,1\n3,100,0\n"
        )
        assert run_cli("analyze", "--data", str(trial),
                       "--config", str(two_arm_config)) == 2

    @pytest.mark.parametrize("method", ["population", "glm_mle", "residual_mle",
                                        "glm_firth", "residual_firth"])
    def test_constant_candidate_exits_2(self, two_arm_config, tmp_path, capsys, method):
        config = json.loads(two_arm_config.read_text())
        config["candidates"].append({"shape": "linear", "name": "flat_line", "theta1": 0.0})
        two_arm_config.write_text(json.dumps(config))
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [1, 0, 1, 1, 0, 1, 0, 0])
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", method, "--out", str(out)) == 2
        assert "flat_line" in capsys.readouterr().err
        assert not out.exists()

    def test_add_one_rule_on_population_exits_2(self, two_arm_config, tmp_path, capsys):
        config = json.loads(two_arm_config.read_text())
        config.update(method="population", pvalue_rule="add_one")
        two_arm_config.write_text(json.dumps(config))
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [1, 0, 1, 1, 0, 1, 0, 0])
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--out", str(out)) == 2
        assert "pvalue_rule" in capsys.readouterr().err
        assert not out.exists()

    def test_overrides_equal_the_same_config_written_out(self, two_arm_config, tmp_path):
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [1, 0, 1, 1, 0, 1, 0, 0])
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", "glm_firth", "--rand", "30", "--seed", "8",
                       "--out", str(tmp_path / "flags.json")) == 0
        config = json.loads(two_arm_config.read_text())
        config.update(method="glm_firth", n_rand=30, seed=8)
        two_arm_config.write_text(json.dumps(config))
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--out", str(tmp_path / "file.json")) == 0
        assert (tmp_path / "flags.json").read_bytes() == (tmp_path / "file.json").read_bytes()

    @pytest.mark.parametrize("change, message", [
        ({"n_rand": 1.5}, "n_rand must be an integer, not 1.5"),
        ({"n": 8.0}, "n must be an integer, not 8.0"),
        ({"seed": 1.7}, "seed must be an integer, not 1.7"),
        ({"seed": -1}, "seed must be at least 0, not -1"),
    ])
    def test_mistyped_config_field_exits_2(self, two_arm_config, tmp_path, capsys,
                                           change, message):
        config = json.loads(two_arm_config.read_text())
        config.update(change)
        two_arm_config.write_text(json.dumps(config))
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [1, 0, 1, 1, 0, 1, 0, 0])
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", "residual_mle", "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_exits_2(self, two_arm_config, tmp_path):
        trial = tmp_path / "trial.csv"
        write_two_arm_trial(trial, [1, 0, 1, 0, 1, 0, 1, 0])
        assert run_cli("analyze", "--data", str(trial), "--config", str(two_arm_config),
                       "--method", "wilcoxon") == 2


class TestContrastsCommand:
    def test_trial_contrast_matrix_csv(self, tmp_path):
        config = {
            "doses": [0.0, 10.0, 25.0, 100.0],
            "arm_sizes": [7, 14, 14, 14],
        }
        cfg = tmp_path / "contrasts.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "contrasts.csv"
        assert run_cli("contrasts", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "candidate,dose_0,dose_10,dose_25,dose_100"
        assert len(lines) == 6  # header + five default candidates
        for line in lines[1:]:
            values = np.array([float(v) for v in line.split(",")[1:]])
            assert abs(values.sum()) < 1e-10
            assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-10)


    def test_arm_sizes_and_covariance_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "contrasts.json"
        cfg.write_text(json.dumps({"doses": [0.0, 100.0], "arm_sizes": [4, 4],
                                   "covariance": [[1, 0], [0, 1]]}))
        assert run_cli("contrasts", "--config", str(cfg)) == 2
        assert "covariance" in capsys.readouterr().err


class TestCrAllocation:
    """Complete randomization's allocation is stated by integer weights alone."""

    CR = {"doses": [0.0, 10.0, 25.0, 100.0], "procedure": "cr", "n": 7}

    def test_weights_count_die_faces_and_equal_allocation_arms(self, tmp_path, capsys):
        cfg = tmp_path / "cr.json"
        cfg.write_text(json.dumps({**self.CR, "weights": [1, 2, 2, 2]}))
        assert run_cli("counts", "--config", str(cfg)) == 0
        assert f"sequences={7 ** 7}" in capsys.readouterr().out
        cfg.write_text(json.dumps(self.CR))
        assert run_cli("counts", "--config", str(cfg)) == 0
        assert f"sequences={4 ** 7}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["counts", "enumerate"])
    def test_probs_exit_2_naming_the_field(self, tmp_path, capsys, command):
        cfg = tmp_path / "cr.json"
        cfg.write_text(json.dumps({**self.CR, "probs": [1 / 7, 2 / 7, 2 / 7, 2 / 7]}))
        out = tmp_path / "seqs.csv"
        extra = ["--out", str(out)] if command == "enumerate" else []
        assert run_cli(command, "--config", str(cfg), *extra) == 2
        assert "probs" in capsys.readouterr().err
        assert not out.exists()

    def test_probs_in_a_scenario_exit_2_naming_the_field(self, tiny_scenario, tmp_path,
                                                         capsys):
        config = json.loads(tiny_scenario.read_text())
        del config["block"]
        config.update(procedure="cr", probs=[0.25] * 4)
        tiny_scenario.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert "probs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_equal_allocation_records_no_design_field(self):
        config = simulate.scenario_from_dict({"name": "cr", **self.CR})
        assert not {"probs", "weights"} & set(simulate.scenario_to_dict(config))
        weighted = simulate.scenario_from_dict({"name": "cr", **self.CR, "weights": [1, 2, 2, 2]})
        assert simulate.scenario_to_dict(weighted)["weights"] == [1, 2, 2, 2]


class TestCountsCommand:
    def test_trial_counts_exact(self, capsys):
        assert run_cli("counts", "--preset", "n49_pbd_notrend") == 0
        text = capsys.readouterr().out
        assert f"sequences={630 ** 7}" in text

    def test_ra_count_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "ra.json"
        cfg.write_text(json.dumps({
            "doses": [0.0, 10.0, 25.0, 100.0], "procedure": "ra", "n": 49,
            "targets": [7, 14, 14, 14],
        }))
        assert run_cli("counts", "--config", str(cfg)) == 0
        expected = math.factorial(49) // (math.factorial(7) * math.factorial(14) ** 3)
        assert f"sequences={expected}" in capsys.readouterr().out


class TestEnumerateCommand:
    def test_small_design_streams_all_sequences(self, tmp_path):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({
            "doses": [0.0, 100.0], "procedure": "ra", "n": 4, "targets": [2, 2],
        }))
        out = tmp_path / "seqs.csv"
        assert run_cli("enumerate", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # header + 6 sequences
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0)

    @pytest.mark.parametrize("config, expected", [
        ({"doses": [0.0, 50.0, 100.0], "procedure": "ra", "n": 4, "targets": [1, 1, 2]},
         "".join(f"{i},0.08333333333333333,{seq}\r\n" for i, seq in enumerate([
             "0 1 2 2", "0 2 1 2", "0 2 2 1", "1 0 2 2", "1 2 0 2", "1 2 2 0",
             "2 0 1 2", "2 0 2 1", "2 1 0 2", "2 1 2 0", "2 2 0 1", "2 2 1 0"]))),
        ({"doses": [0.0, 50.0, 100.0], "procedure": "pbd", "n": 4, "block": [1, 0, 1]},
         "0,0.25,0 2 0 2\r\n1,0.25,0 2 2 0\r\n2,0.25,2 0 0 2\r\n3,0.25,2 0 2 0\r\n"),
        ({"doses": [0.0, 100.0], "procedure": "cr", "n": 3, "weights": [1, 2]},
         "0,0.037037037037037035,0 0 0\r\n1,0.07407407407407407,0 0 1\r\n"
         "2,0.07407407407407407,0 1 0\r\n3,0.14814814814814814,0 1 1\r\n"
         "4,0.07407407407407407,1 0 0\r\n5,0.14814814814814814,1 0 1\r\n"
         "6,0.14814814814814814,1 1 0\r\n7,0.2962962962962963,1 1 1\r\n"),
    ])
    def test_csv_bytes_are_pinned(self, tmp_path, config, expected):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "seqs.csv"
        assert run_cli("enumerate", "--config", str(cfg), "--out", str(out)) == 0
        header = "sequence_index,probability,assignments\r\n"
        assert out.read_bytes() == (header + expected).encode()

    def test_cap_exceeded_exits_3(self, tmp_path):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "doses": [0.0, 10.0, 25.0, 100.0], "procedure": "pbd", "n": 49,
            "block": [1, 2, 2, 2],
        }))
        out = tmp_path / "seqs.csv"
        assert run_cli("enumerate", "--config", str(cfg), "--out", str(out), "--cap", "1000") == 3
        assert not out.exists()
        out.write_text("kept\n")
        assert run_cli("enumerate", "--config", str(cfg), "--out", str(out), "--cap", "1000") == 3
        assert out.read_text() == "kept\n"


# What each kind-table field must be, and a value of the wrong kind.
KIND_CASES = {
    **dict.fromkeys(("n_sim", "n_rand", "seed"), ("an integer", 2.5)),
    **dict.fromkeys(("alpha", "p0", "pk", "emax_ed50", "covariate_coef"),
                    ("a finite number", "0.5")),
    **dict.fromkeys(("covariate_in_analysis", "include_baseline_covariate",
                     "sort_by_baseline"), ("true or false", 1)),
    "name": ("a non-empty name without a path separator", "a/b"),
}


class TestConfigCheck:
    """Every command checks its config's keys and field kinds before it writes anything."""

    DESIGN = {"doses": [0.0, 10.0, 25.0], "procedure": "cr", "n": 3}

    @pytest.fixture
    def run_with(self, tiny_scenario, replay_config, two_arm_config, tmp_path, capsys):
        """Run ``command`` on its config with ``change``; returns (exit code, stderr).

        Asserts that the run wrote nothing: no output file and no stdout.
        """
        def run(command, change):
            out = tmp_path / "out"
            if command == "scenario":
                path, argv = tiny_scenario, ["simulate", "--out", str(out), "--workers", "1"]
            elif command == "replay":
                path, argv = replay_config(), ["simulate", "--out", str(out), "--workers", "1"]
            elif command == "analyze":
                trial = tmp_path / "trial.csv"
                write_two_arm_trial(trial, [1, 0, 1, 1, 0, 1, 0, 0])
                path, argv = two_arm_config, ["analyze", "--data", str(trial), "--out", str(out)]
            else:
                path = tmp_path / f"{command}.json"
                path.write_text(json.dumps(self.DESIGN))
                argv = [command] + (["--out", str(out)] if command != "counts" else [])
            config = json.loads(path.read_text())
            config.update(change)
            path.write_text(json.dumps(config))
            code = run_cli(*argv, "--config", str(path))
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            return code, captured.err

        return run

    @pytest.mark.parametrize("command, typo", [
        ("scenario", "typo_field"), ("replay", "alpah"), ("analyze", "pvalue_rlue"),
        ("contrasts", "arm_sizez"), ("counts", "weigths"), ("enumerate", "weigths"),
    ])
    def test_misspelled_key_exits_2_naming_it(self, run_with, command, typo):
        code, err = run_with(command, {typo: [1, 2, 2]})
        assert code == 2 and f"fields: ['{typo}']" in err

    @pytest.mark.parametrize("command", ["counts", "enumerate"])
    @pytest.mark.parametrize("field", KIND_CASES)
    def test_wrong_kind_exits_2_naming_the_field(self, run_with, command, field):
        # These commands read any format's config; the mistyped-field tests
        # above cover the scenario, replay and analysis formats.
        kind, bad = KIND_CASES[field]
        code, err = run_with(command, {field: bad})
        assert code == 2 and f"{field} must be {kind}, not {bad!r}" in err

    @pytest.mark.parametrize("command", ["counts", "enumerate", "scenario", "analyze"])
    @pytest.mark.parametrize("change, message", [
        ({"procedure": "cr", "weights": [1.5, 2, 2]}, "weights must list integers"),
        ({"procedure": "ra", "n": 5, "targets": [1.9, 2.1, 1]}, "targets must list integers"),
        ({"procedure": "pbd", "block": [1.0, 1, 1]}, "block must list integers"),
    ])
    def test_non_integer_design_counts_exit_2(self, run_with, command, change, message):
        change = {"doses": [0.0, 10.0, 25.0], "n": 3, **change}
        for other in {"targets", "block", "weights"} - set(change):
            change[other] = None
        code, err = run_with(command, change)
        assert code == 2 and message in err and "(1, 2" not in err

    def test_empty_scenario_methods_exit_2(self, run_with):
        code, err = run_with("scenario", {"methods": []})
        assert code == 2 and "at least one method" in err

    @pytest.mark.parametrize("command", ["scenario", "replay", "analyze", "contrasts"])
    def test_empty_candidates_exit_2(self, run_with, command):
        code, err = run_with(command, {"candidates": []})
        assert code == 2 and "at least one model" in err


def _pinned_json(path):
    """A summary or result JSON as written, minus wall-clock and library versions."""
    payload = json.loads(Path(path).read_text())
    payload.pop("timing", None)
    for key in ("randmcp_version", "numpy_version", "scipy_version"):
        payload["provenance"].pop(key)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sha256(text):
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


class TestPinnedOutputs:
    """Every command's output bytes with no override flag, pinned by sha256.

    The JSON files are compared without their ``timing`` block and
    library versions, which are outside the reproduction contract.
    """

    def test_simulate_scenario(self, tiny_scenario, tmp_path):
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(tiny_scenario), "--out", str(out),
                       "--workers", "1") == 0
        assert _sha256((out / "tiny_table.csv").read_bytes()) == PINNED["scenario_table"]
        assert _sha256(_pinned_json(out / "tiny_summary.json")) == PINNED["scenario_summary"]

    def test_simulate_replay(self, replay_config, tmp_path):
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(replay_config(methods=[
            {"id": "population", "df": 15}, "glm_mle", {"id": "residual_mle", "n_rand": 10}])),
            "--out", str(out), "--workers", "1") == 0
        assert _sha256((out / "demo_po_table.csv").read_bytes()) == PINNED["replay_table"]
        assert _sha256(_pinned_json(out / "demo_po_summary.json")) == PINNED["replay_summary"]

    def test_analyze_exact(self, tmp_path):
        grid = DoseGrid(doses=(0.0, 25.0, 100.0))
        rng = substream(5, 5)
        arms = rng.permutation(np.repeat(np.arange(3), 3))
        x = rng.normal(size=9)
        y = np.array([0, 1, 0, 1, 1, 0, 1, 1, 0], dtype=float)
        write_trial_csv(tmp_path / "trial.csv", TrialDataset(
            arms=arms, outcomes=y, covariates=x[:, None], grid=grid))
        cfg = tmp_path / "toy.json"
        cfg.write_text(json.dumps({"doses": list(grid.doses), "procedure": "ra", "n": 9,
                                   "targets": [3, 3, 3], "method": "residual_firth",
                                   "seed": 2}))
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(tmp_path / "trial.csv"), "--config", str(cfg),
                       "--exact", "--out", str(out)) == 0
        assert _sha256(_pinned_json(out)) == PINNED["analyze_exact"]

    @pytest.mark.parametrize("method", ["population", "glm_mle"])
    def test_analyze_single_fit(self, tmp_path, method):
        """The population JSON carries the fit summary, the glm_mle one its refits."""
        grid = DoseGrid(doses=(0.0, 10.0, 25.0, 100.0))
        rng = substream(7, 3)
        arms = rng.permutation(np.repeat(np.arange(4), 6))
        x = rng.normal(size=24)
        y = (rng.random(24) < 0.35 + 0.03 * arms + 0.1 * x).astype(float)
        write_trial_csv(tmp_path / "trial.csv", TrialDataset(
            arms=arms, outcomes=y, covariates=x[:, None], grid=grid))
        cfg = tmp_path / "trial.json"
        cfg.write_text(json.dumps({"doses": list(grid.doses), "procedure": "ra", "n": 24,
                                   "targets": [6, 6, 6, 6], "method": method,
                                   "n_rand": 50, "seed": 6}))
        out = tmp_path / "res.json"
        assert run_cli("analyze", "--data", str(tmp_path / "trial.csv"), "--config", str(cfg),
                       "--out", str(out)) == 0
        assert _sha256(_pinned_json(out)) == PINNED[f"analyze_{method}"]

    def test_contrasts_counts_enumerate(self, tmp_path, capsys):
        cfg = tmp_path / "design.json"
        cfg.write_text(json.dumps({"doses": [0.0, 10.0, 25.0, 100.0], "procedure": "pbd",
                                   "n": 7, "block": [1, 2, 2, 2]}))
        for command in ("contrasts", "counts", "enumerate"):
            assert run_cli(command, "--config", str(cfg)) == 0
            assert _sha256(capsys.readouterr().out) == PINNED[command], command
        assert run_cli("counts", "--preset", "n490_cr_trend") == 0
        assert _sha256(capsys.readouterr().out) == PINNED["counts_preset"]

    @pytest.mark.parametrize("replay", [False, True])
    def test_rand_override_changes_the_config_hash(self, tiny_scenario, replay_config,
                                                   tmp_path, replay):
        config = replay_config() if replay else tiny_scenario
        hashes = set()
        for n_rand in ("5", "12"):
            out = tmp_path / n_rand
            assert run_cli("simulate", "--config", str(config), "--out", str(out),
                           "--workers", "1", "--rand", n_rand) == 0
            summary = json.loads(next(out.glob("*_summary.json")).read_text())
            assert summary["config"]["n_rand"] == int(n_rand)
            hashes.add(summary["provenance"]["config_sha256"])
        assert len(hashes) == 2


PINNED = {
    "scenario_table": "af904e85aad7126640c62022d9eff4b5cd2b0762c2f5b0ae340d9d9ac3309af0",
    "scenario_summary": "cb340de310a7f63bec9720ed5253fa6694ae2a5c88328aa5dcd96dc562592ac9",
    "replay_table": "2a858664bf0f9734f55b231c84207b1230a8e272b76dc53a965640f730ab80b8",
    "replay_summary": "8bc583f80a0f8de23183ccb6a00d5910fa997085f21bb4f4b87f219f4f1870e7",
    # Re-pinned when the exact test stopped taking pvalue_rule "add_one", which it had
    # ignored: the config lost that key, so only config_sha256 moved.
    "analyze_exact": "03753826d5b2babdd72e479794451b4137e469955cfd0f433f70fa08a5a4d873",
    "analyze_population": "fea84c5670ba13ce1869bac77631e9f8aad3ae246676ec91f8550634256a6f28",
    "analyze_glm_mle": "2adfd0eaed418379ca648fafab17326c61a562755e7ac1aaf9d407e5500599f0",
    "contrasts": "9af62625d3dc2665ad8c80a4202f195cc2a535e8036f9c85daa18e133f452ab8",
    "counts": "60dfaee9d0a20f57df8cf053495279b63be2521d9867948f03f1da5606f55ed9",
    "enumerate": "fe76c339b051957e538435d5dc52d83477f380c7f5ebeaa4ff09cd440599fc21",
    "counts_preset": "841a937e9618ca818b3177bd93d3559115f8f56e254d5a7d627c2ff9cbd296e8",
}
