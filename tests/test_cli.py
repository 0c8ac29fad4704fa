import json
import math
from pathlib import Path

import numpy as np
import pytest

from randmcp import cli, simulate
from randmcp.cli import main
from randmcp.data import TrialDataset, write_potential_outcomes_csv, write_trial_csv
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

    def test_unknown_replay_config_field_exits_2(self, replay_config, tmp_path, capsys):
        assert run_cli("simulate", "--config", str(replay_config(alpah=0.5)),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert "alpah" in capsys.readouterr().err
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

    @pytest.mark.parametrize("change, field", [
        ({"typo_field": 3}, "typo_field"),
        ({"methods": [{"id": "glm_mle", "bogus": 1}]}, "bogus"),
    ])
    def test_unknown_config_field_exits_2(self, tiny_scenario, tmp_path, capsys, change, field):
        config = json.loads(tiny_scenario.read_text())
        config.update(change)
        tiny_scenario.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(tiny_scenario),
                       "--out", str(tmp_path / "o"), "--workers", "1") == 2
        assert field in capsys.readouterr().err
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

    def test_default_worker_count_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("RANDMCP_WORKERS", raising=False)
        monkeypatch.setattr(cli, "available_cpus", lambda: 3)
        assert cli._worker_count(None) == 3
        monkeypatch.setenv("RANDMCP_WORKERS", "2")
        assert cli._worker_count(None) == 2
        assert cli._worker_count(5) == 5

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
