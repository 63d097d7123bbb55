import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icfpie
from icfpie import harness
from icfpie.cli import EXIT_CONFIG, EXIT_NUMERICS, EXIT_OK, main, parse_sweep, simulate_entry
from icfpie.errors import ConfigurationError, FilterNumericsError

FAST_CFG = """
n_nodes = 6
horizon = 2.0
runs = 1
seed = 3
"""


def write_cfg(tmp_path, text=FAST_CFG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestParseSweep:
    def test_range(self):
        assert parse_sweep("1..5") == [1, 2, 3, 4, 5]

    def test_comma_list(self):
        assert parse_sweep("2,4,8") == [2, 4, 8]

    def test_invalid(self):
        for spec in ("0..3", "abc", "a..3", "1..3..5", "2.5"):
            with pytest.raises(ConfigurationError, match="invalid sweep spec"):
                parse_sweep(spec)


class TestSimulateCommand:
    def test_timeseries_run(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", write_cfg(tmp_path),
                     "--consensus-steps", "4", "--out", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "timeseries.csv").exists()
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["mode"] == "timeseries"
        assert meta["L"] == 4
        assert meta["config"]["n_nodes"] == 6

    def test_sweep_run(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", write_cfg(tmp_path),
                     "--sweep", "2,4", "--out", str(out_dir)])
        assert code == EXIT_OK
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "L,alg,case,final_error,total_scalars"
        assert len(lines) == 1 + 2 * 4

    def test_case_flag_selects_schedule(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", write_cfg(tmp_path), "--case", "2",
                     "--consensus-steps", "4", "--out", str(out_dir)])
        assert code == EXIT_OK
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["config"]["selection"] == "case2"

    @pytest.mark.parametrize("line, selection", [
        ("case = 2", "case2"), ('case = "2"', "case2"), ("case = identity", "identity")])
    def test_case_in_a_file_takes_the_flag_values(self, tmp_path, line, selection):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", write_cfg(tmp_path, FAST_CFG + line + "\n"),
                     "--consensus-steps", "4", "--out", str(out_dir)])
        assert code == EXIT_OK
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["config"]["selection"] == selection

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_bad_config_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_nodes = 0\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_flag_exits_with_config_code(self, capsys):
        assert main(["simulate", "--bogus"]) == EXIT_CONFIG

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        # every run fails numerically, so run_monte_carlo's 5% rule trips
        def failing_run(*args, **kwargs):
            raise FilterNumericsError("non-finite information matrix in predict")
        monkeypatch.setattr(harness, "run_once", failing_run)
        code = main(["simulate", "--config", write_cfg(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICS

    @pytest.mark.parametrize("text, message", [
        # seed 0 places a node with 6 neighbours, so eps may be at most 1/6
        ("eps = 0.3\nruns = 1\nseed = 0\n", "eps = 0.3 is outside"),
        ("comm_range = 3OO\n", "comm_range must be a finite number"),
        ("horizon = 1e999\n", "horizon must be a finite number"),
        ("q_diag = [10.0, 10.0]\n", "q_diag must be 4 finite numbers"),
        ("r_diag = [25.0, 25.0, 1.0]\n", "r_diag must be 2 finite numbers"),
        ("region = [0.0, 600.0, 0.0]\n", "region must be 4 finite numbers"),
        ("region = [600.0, 0.0, 0.0, 600.0]\n", "region must be ordered"),
        ("n_nodes = 1\n", "n_nodes must be >= 2, got 1"),
        ("runs = 2.5\n", "mc_runs must be an integer"),
        ("sensing_range = -1.0\n", "sensing_range must be > 0"),
        ("comm_range = -5.0\n", "comm_range must be > 0"),
        ("horizon = 0.04\n", "horizon = 0.04 with dt = 0.1 gives 0 steps"),
        ("q_diag = [10.0, 10.0, 0.0, 1.0]\n", "q_diag entries must be > 0"),
        ("r_diag = [25.0, -25.0]\n", "r_diag entries must be > 0"),
        ("speed_range = [15.0, 10.0]\n", "speed_range must be ordered"),
        ("heading_range = [2.0, 1.0]\n", "heading_range must be ordered"),
        ("speed_variance = -0.25\n", "speed_variance must be >= 0"),
        ("initial_estimate = [100.0, -50.0, 3.0, 1.0]\n", "config key initial_estimate"),
        ("truth_noise = process\n", "config key truth_noise"),
        ("error_metric = position\n", "config key error_metric"),
        ("max_placement_retries = 5\n", "config key max_placement_retries"),
        # every malformed selection fails at config time and names the key;
        # float, bool and string indices are refused, not coerced by int()
        ("selection = 5\n", "selection = 5: subsets must be a list of index lists"),
        ("case = 3\n", "selection = 3: subsets must be a list of index lists"),
        ("selection = [1, 2]\n", "selection = [1, 2]: subsets must be a list of index lists"),
        ("selection = [[1, 'a'], [2, 3, 4]]\n", "non-integer indices ['a']"),
        ("selection = [[1.5, 3], [2, 4]]\n", "selection = [[1.5, 3], [2, 4]]: subset"),
        ("selection = [[True, 3], [2, 4]]\n", "non-integer indices [True]"),
        ("selection = [['1', '3'], ['2', '4']]\n", "non-integer indices ['1', '3']"),
        ("selection = case3\n", "selection = 'case3': unknown schedule kind 'case3'"),
        # a key set twice, under its own name or an alias, is refused
        ("L = 4\nconsensus_steps = 8\n",
         "L is set twice, by L on line 1 and by consensus_steps on line 2"),
        ("mc_runs = 1\nruns = 3\n",
         "mc_runs is set twice, by mc_runs on line 1 and by runs on line 2"),
    ])
    def test_bad_config_exits_with_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("meta, message", [
        ({"mode": "sweep"}, "L_values must be a non-empty list of integers >= 1, got None"),
        ({"mode": "sweep", "L_values": "ab"}, "got 'ab'"),
        ({"mode": "sweep", "L_values": 5}, "got 5"),
        ({"mode": "sweep", "L_values": [True, 2.5]}, "got [True, 2.5]"),
        ({"config": 5}, "config must be a JSON object, got 5"),
        # the top-level L that a timeseries run records beside its config
        ({"mode": "timeseries", "L": 9}, "L = 9 contradicts config L = 12"),
    ], ids=["no_L_values", "string_L_values", "scalar_L_values", "bool_and_float_L_values",
            "config_not_an_object", "L_contradicts_config"])
    def test_malformed_metadata_exits_with_one_line(self, tmp_path, capsys, meta, message):
        path = tmp_path / "metadata.json"
        path.write_text(json.dumps({"config": {"n_nodes": 6, "horizon": 2.0, "mc_runs": 1},
                                    **meta}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_out_blocked_by_a_file_exits_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started although --out can never be written")
        monkeypatch.setattr(harness, "run_once", no_run)
        blocker = tmp_path / "out"
        blocker.write_text("keep")
        for out in (blocker, blocker / "sub"):
            assert main(["simulate", "--config", write_cfg(tmp_path), "--out", str(out)]) \
                == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{blocker} exists and is not a directory" in err
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("flags, name", [
        ([], "timeseries.csv"), ([], "metadata.json"),
        (["--sweep", "2"], "sweep.csv"), (["--sweep", "2"], "metadata.json")])
    def test_output_that_is_a_directory_exits_before_any_run(self, tmp_path, capsys,
                                                            monkeypatch, flags, name):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started although an output can never be written")
        monkeypatch.setattr(harness, "run_once", no_run)
        blocker = tmp_path / "out" / name
        blocker.mkdir(parents=True)
        assert main(["simulate", "--config", write_cfg(tmp_path), *flags,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{blocker} is a directory" in err
        assert blocker.is_dir() and not any(blocker.iterdir())

    def test_unwritable_output_exits_with_one_line(self, tmp_path, capsys):
        # a dangling link passes every check before the run; writing
        # through it fails only after the run
        out = tmp_path / "out"
        out.mkdir()
        (out / "timeseries.csv").symlink_to(tmp_path / "missing" / "timeseries.csv")
        assert main(["simulate", "--config", write_cfg(tmp_path), "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert "timeseries.csv" in err and "Traceback" not in err

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        assert main(["simulate", "--config", write_cfg(tmp_path), "--jobs", "0",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_bare_simulate_entry(self, tmp_path):
        out_dir = tmp_path / "out"
        code = simulate_entry(["--config", write_cfg(tmp_path),
                               "--consensus-steps", "4", "--runs", "1",
                               "--out", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "timeseries.csv").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_package_warning_prints_one_line(self, tmp_path, jobs):
        # L = 3 is not a whole number of case 1's 2-step cycle; the suite's
        # config ignores that warning in-process, so the command runs alone.
        # A chunk holds 29 of these seeds (13 slices each), so 30 runs are
        # two chunks, and --jobs 2 starts two workers. Each pool worker
        # warns in its own process, and the command prints the line once
        # all the same: stderr does not depend on --jobs
        cfg = harness.load_config(write_cfg(tmp_path))[0]
        cfg = dataclasses.replace(cfg, L=3, mc_runs=30)
        assert len(harness._chunks(cfg, harness.make_algorithms(cfg), 1)) == 2
        src = str(Path(icfpie.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("PYTHONWARNINGS", None)
        out = subprocess.run([sys.executable, "-m", "icfpie", "simulate",
                              "--config", write_cfg(tmp_path), "--consensus-steps", "3",
                              "--runs", "30", "--jobs", jobs, "--out", str(tmp_path / "out")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == EXIT_OK, out.stderr
        assert out.stderr.splitlines() == [
            "ConsensusCycleWarning: consensus with L = 3 steps is not a multiple of the 2-step "
            "selection cycle of subsets ((1, 3), (2, 4)); posterior rows are mixed across "
            "cycle phases"], out.stderr

    def test_rerun_from_metadata_reproduces_csv(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        cfg = write_cfg(tmp_path)
        assert main(["simulate", "--config", cfg, "--consensus-steps", "4",
                     "--out", str(first)]) == EXIT_OK
        assert main(["simulate", "--config", str(first / "metadata.json"),
                     "--out", str(second)]) == EXIT_OK
        assert (first / "timeseries.csv").read_bytes() == \
            (second / "timeseries.csv").read_bytes()

    @pytest.mark.parametrize("spec", ["2,4", "4,2,4"])
    def test_rerun_sweep_from_metadata(self, tmp_path, spec):
        # a grid given out of order or with repeats is sorted and deduplicated
        # once, so metadata.json records the grid that sweep.csv holds
        first = tmp_path / "a"
        second = tmp_path / "b"
        cfg = write_cfg(tmp_path)
        assert main(["simulate", "--config", cfg, "--sweep", spec,
                     "--out", str(first)]) == EXIT_OK
        assert main(["simulate", "--config", str(first / "metadata.json"),
                     "--out", str(second)]) == EXIT_OK
        rows = (first / "sweep.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [2] * 4 + [4] * 4
        assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()

    def test_metadata_with_retired_keys_at_old_defaults_reruns(self, tmp_path):
        # metadata.json files written before four config keys were retired
        # carry them at their defaults; such a file still reproduces its CSV
        first = tmp_path / "a"
        assert main(["simulate", "--config", write_cfg(tmp_path), "--consensus-steps", "4",
                     "--out", str(first)]) == EXIT_OK
        meta = json.loads((first / "metadata.json").read_text())
        meta["config"].update(initial_estimate=[0.0, 0.0, 0.0, 0.0], truth_noise="speed",
                              error_metric="full", max_placement_retries=200)
        old = tmp_path / "old_metadata.json"
        old.write_text(json.dumps(meta, indent=2, sort_keys=True))
        second = tmp_path / "b"
        assert main(["simulate", "--config", str(old), "--out", str(second)]) == EXIT_OK
        assert (first / "timeseries.csv").read_bytes() == \
            (second / "timeseries.csv").read_bytes()
        rewritten = json.loads((second / "metadata.json").read_text())["config"]
        assert "initial_estimate" not in rewritten
