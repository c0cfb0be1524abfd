"""Experiment runner: spec validation, determinism, exit codes, catalog."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nadqec import cli
from nadqec.cli import (
    CATALOG,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    ExperimentSpec,
    list_experiments,
)


def write_spec(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path


def multiqec_payload(tmp_path: Path) -> dict:
    return {
        "kind": "multiqec",
        "seed": 3,
        "output": str(tmp_path / "out.csv"),
        "params": {"theta": math.pi, "max_delay": 30.0,
                   "total_free": [30.0, 60.0], "t1": 220.0, "t2": 440.0},
    }


class TestSpecLoading:
    def test_valid_spec(self, tmp_path):
        spec = ExperimentSpec.load(write_spec(tmp_path, multiqec_payload(tmp_path)))
        assert spec.kind == "multiqec"
        assert spec.seed == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentSpec.load(tmp_path / "nope.json")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "multiqec",\n  broken\n}')
        with pytest.raises(ConfigError, match=r":2:"):
            ExperimentSpec.load(path)

    def test_unknown_kind(self, tmp_path):
        payload = multiqec_payload(tmp_path)
        payload["kind"] = "frobnicate"
        with pytest.raises(ConfigError, match="unknown kind"):
            ExperimentSpec.load(write_spec(tmp_path, payload))

    def test_missing_field_named(self, tmp_path):
        payload = multiqec_payload(tmp_path)
        del payload["params"]["t1"]
        with pytest.raises(ConfigError, match="t1"):
            ExperimentSpec.load(write_spec(tmp_path, payload))


class TestRun:
    def test_multiqec_writes_csv_and_manifest(self, tmp_path):
        path = write_spec(tmp_path, multiqec_payload(tmp_path))
        assert cli.main(["run", str(path)]) == EXIT_OK
        out = tmp_path / "out.csv"
        lines = out.read_text().splitlines()
        assert lines[0].startswith("total_evolution_us,fidelity")
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["kind"] == "multiqec"
        assert manifest["seed"] == 3
        assert manifest["rng"] == "PCG64"
        assert "version" in manifest and "wall_time_s" in manifest

    def test_byte_identical_reruns(self, tmp_path):
        path = write_spec(tmp_path, multiqec_payload(tmp_path))
        cli.main(["run", str(path)])
        first = (tmp_path / "out.csv").read_bytes()
        cli.main(["run", str(path)])
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_config_error_exit_code(self, tmp_path):
        payload = multiqec_payload(tmp_path)
        del payload["params"]["max_delay"]
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG

    def test_numerical_error_exit_code(self, tmp_path):
        # T1 = 0.5 us damps a 30 us delay to gamma = 1: post-selection keeps
        # no weight
        payload = multiqec_payload(tmp_path)
        payload["params"]["t1"] = 0.5
        payload["params"]["t2"] = 1.0
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_NUMERICAL

    @pytest.mark.parametrize("field,value,named", [
        ("t1", -5.0, "t1"), ("t1", math.nan, "t1"), ("t1", "abc", "t1"),
        ("t2", 1000.0, "T2"), ("e_meas", 0.7, "e_meas"),
        ("e_meas", 0.02, "e_meas")])
    def test_invalid_noise_is_config_error(self, tmp_path, field, value, named,
                                           capsys):
        payload = multiqec_payload(tmp_path)
        payload["params"][field] = value
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind,t1,n", [
        ("multiqec", [220.0, 200.0], 3), ("multiqec-chadd", [220.0] * 3, 4)])
    def test_per_qubit_t1_must_cover_the_register(self, tmp_path, capsys,
                                                  kind, t1, n):
        payload = {
            "kind": kind,
            "output": str(tmp_path / "out.csv"),
            "params": {"theta": 1.0, "max_delay": 30.0, "total_free": [30.0],
                       "t1": t1},
        }
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert f"t1 has {len(t1)} per-qubit values for a {n}-qubit register" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("kind,field,value", [
        ("multiqec", "theta", "abc"), ("multiqec", "total_free", 30),
        ("multiqec", "max_delay", "x"), ("multiqec", "total_free", ["a"]),
        ("delay-sweep", "delays", 30), ("multiqec", "total_free", [-5.0])])
    def test_bad_protocol_param_is_config_error(self, tmp_path, capsys, kind,
                                                field, value):
        params = {"total_free": [30.0], "t1": 220.0}
        params.update({"delays": [30.0]} if kind == "delay-sweep"
                      else {"theta": 1.0, "max_delay": 30.0})
        params[field] = value
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": params}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_failed_run_leaves_no_output_directory(self, tmp_path):
        payload = multiqec_payload(tmp_path)
        payload["output"] = str(tmp_path / "newdir" / "out.csv")
        payload["params"]["theta"] = "abc"
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert not (tmp_path / "newdir").exists()

    @pytest.mark.parametrize("kind,recovery,code", [
        ("multiqec", "ideal", EXIT_CONFIG), ("multiqec", "approximate", EXIT_OK),
        ("multiqec-chadd", "ideal", EXIT_CONFIG)])
    def test_ideal_recovery_needs_equal_t1(self, tmp_path, capsys, kind,
                                           recovery, code):
        t1 = [100.0, 300.0, 300.0] + [300.0] * (kind == "multiqec-chadd")
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 1.0, "max_delay": 30.0,
                              "total_free": [30.0], "t1": t1,
                              "recovery": recovery}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == code
        if code == EXIT_CONFIG:
            assert "ideal recovery adapts to one T1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,params", [
        ("multiqec-chadd", {"theta": 1.0, "max_delay": 30.0,
                            "total_free": [30.0], "t1": 220.0}),
        ("crosstalk-toy", {"t1": 100.0})])
    def test_removed_steps_per_interval_rejected(self, tmp_path, kind, params):
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": dict(params, steps_per_interval=60)}
        path = write_spec(tmp_path, payload)
        with pytest.raises(ConfigError, match="steps_per_interval"):
            ExperimentSpec.load(path)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG

    def test_unknown_param_rejected(self, tmp_path):
        payload = multiqec_payload(tmp_path)
        payload["params"]["max_dealy"] = 10.0
        with pytest.raises(ConfigError, match="max_dealy"):
            ExperimentSpec.load(write_spec(tmp_path, payload))

    def test_synth_restarts_column_counts_every_level(self, tmp_path):
        # seed 10, two restarts: the 3-layer encoder level spends both
        # starts and fails, then 4 layers converge on the first start
        payload = {"kind": "synth", "seed": 10,
                   "output": str(tmp_path / "synth.csv"),
                   "params": {"restarts": 2}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        rows = {r.split(",")[0]: r.split(",")
                for r in (tmp_path / "synth.csv").read_text().splitlines()[1:]}
        assert rows["encoder"][2:] == ["8", "3"]

    @pytest.mark.parametrize("restarts", [0, -1, "2", 1.5, True])
    def test_synth_restarts_validated(self, tmp_path, restarts):
        payload = {"kind": "synth", "output": str(tmp_path / "synth.csv"),
                   "params": {"restarts": restarts}}
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "synth.csv").exists()

    @pytest.mark.parametrize("kind,field,value", [
        ("multiqec-chadd", "spectators", "x"),
        ("multiqec-chadd", "spectators", -1),
        ("multiqec-chadd", "couplings", [[0, "3", 0.05]]),
        ("multiqec-chadd", "couplings", [[0, 3]]),
        ("gain-surface", "t1_range", 100),
        ("gain-surface", "emeas_range", ["x"]),
        ("gain-surface", "delay_range", 10.0),
        ("gain-surface", "theta", "x"),
        ("crosstalk-toy", "t_final", "x"),
        ("crosstalk-toy", "cycles", 0),
        ("crosstalk-toy", "omega1", "x"),
        ("crosstalk-toy", "omega2", math.inf),
        ("crosstalk-toy", "g", None),
        ("oracle-check", "theta_points", "x"),
        ("synth", "seed", "x"),
        ("synth", "seed", 1.5),
        ("multiqec-chadd", "couplings", [[0, 9, 0.05]]),
        ("multiqec-chadd", "couplings", [[-1, 3, 0.05]]),
        ("multiqec-chadd", "couplings", [[2, 2, 0.05]]),
        ("multiqec-chadd", "spectators", 5),
        ("gain-surface", "t1_range", []),
        ("gain-surface", "t1_range", [100.0, 0.0]),
        ("gain-surface", "t1_range", [-50.0]),
        ("gain-surface", "emeas_range", []),
        ("gain-surface", "emeas_range", [0.6]),
        ("gain-surface", "emeas_range", [-0.01]),
        ("gain-surface", "delay_range", []),
        ("gain-surface", "delay_range", [10.0, -1.0]),
        ("crosstalk-toy", "t_final", 0.0),
        ("crosstalk-toy", "t_final", -60.0)])
    def test_bad_field_of_other_kinds_is_config_error(self, tmp_path, capsys,
                                                       kind, field, value):
        params = {"multiqec-chadd": {"theta": 1.0, "max_delay": 30.0,
                                     "total_free": [30.0], "t1": 220.0},
                  "gain-surface": {"t1_range": [100.0], "emeas_range": [0.01],
                                   "delay_range": [10.0]},
                  "crosstalk-toy": {"t1": 100.0},
                  "oracle-check": {},
                  "synth": {"restarts": 1}}[kind]
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": params}
        (payload if field == "seed" else params)[field] = value
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_delay_sweep(self, tmp_path):
        payload = {
            "kind": "delay-sweep",
            "output": str(tmp_path / "sweep.csv"),
            "params": {"delays": [10.0, 30.0], "total_free": [60.0, 120.0],
                       "t1": 220.0, "t2": 440.0},
        }
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_crosstalk_toy(self, tmp_path):
        payload = {
            "kind": "crosstalk-toy",
            "output": str(tmp_path / "toy.csv"),
            "params": {"t1": 100.0, "t_final": 16.0, "cycles": 2},
        }
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        text = (tmp_path / "toy.csv").read_text()
        assert "probe,sequence,time_us" in text.splitlines()[0]
        assert "chadd" in text and "free" in text

    @pytest.mark.parametrize("noise", [
        {"t1": [50.0, 90.0], "tphi": [80.0, 150.0]}, {"t1": [100.0]}])
    def test_crosstalk_toy_per_qubit_noise(self, tmp_path, noise):
        payload = {"kind": "crosstalk-toy", "output": str(tmp_path / "toy.csv"),
                   "params": noise}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK

    def test_crosstalk_toy_instant_relaxation(self, tmp_path):
        # T1 = 1e-300 us: every sample after t = 0 is fully relaxed to |00>
        payload = {"kind": "crosstalk-toy", "output": str(tmp_path / "toy.csv"),
                   "params": {"t1": 1e-300}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        rows = [r.split(",") for r in
                (tmp_path / "toy.csv").read_text().splitlines()[1:]]
        later = [r for r in rows if float(r[2]) > 0]
        assert later and all(r[3:5] == ["1", "0"] for r in later)

    def test_huge_coupling_has_no_traceback(self, tmp_path, capsys):
        payload = {"kind": "multiqec-chadd", "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 1.0, "max_delay": 30.0,
                              "total_free": [30.0, 60.0], "t1": 220.0,
                              "couplings": [[0, 3, 1e300]]}}
        code = cli.main(["run", str(write_spec(tmp_path, payload))])
        assert code in (EXIT_OK, EXIT_CONFIG)
        assert "Traceback" not in capsys.readouterr().err

    def test_delay_beyond_every_lifetime_ends_at_once(self, tmp_path, capsys):
        # gamma = 1 over a 1e9 us delay: the propagator's cost does not grow
        # with the duration, and post-selection then keeps no weight
        payload = {"kind": "multiqec-chadd", "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 1.0, "max_delay": 1e9,
                              "total_free": [1e9], "t1": 220.0}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_NUMERICAL
        assert "post-selection removed all weight" in capsys.readouterr().err

    def test_gain_surface(self, tmp_path):
        payload = {
            "kind": "gain-surface",
            "output": str(tmp_path / "gain.csv"),
            "params": {"t1_range": [150.0, 250.0], "emeas_range": [0.0, 0.01],
                       "delay_range": [20.0, 40.0]},
        }
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        rows = (tmp_path / "gain.csv").read_text().splitlines()
        assert rows[0] == "T1_us,E_meas,delay_us,gain,F_qec,F_bare,p_success,seed"
        assert len(rows) == 1 + 8

    def test_oracle_check(self, tmp_path):
        payload = {
            "kind": "oracle-check",
            "output": str(tmp_path / "oracle.csv"),
            "params": {"theta_points": 4, "gamma_points": 4},
        }
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        rows = (tmp_path / "oracle.csv").read_text().splitlines()
        assert len(rows) == 1 + 16
        worst = max(float(r.split(",")[4]) for r in rows[1:])
        assert worst < 1e-10

    def test_ten_digit_precision(self, tmp_path):
        path = write_spec(tmp_path, multiqec_payload(tmp_path))
        cli.main(["run", str(path)])
        row = (tmp_path / "out.csv").read_text().splitlines()[1]
        fid = row.split(",")[1]
        assert len(fid.replace(".", "").replace("-", "").lstrip("0")) <= 10


class TestCatalog:
    def test_seven_kinds(self):
        assert len(CATALOG) == 7

    def test_listing_mentions_figures_and_fields(self):
        text = list_experiments()
        for kind, entry in CATALOG.items():
            assert kind in text
            assert entry.figure in text

    def test_json_listing(self):
        data = json.loads(list_experiments(as_json=True))
        assert set(data) == set(CATALOG)
        for entry in data.values():
            assert {"required", "figure", "description"} <= set(entry)

    def test_list_command(self, capsys):
        assert cli.main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "multiqec" in out

    def test_module_run_with_warnings_as_errors(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nadqec.cli", "list"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestCheck:
    def test_check_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["check"]) == EXIT_OK
        assert list(tmp_path.iterdir()) == []
