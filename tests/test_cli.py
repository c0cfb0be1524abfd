"""Experiment runner: spec validation, determinism, exit codes, catalog."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from multiqec_reference import run_multiqec_mpmath
from oracle_reference import oracle_fidelity_multiround

from nadqec import cli, code3, protocol, synth
from nadqec.circuits import Circuit
from nadqec.cli import (
    CATALOG,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    ExperimentSpec,
    list_experiments,
)
from nadqec.code3 import (
    LogicalStateSpec,
    RecoveryMap,
    encode_ideal,
    qec_cycle,
)
from nadqec.noise import NoiseParams, gamma_of_t


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

    @pytest.mark.parametrize("case", [
        "top-level number", "top-level null", "top-level list", "params null",
        "params list", "kind list", "non-UTF-8", "nested too deeply", "directory",
        "output NUL", "output surrogate", "output name too long"])
    def test_malformed_spec_is_config_error(self, tmp_path, capsys, case):
        # each once ended in a traceback (exit 1) or, for an output the file
        # system cannot take, in a numerical failure (exit 3)
        payload = multiqec_payload(tmp_path)
        body = {
            "top-level number": b"5",
            "top-level null": b"null",
            "top-level list": b'["kind", "output"]',
            "params null": {**payload, "params": None},
            "params list": {**payload,
                            "params": ["theta", "max_delay", "total_free", "t1"]},
            "kind list": {**payload, "kind": ["x"]},
            "non-UTF-8": b'{"kind": "\xff"}',
            "nested too deeply": b"[" * 10**5 + b"]" * 10**5,
            "directory": None,
            "output NUL": {**payload, "output": str(tmp_path / "a\0b.csv")},
            "output surrogate": {**payload, "output": str(tmp_path / "a\ud800.csv")},
            "output name too long": {**payload, "output": str(tmp_path / ("a" * 5000))},
        }[case]
        path = tmp_path / "spec.json"
        if body is None:
            path.mkdir()
        else:
            path.write_bytes(body if isinstance(body, bytes)
                             else json.dumps(body).encode())
        with pytest.raises(ConfigError) as info:
            ExperimentSpec.load(path)
        assert str(info.value).startswith(f"{path}: ")
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and "Traceback" not in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["spec.json"]

    @pytest.mark.parametrize("key", ["parms", "sed", "Seed", "outputs"])
    def test_unknown_top_level_field_is_config_error(self, tmp_path, capsys, key):
        # each once ran with defaults and exited 0: a misspelt params left
        # oracle-check at its default grid, a misspelt seed ran at seed 0
        out = tmp_path / "oracle.csv"
        payload = {"kind": "oracle-check", "output": str(out),
                   "params": {"theta_points": 2, "gamma_points": 2}}
        if key == "parms":
            payload["parms"] = payload.pop("params")
        else:
            payload[key] = str(tmp_path / "other.csv") if key == "outputs" else 4
        path = write_spec(tmp_path, payload)
        with pytest.raises(ConfigError, match=f"top-level field.*'{key}'"):
            ExperimentSpec.load(path)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["spec.json"]

    @pytest.mark.parametrize("field", ["t1", "tphi", "t2"])
    def test_lifetime_without_a_finite_rate_fails_in_load(self, tmp_path, field):
        # 1/5e-324 overflows: the table, not a runner, rejects the lifetime
        payload = multiqec_payload(tmp_path)
        payload["params"].pop("t2")
        payload["params"][field] = 5e-324
        with pytest.raises(ConfigError, match=rf"'{field}' must be a number > "
                                              rf"5\.6e-309 \(1/T finite.* got 5e-324$"):
            ExperimentSpec.load(write_spec(tmp_path, payload))
        payload["params"][field] = 6e-309  # just above 1/max float: valid
        ExperimentSpec.load(write_spec(tmp_path, payload))

    def test_constructed_spec_is_checked_and_resolved(self, tmp_path):
        # a spec built in code meets the field table as a loaded one does;
        # runners read the defaults, the manifest echoes the given params
        out = tmp_path / "oracle.csv"
        with pytest.raises(ConfigError,
                           match="'theta_points' must be an integer from 1 to 100"):
            ExperimentSpec("oracle-check", {"theta_points": 0}, str(out))
        with pytest.raises(ConfigError, match="'seed' must be an integer >= 0"):
            ExperimentSpec("oracle-check", {}, str(out), seed=-1)
        spec = ExperimentSpec("oracle-check", {"theta_points": 3}, str(out))
        assert spec.resolved["theta_points"] == 3
        assert spec.resolved["gamma_points"] == cli.FIELDS["gamma_points"].default
        assert cli.run(spec) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 3 * 10
        manifest = json.loads((tmp_path / "oracle.csv.manifest.json").read_text())
        assert manifest["params"] == {"theta_points": 3}


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

    @pytest.mark.parametrize("kind", ["multiqec", "multiqec-chadd", "delay-sweep"])
    def test_empty_sweep_writes_a_header_only_csv(self, tmp_path, kind):
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": dict(_FUZZ_BASE[kind], total_free=[])}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 1 and "total_evolution_us" in lines[0].split(",")

    def test_byte_identical_reruns(self, tmp_path):
        path = write_spec(tmp_path, multiqec_payload(tmp_path))
        cli.main(["run", str(path)])
        first = (tmp_path / "out.csv").read_bytes()
        cli.main(["run", str(path)])
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_trillion_rounds_finish_at_once(self, tmp_path):
        # 1e9 us in 1 ns rounds is 1e12 rounds, one closed-form power
        payload = multiqec_payload(tmp_path)
        payload["params"].update(max_delay=1e-3, total_free=[1e9])
        path = write_spec(tmp_path, payload)
        start = time.perf_counter()
        assert cli.main(["run", str(path)]) == EXIT_OK
        assert time.perf_counter() - start < 1.0
        row = dict(zip(*(line.split(",") for line in
                         (tmp_path / "out.csv").read_text().splitlines())))
        assert int(row["rounds"]) == 10**12
        # the closed form with G = k gamma^2: one gamma of sqrt(k) gamma, since
        # a list of 1e12 gammas cannot be built
        want = oracle_fidelity_multiround(math.pi, [1e6 * gamma_of_t(1e-3, 220.0)])
        assert abs(float(row["fidelity"]) / want - 1) <= 1e-3
        assert float(row["success_probability"]) == 0.0  # underflows; F does not

    def test_config_error_exit_code(self, tmp_path):
        payload = multiqec_payload(tmp_path)
        del payload["params"]["max_delay"]
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG

    def test_numerical_error_exit_code(self, tmp_path):
        # T1 = 1e-308 us: 30 us over T1 overflows to inf, gamma = 1 exactly,
        # and post-selection keeps no weight; at T1 = 0.5 us (60 T1) the
        # round is defined
        payload = multiqec_payload(tmp_path)
        payload["params"]["t1"] = 1e-308
        payload["params"]["t2"] = 2e-308
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_NUMERICAL
        payload["params"].update(t1=0.5, t2=1.0)
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK

    @pytest.mark.parametrize("kind,params,message", [
        # 6e324 rounds: the evolution time exceeds the largest float,
        # 1.7976931348623157e+308 us
        ("multiqec", {"t2": 440.0, "max_delay": 5e-324}, "exceeds 1"),
        ("delay-sweep", {"t2": 440.0, "delays": [5e-324]}, "exceeds 1"),
    ])
    def test_extreme_round_counts_exit_numerical(self, tmp_path, capsys, kind,
                                                 params, message):
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 3.14159, "t1": 220.0,
                              "total_free": [0, 30], **params}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure in '{kind}'")
        assert message in err and err.count("\n") == 1
        assert "total evolution time" in err and "largest float" in err

    @pytest.mark.parametrize("params,digits", [
        # 3e301 rounds of 1e-300 us, which 60 digits cannot resolve
        ({"t2": 440.0, "max_delay": 1e-300}, 360),
        # 1e17 to 3e21 rounds, and 1e13 to 3e17
        ({"t2": 300.0, "max_delay": 1e-20, "total_free": [1e-3, 1, 30]}, 60),
        ({"t2": 300.0, "max_delay": 1e-16, "total_free": [1e-3, 1, 30]}, 60),
    ], ids=["max_delay-1e-300", "max_delay-1e-20", "max_delay-1e-16"])
    def test_extreme_round_counts_are_exact(self, tmp_path, params, digits):
        # the closed-form power is exact at any round count: each printed
        # value is the 60-digit (or finer) mpmath one to its 10 digits
        payload = {"kind": "multiqec", "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 3.14159, "t1": 220.0,
                              "total_free": [0, 30], **params}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        want = run_multiqec_mpmath(3.14159, params["max_delay"],
                                   payload["params"]["total_free"],
                                   NoiseParams.from_t1_t2(220.0, params["t2"]), 220.0,
                                   digits)
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        assert len(rows) == len(want)
        for row, (fid, prob) in zip(rows, want):
            cells = row.split(",")
            assert float(cells[1]) == pytest.approx(float(fid), rel=1e-9)
            assert float(cells[2]) == pytest.approx(float(prob), rel=1e-9)

    @pytest.mark.parametrize("field,value,named", [
        ("t1", -5.0, "t1"), ("t1", math.nan, "t1"), ("t1", "abc", "t1"),
        ("t2", 1000.0, "T2"), ("e_meas", 0.7, "e_meas"),
        ("e_meas", 0.02, "e_meas"), ("t1", True, "'t1'"), ("t2", True, "'t2'"),
        ("tphi", True, "'tphi'"), ("t1", [True, True, True], "'t1'"),
        ("tphi", "abc", "'tphi'"), ("t1", None, "'t1'"),
        ("tphi", 1.0, "'t2' and 'tphi'"),
        ("t2", 5e-324, "'t2' must be a number > 5.6e-309 (1/T finite")])
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
        ("delay-sweep", "delays", 30), ("multiqec", "total_free", [-5.0]),
        ("multiqec", "recovery", "synthesized"),
        ("multiqec-chadd", "recovery", ["ideal"])])
    def test_bad_protocol_param_is_config_error(self, tmp_path, capsys, kind,
                                                field, value):
        params = {"total_free": [30.0], "t1": 220.0}
        params.update({"delays": [30.0]} if kind == "delay-sweep"
                      else {"theta": 1.0, "max_delay": 30.0})
        params[field] = value
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": params}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err
        if field == "recovery":  # quoted, so "recovery_unitary" does not match
            assert "'recovery'" in err and "'ideal' or 'approximate'" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("output", [5, None, "", ".", "spec.json/x.csv"])
    def test_bad_output_is_config_error(self, tmp_path, capsys, output):
        payload = multiqec_payload(tmp_path)
        payload["output"] = (str(tmp_path / output) if isinstance(output, str)
                             and output else output)
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert "'output'" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["spec.json"]

    @pytest.mark.parametrize("kind,beside", [
        ("multiqec", "out.csv.manifest.json"), ("synth", "out.encoder.txt")])
    def test_output_whose_written_file_is_a_directory(self, tmp_path, capsys, kind,
                                                      beside):
        # the CSV's path is free, but a file the run writes beside it (the
        # manifest, or synth's encoder circuit) is a directory: each once
        # wrote the CSV, then ended in a traceback
        (tmp_path / beside).mkdir()
        payload = (multiqec_payload(tmp_path) if kind == "multiqec" else
                   {"kind": kind, "output": str(tmp_path / "out.csv"),
                    "params": {"restarts": 1}})
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"config error: {path}: 'output' {str(tmp_path / 'out.csv')!r} "
                       f"makes the file {str(tmp_path / beside)!r}, which is a "
                       f"directory\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted([beside, "spec.json"])
        assert not any((tmp_path / beside).iterdir())

    @pytest.mark.parametrize("kind,length", [("oracle-check", 249), ("synth", 244)])
    def test_output_whose_written_names_do_not_fit(self, tmp_path, capsys, kind,
                                                   length):
        # the CSV's name fits in 255 bytes, but the manifest's (14 bytes
        # longer) or synth's encoder angles file (15 longer) does not; each
        # once wrote some files, then ended in a traceback
        name = "a" * (length - 4) + ".csv"
        payload = {"kind": kind, "output": str(tmp_path / name),
                   "params": {"restarts": 1} if kind == "synth" else {}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'output'" in err and "Traceback" not in err
        assert [f.name for f in tmp_path.iterdir()] == ["spec.json"]
        # a name that leaves room for every file runs
        payload["output"] = str(tmp_path / name[length - 240:])
        if kind == "oracle-check":
            assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
            assert len(list(tmp_path.iterdir())) == 3

    def test_infinite_t1_accepted(self, tmp_path):
        # json reads Infinity as +inf: no relaxation, as NoiseParams allows
        payload = multiqec_payload(tmp_path)
        payload["params"].update(t1=math.inf, recovery="approximate")
        del payload["params"]["t2"]
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK

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

    @pytest.mark.parametrize("t1,message", [
        ([220.0, 200.0, 220.0], "the ideal recovery adapts to one T1"),
        ([220.0, 200.0], "t1 has 2 per-qubit values for a 3-qubit register")],
        ids=["ideal-unequal-t1", "t1-count"])
    @pytest.mark.parametrize("kind,sweep", [
        ("delay-sweep", {"delays": [], "total_free": [30.0]}),
        ("multiqec", {"theta": 1.0, "max_delay": 30.0, "total_free": []})],
        ids=["delay-sweep", "multiqec"])
    def test_empty_sweep_checks_the_joined_rules(self, tmp_path, capsys, kind,
                                                 sweep, t1, message):
        # the recovery is resolved once per spec, so a sweep with no run in
        # it breaks the rules that join t1 and the recovery as any other does
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": {**sweep, "t1": t1}}
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {path}: {message}")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind,params,field", [
        ("multiqec", {"t2": 300.0, "tphi": 100.0}, "'t2' and 'tphi'"),
        ("multiqec", {"t2": 441.0}, "t2 = 441.0"),
        ("multiqec", {"t1": [220.0, 200.0]}, "t1 has 2 per-qubit values"),
        ("multiqec-chadd", {"tphi": [300.0] * 3}, "tphi has 3 per-qubit values"),
        ("multiqec", {"t1": [100.0, 300.0, 300.0]}, "t1 = [100.0, 300.0, 300.0]"),
        ("multiqec-chadd", {"couplings": [[0, 9, 0.05]]}, "'couplings' entry"),
        ("multiqec-chadd", {"total_free": [30.0 * (protocol.CHADD_ROUND_CAP + 1)]},
         "'total_free' over 'max_delay'")],
        ids=["t2-with-tphi", "t2-above-2-t1", "t1-count", "tphi-count",
             "ideal-unequal-t1", "coupling-off-register", "chadd-round-cap"])
    def test_joined_rule_error_names_the_spec_file(self, tmp_path, capsys, kind,
                                                   params, field):
        # a rule that joins fields is checked in the run, not in load, and
        # its message names the spec file as a single field's does
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 1.0, "max_delay": 30.0,
                              "total_free": [30.0], "t1": 220.0, **params}}
        path = write_spec(tmp_path, payload)
        ExperimentSpec.load(path)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and field in err
        assert err.count("\n") == 1 and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind,t1", [
        ("multiqec", [220.0] * 3), ("multiqec-chadd", [220.0] * 4),
        ("delay-sweep", [220.0] * 3), ("crosstalk-toy", [220.0] * 2)])
    def test_t2_with_equal_per_qubit_t1(self, tmp_path, kind, t1):
        # T1 per qubit with one T2 is the shared T1, byte for byte
        params = {"multiqec": {"theta": 1.0, "max_delay": 30.0,
                               "total_free": [30.0, 75.0]},
                  "delay-sweep": {"delays": [30.0], "total_free": [30.0, 75.0]},
                  "crosstalk-toy": {}}
        params["multiqec-chadd"] = params["multiqec"]
        csv = []
        for name, lifetime in (("shared", t1[0]), ("per-qubit", t1)):
            payload = {"kind": kind, "output": str(tmp_path / f"{name}.csv"),
                       "params": {**params[kind], "t1": lifetime, "t2": 300.0}}
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps(payload))
            assert cli.main(["run", str(spec)]) == EXIT_OK
            csv.append((tmp_path / f"{name}.csv").read_bytes())
        assert csv[0] == csv[1]

    @pytest.mark.parametrize("kind,t1", [
        ("multiqec", [100.0, 220.0, 400.0]),
        ("multiqec-chadd", [100.0, 220.0, 400.0, 160.0])])
    def test_t2_with_unequal_per_qubit_t1(self, tmp_path, kind, t1):
        # one T2 forms Tphi_q = 1/(1/T2 - 1/(2 T1_q)) per qubit, so the run
        # equals the spec that gives those Tphi; T2 = 2 T1_0 leaves qubit 0
        # without dephasing (Tphi inf)
        t2 = 200.0
        tphi = [1.0 / (1.0 / t2 - 1.0 / (2.0 * t)) if t > 100.0 else math.inf
                for t in t1]
        csv = []
        for name, noise in (("t2", {"t2": t2}), ("tphi", {"tphi": tphi})):
            payload = {"kind": kind, "output": str(tmp_path / f"{name}.csv"),
                       "params": {"theta": 1.0, "max_delay": 30.0,
                                  "total_free": [30.0, 75.0], "t1": t1,
                                  "recovery": "approximate", **noise}}
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps(payload))
            assert cli.main(["run", str(spec)]) == EXIT_OK
            csv.append((tmp_path / f"{name}.csv").read_bytes())
        assert csv[0] == csv[1]

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
        # seed 1, two restarts: the recovery factor (seed 2) spends both
        # 4-layer starts and fails, then 5 layers converge on the first
        # start; the encoder converges on its second 3-layer start
        payload = {"kind": "synth", "seed": 1,
                   "output": str(tmp_path / "synth.csv"),
                   "params": {"restarts": 2}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        rows = {r.split(",")[0]: r.split(",")
                for r in (tmp_path / "synth.csv").read_text().splitlines()[1:]}
        assert rows["recovery_u"][2:] == ["10", "3"]
        assert rows["encoder"][2:] == ["6", "2"]
        # the written circuits parse back, and the recovery still verifies
        encoder = Circuit.deserialize((tmp_path / "synth.encoder.txt").read_text(), 3)
        assert encoder.count("CZ") == 6
        recovery = Circuit.deserialize(
            (tmp_path / "synth.recovery.txt").read_text(), 5)
        assert synth.verify_recovery_circuit(recovery,
                                             RecoveryMap.ideal(0.0)).passed

    @pytest.mark.parametrize("restarts", [0, -1, "2", 1.5, True])
    def test_synth_restarts_validated(self, tmp_path, restarts):
        payload = {"kind": "synth", "output": str(tmp_path / "synth.csv"),
                   "params": {"restarts": restarts}}
        path = write_spec(tmp_path, payload)
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "synth.csv").exists()

    def test_synth_restarts_cap(self, tmp_path, capsys, monkeypatch):
        # over the cap is a config error before any start runs; at the cap
        # the count reaches synthesis (stopped here before it starts)
        asked = []

        def stop(*, seed, restarts):
            asked.append(restarts)
            raise RuntimeError("stopped before synthesis")
        monkeypatch.setattr(synth, "synthesize_encoder", stop)
        payload = {"kind": "synth", "output": str(tmp_path / "synth.csv"),
                   "params": {"restarts": 1001}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert "'restarts' must be an integer from 1 to 1000" \
            in capsys.readouterr().err
        assert asked == []
        payload["params"]["restarts"] = 1000
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) \
            == EXIT_NUMERICAL
        assert asked == [1000]

    @pytest.mark.parametrize("field", ["theta_points", "gamma_points"])
    def test_oracle_check_grid_cap(self, tmp_path, capsys, field):
        out = tmp_path / "oracle.csv"
        payload = {"kind": "oracle-check", "output": str(out),
                   "params": {"theta_points": 1, "gamma_points": 1, field: 101}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert f"'{field}' must be an integer from 1 to 100" \
            in capsys.readouterr().err
        assert not out.exists()
        payload["params"][field] = 100
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 100

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
        ("crosstalk-toy", "t_final", -60.0),
        ("crosstalk-toy", "cycles", 10**4 + 1),
        ("crosstalk-toy", "cycles", 10**30),
        ("gain-surface", "theta", 4.0),
        ("gain-surface", "theta", -0.5)])
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

    @pytest.mark.parametrize("kind,field,value", [
        ("multiqec", "theta", 10**400),  # a bounded number
        ("crosstalk-toy", "omega1", -10**400),  # an unbounded one
        ("multiqec", "total_free", [30.0, 10**400]),  # a list of numbers
        ("gain-surface", "emeas_range", [-10**400]),
        ("multiqec-chadd", "couplings", [[0, 3, 10**400]]),  # a coupling's g
        ("multiqec", "t1", 10**400),  # a lifetime
        ("delay-sweep", "tphi", [10**400, 100.0, 100.0]),
        ("crosstalk-toy", "t2", 10**400)],
        ids=lambda v: v if isinstance(v, str) else "huge")
    def test_integer_too_large_for_a_float_is_config_error(self, tmp_path, capsys,
                                                           kind, field, value):
        # JSON writes any integer; one that no float holds breaks the rule
        params = {**_FUZZ_BASE[kind], field: value}
        path = write_spec(tmp_path, {"kind": kind, "output": str(tmp_path / "out.csv"),
                                     "params": params})
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {path}: '{field}' must be")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind", ["multiqec", "multiqec-chadd"])
    def test_phi_is_not_a_field(self, tmp_path, capsys, kind):
        # F and P do not depend on the logical state's phase (see
        # test_protocol.py::TestPhaseInvariance), so no spec sets it
        params = {**_FUZZ_BASE[kind], "phi": 0.5}
        path = write_spec(tmp_path, {"kind": kind, "output": str(tmp_path / "out.csv"),
                                     "params": params})
        assert cli.main(["run", str(path)]) == EXIT_CONFIG
        assert f"kind '{kind}' has no parameter field(s): phi" in capsys.readouterr().err

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

    def test_crosstalk_toy_is_one_run_of_both_probes(self, tmp_path, monkeypatch):
        # one spec: one runner call over both probes, one generator, and two
        # propagators (the 40 sample times and one CHaDD interval)
        built = {"run_crosstalk_toy": [], "lindbladian": [], "propagator": []}
        for owner, name in ((protocol, "run_crosstalk_toy"), (protocol, "lindbladian"),
                            (protocol.Lindbladian, "propagator")):
            calls, original = built[name], getattr(owner, name)
            monkeypatch.setattr(
                owner, name,
                lambda *a, calls=calls, original=original, **k:
                    calls.append(a) or original(*a, **k))
        payload = {"kind": "crosstalk-toy", "output": str(tmp_path / "toy.csv"),
                   "params": {"t1": 100.0, "t_final": 16.0, "cycles": 2}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        assert {k: len(v) for k, v in built.items()} \
            == {"run_crosstalk_toy": 1, "lindbladian": 1, "propagator": 2}

    def test_crosstalk_toy_cycles_of_a_long_final_time(self, tmp_path):
        # t_final / (8 * cycles) times 8 * cycles is not t_final to 1e-9 here;
        # the runner takes the cycle count as given instead of recovering it
        payload = {"kind": "crosstalk-toy", "output": str(tmp_path / "toy.csv"),
                   "params": {"t1": 100.0, "t_final": 2654073374.86988,
                              "cycles": 299}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        rows = [r.split(",") for r in
                (tmp_path / "toy.csv").read_text().splitlines()[1:]]
        assert sum(r[:2] == ["1", "chadd"] for r in rows) == 1 + 299

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

    @pytest.mark.parametrize("kind,field,value,named", [
        ("crosstalk-toy", "g", 1e308, "g = 1e+308 rad/us times the duration 60.0 us"),
        ("crosstalk-toy", "omega1", 1e308, "omega1 = 1e+308 rad/us"),
        ("multiqec-chadd", "couplings", [[0, 3, 1e308]],
         "couplings on qubit 0 = 1e+308 rad/us times the duration 30.0 us")])
    def test_phase_overflow_names_the_field(self, tmp_path, capsys, kind, field,
                                            value, named):
        # a frequency times the duration past the largest float is a
        # numerical failure that names the field, not numpy's text
        params = {"crosstalk-toy": {"t1": 220.0},
                  "multiqec-chadd": {"theta": 1.0, "max_delay": 30.0,
                                     "total_free": [30.0, 60.0], "t1": 220.0}}[kind]
        payload = {"kind": kind, "output": str(tmp_path / "out.csv"),
                   "params": {**params, field: value}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", str(write_spec(tmp_path, payload))])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert named in err and "overflows" in err and "invalid value" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_chadd_without_spectators(self, tmp_path, capsys):
        # the default coupling names a spectator, so none is used without one
        params = {"theta": 1.0, "max_delay": 30.0, "total_free": [30.0],
                  "t1": 220.0, "spectators": 0}
        payload = {"kind": "multiqec-chadd", "output": str(tmp_path / "out.csv"),
                   "params": params}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        rows = [r.split(",") for r in
                (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert [r[5] for r in rows] == ["0", "1"]
        params["couplings"] = [[0, 3, 0.05]]
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert "3-qubit register" in capsys.readouterr().err

    @pytest.mark.parametrize("max_delay,total_free", [
        (30.0, [30.0, 30.0 * (protocol.CHADD_ROUND_CAP + 1)]),  # cap + 1 full rounds
        (30.0, [30.0 * protocol.CHADD_ROUND_CAP + 1.5]),  # the cap plus a remainder
        (30.0, [20.0] * (protocol.CHADD_ROUND_CAP + 1)),  # cap + 1 remainder rounds
        (1e-6, [1000.0])])  # 10^9 rounds
    def test_chadd_round_cap(self, tmp_path, capsys, monkeypatch, max_delay,
                             total_free):
        # the rounds a run walks (its longest point's full rounds, plus one
        # remainder round per point with one) over the cap are a config
        # error naming the field, raised before any round runs: the runner
        # checks the cap before it builds its generator
        class Reached(Exception):
            pass

        built = []

        def lindbladian(*args, **kwargs):
            built.append(args)
            raise Reached
        monkeypatch.setattr(protocol, "lindbladian", lindbladian)
        payload = {"kind": "multiqec-chadd", "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 1.0, "max_delay": max_delay,
                              "total_free": total_free, "t1": 220.0}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_CONFIG
        assert "'total_free'" in capsys.readouterr().err
        assert built == [] and not (tmp_path / "out.csv").exists()
        # at the cap the run passes the check and goes on to its rounds
        payload["params"].update(max_delay=30.0, total_free=[
            30.0 * (protocol.CHADD_ROUND_CAP - 2), 20.0,
            30.0 * (protocol.CHADD_ROUND_CAP - 3) + 5.0])
        with pytest.raises(Reached):
            cli.main(["run", str(write_spec(tmp_path, payload))])
        assert len(built) == 1  # one generator serves both series

    def test_chadd_parses_the_sweep_once(self, tmp_path, monkeypatch):
        # the round cap, the walk and both series read the runner's one parse
        passes = []
        schedules = protocol._schedules
        monkeypatch.setattr(protocol, "_schedules",
                            lambda *a: passes.append(a) or schedules(*a))
        payload = {"kind": "multiqec-chadd", "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 1.0, "max_delay": 30.0,
                              "total_free": [30.0, 45.0, 95.5], "t1": 220.0}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        assert len(passes) == 1

    def test_delay_beyond_every_lifetime_ends_at_once(self, tmp_path, capsys):
        # gamma = 1 over a 1e9 us delay: the propagator's cost does not grow
        # with the duration, and post-selection then keeps no weight
        payload = {"kind": "multiqec-chadd", "output": str(tmp_path / "out.csv"),
                   "params": {"theta": 1.0, "max_delay": 1e9,
                              "total_free": [1e9], "t1": 220.0}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_NUMERICAL
        assert "post-selection removed all weight" in capsys.readouterr().err

    def test_kept_weight_too_small_to_renormalize(self, tmp_path, capsys):
        # 360 T1: the round's kept weight, 3e-313, is not above 1/(the
        # largest float); the run exits on the error naming it, with no
        # numpy warning before it
        payload = {"kind": "multiqec-chadd", "output": str(tmp_path / "out.csv"),
                   "params": {"theta": math.pi / 2, "spectators": 0, "t1": 50,
                              "max_delay": 18000, "total_free": [18000]}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "post-selection removed all weight (kept weight 3.048" in err
        assert "Warning" not in err

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

    def test_gain_surface_at_zero_delay(self, tmp_path, capsys):
        # no noise: the closed-form round's F can round to an ulp above 1
        # (at theta = 5 pi / 8, say), which the adjusted fidelity F* rejects
        path = tmp_path / "spec.json"
        for theta in [*np.linspace(0.0, math.pi, 201), 5 * math.pi / 8]:
            payload = {"kind": "gain-surface", "output": str(tmp_path / "gain.csv"),
                       "params": {"t1_range": [100.0], "emeas_range": [0.01],
                                  "delay_range": [0.0], "theta": float(theta)}}
            path.write_text(json.dumps(payload))
            assert cli.main(["run", str(path)]) == EXIT_OK, capsys.readouterr().err
            row = (tmp_path / "gain.csv").read_text().splitlines()[1].split(",")
            assert row[4] == "1"  # F_qec

    def test_gain_surface_prints_nothing(self, tmp_path, capsys):
        # a descending E_meas grid is valid: the gain falls along E_meas,
        # so read in grid order it rises, and the run still reports nothing
        payload = {"kind": "gain-surface", "output": str(tmp_path / "gain.csv"),
                   "params": {"t1_range": [50.0], "emeas_range": [0.05, 0.01],
                              "delay_range": [0.0, 10.0]}}
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        assert capsys.readouterr().out == ""
        gains = [float(row.split(",")[3]) for row in
                 (tmp_path / "gain.csv").read_text().splitlines()[1:]]
        assert gains[3] > gains[1]  # E_meas 0.01 against 0.05 at 10 us

    def test_gain_surface_past_37_t1(self, tmp_path):
        # gamma rounds to 1 at 2000 us over T1 = 50 us; such a cell once
        # exited 3 and lost the whole grid
        def rows(delays):
            payload = {"kind": "gain-surface", "output": str(tmp_path / "gain.csv"),
                       "params": {"t1_range": [50.0], "emeas_range": [0.01],
                                  "delay_range": delays}}
            assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
            return (tmp_path / "gain.csv").read_text().splitlines()[1:]
        grid = rows([10.0, 2000.0, 1e5])
        assert grid[0] == rows([10.0])[0]
        assert [float(x) for x in grid[1].split(",")[3:7]] \
            == pytest.approx([0.0, 0.5, math.exp(-40.0), 0.0], abs=2e-7, rel=1e-9)
        assert grid[2].split(",")[3] == grid[2].split(",")[6] == "0"  # gain, p

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

    def test_oracle_check_matches_the_64x64_round(self, tmp_path, monkeypatch):
        # the kind runs the 4x4 logical round; qec_cycle's full-register
        # round must give the same fidelity and success probability. The
        # rows are taken before the CSV rounds them to 10 digits.
        written = []
        write_csv = cli._write_csv
        monkeypatch.setattr(cli, "_write_csv",
                            lambda *a: written.append(a[2]) or write_csv(*a))
        payload = {
            "kind": "oracle-check",
            "output": str(tmp_path / "oracle.csv"),
            "params": {"theta_points": 4, "gamma_points": 4},
        }
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        grid = [(t, g) for t in np.linspace(0.0, math.pi, 4)
                for g in np.linspace(0.0, 0.3, 4)]
        assert [row[:2] for row in written[0]] == grid
        for theta, g, fid, prob, *_ in written[0]:
            out = qec_cycle(encode_ideal(LogicalStateSpec(theta)), g, 0.0,
                            RecoveryMap.ideal(g))
            assert abs(fid - out.fidelity) <= 1e-14
            assert abs(prob - out.success_probability) <= 1e-14

    def test_oracle_check_builds_one_round_per_gamma(self, tmp_path,
                                                     monkeypatch):
        # the matched form comes from the run's own grid, not a second one
        calls = []
        outcomes = code3.logical_outcomes
        monkeypatch.setattr(code3, "logical_outcomes",
                            lambda *a: calls.append(a) or outcomes(*a))
        payload = {
            "kind": "oracle-check",
            "output": str(tmp_path / "oracle.csv"),
            "params": {"theta_points": 4, "gamma_points": 3},
        }
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        assert len(calls) == 3

    def test_oracle_check_pins_the_closed_form_round(self, tmp_path, monkeypatch,
                                                     capsys):
        payload = {
            "kind": "oracle-check",
            "output": str(tmp_path / "oracle.csv"),
            "params": {"theta_points": 3, "gamma_points": 3},
        }
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_OK
        assert "max |closed-form round - 64x64 round| = " in capsys.readouterr().out
        outcome = code3.PauliRound.outcome
        monkeypatch.setattr(code3.PauliRound, "outcome",
                            lambda rnd, theta: (outcome(rnd, theta)[0] + 2e-12,
                                                outcome(rnd, theta)[1]))
        assert cli.main(["run", str(write_spec(tmp_path, payload))]) == EXIT_NUMERICAL
        assert "closed-form round deviates" in capsys.readouterr().err

    def test_ten_digit_precision(self, tmp_path):
        path = write_spec(tmp_path, multiqec_payload(tmp_path))
        cli.main(["run", str(path)])
        row = (tmp_path / "out.csv").read_text().splitlines()[1]
        fid = row.split(",")[1]
        assert len(fid.replace(".", "").replace("-", "").lstrip("0")) <= 10


# A small valid spec of each kind but synth, with every catalog field set
# except t2 and tphi (together they are a config error; each is fuzzed alone)
_FUZZ_BASE = {
    "multiqec": {"theta": 1.0, "max_delay": 30.0, "total_free": [30.0, 45.0],
                 "t1": 220.0, "recovery": "ideal"},
    "multiqec-chadd": {"theta": 1.0, "max_delay": 30.0,
                       "total_free": [30.0, 45.0], "t1": 220.0,
                       "recovery": "ideal", "spectators": 1,
                       "couplings": [[0, 3, 0.05]]},
    "delay-sweep": {"delays": [30.0, 60.0], "total_free": [30.0, 90.0],
                    "t1": 220.0, "theta": 1.0, "recovery": "approximate"},
    "crosstalk-toy": {"t1": 100.0, "omega1": 0.3, "omega2": 0.2, "g": 0.05,
                      "t_final": 16.0, "cycles": 2},
    "gain-surface": {"t1_range": [100.0], "emeas_range": [0.01],
                     "delay_range": [10.0], "theta": 1.0},
    "oracle-check": {"theta_points": 3, "gamma_points": 2},
}
_FUZZ_VALUES = (math.nan, math.inf, -math.inf, 1e308, 5e-324, True, "x", None,
                10**30, 10**400, -10**400)
# fields that take a list (per-qubit lifetimes included)
_LIST_FIELDS = {"total_free", "delays", "couplings", "t1_range", "emeas_range",
                "delay_range", "t1", "t2", "tphi"}
_PROBABILITY_COLUMNS = {"fidelity", "success_probability", "pop0", "pop1",
                        "F_qec", "F_bare", "p_success"}


_PACKAGE = Path(cli.__file__).resolve().parent


def _numerical_raise_faults(spec: Path, out: Path, case: str) -> list:
    """Re-run an exit-3 spec's runner: the fault of an exception raised
    outside ``nadqec`` (inside numpy or scipy, say), which the CLI would
    report as a numerical failure like a deliberate raise."""
    loaded = ExperimentSpec.load(spec)
    try:
        CATALOG[loaded.kind].runner(loaded, out)
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        if Path(frame.filename).resolve().parent != _PACKAGE:
            return [f"{case}: exit 3 from {frame.filename}:{frame.lineno} "
                    f"({exc!r})"]
        return []
    return [f"{case}: exit 3, but the runner did not raise again"]


def _run_faults(spec: Path, out: Path, kind: str, params: dict, case: str,
                fields: Sequence[str]) -> list:
    """Run one spec through ``cli.main``: the faults of a run that raises,
    warns, ends with an exit code other than 0, 2 or 3, ends with exit 2 on
    a message that names not the spec file or none of ``fields``, ends with
    exit 3 on an exception that no ``nadqec`` line raised, or ends with
    exit 0 and a CSV holding a non-finite number or a probability outside
    [0, 1]."""
    spec.write_text(json.dumps({"kind": kind, "output": str(out), "params": params}))
    out.unlink(missing_ok=True)
    faults = []
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        try:
            code = cli.main(["run", str(spec)])
            if code == EXIT_NUMERICAL:
                faults += _numerical_raise_faults(spec, out, case)
        except Exception as exc:
            return [f"{case}: raised {exc!r}"]
    faults += [f"{case}: warned {w.message}" for w in caught]
    if code not in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL):
        faults.append(f"{case}: exit {code!r}")
    message = err.getvalue()
    if code == EXIT_CONFIG and not (
            message.startswith(f"config error: {spec}: ")
            and any(re.search(rf"\b{f}\b", message) for f in fields)):
        faults.append(f"{case}: {message.strip()}")
    if code == EXIT_OK:
        header, *rows = [r.split(",") for r in out.read_text().splitlines()]
        for row in rows:
            for column, cell in zip(header, row, strict=True):
                try:
                    x = float(cell)
                except ValueError:
                    continue  # a label such as the variant
                if not math.isfinite(x) or (column in _PROBABILITY_COLUMNS
                                            and not 0.0 <= x <= 1.0):
                    faults.append(f"{case}: {column} = {cell}")
    return faults


class TestInputFuzz:
    @pytest.mark.parametrize("kind", sorted(_FUZZ_BASE))
    def test_every_field_value_ends_with_an_exit_code(self, tmp_path, capsys,
                                                      kind):
        # each catalog field in turn takes each value; a run ends with exit
        # 0, 2 or 3, raises nothing and warns nothing, an exit-2 message
        # names the spec file and the field, and an exit-0 CSV holds only
        # finite numbers with its probabilities in [0, 1]
        base = _FUZZ_BASE[kind]
        entry = CATALOG[kind]
        out = tmp_path / "out.csv"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": kind, "output": str(out), "params": base}))
        assert cli.main(["run", str(spec)]) == EXIT_OK
        faults = []
        for field in entry.required + entry.optional:
            values = list(_FUZZ_VALUES)
            if field in _LIST_FIELDS:
                values += [[v] for v in _FUZZ_VALUES] + [[]]
            for value in values:
                faults += _run_faults(spec, out, kind, {**base, field: value},
                                      f"{field}={value!r}", [field])
        capsys.readouterr()
        assert not faults, "\n".join(faults)

    @pytest.mark.parametrize("kind,fields", [
        # each lifetime passes alone, but a qubit's decay rate
        # 1/(2 T1) + 1/Tphi, or the sum over two dephasing qubits, overflows
        ("crosstalk-toy", {"t1": 6e-309, "tphi": 6e-309}),
        ("multiqec-chadd", {"tphi": 6e-309, "t1": 1e300})])
    def test_field_pairs_end_with_an_exit_code(self, tmp_path, capsys, kind,
                                               fields):
        faults = _run_faults(tmp_path / "spec.json", tmp_path / "out.csv", kind,
                             {**_FUZZ_BASE[kind], **fields}, repr(fields), fields)
        capsys.readouterr()
        assert not faults, "\n".join(faults)
        assert (tmp_path / "out.csv").exists()  # a defined result, exit 0


# Two values of each field that write different CSVs over the kind's
# _FUZZ_BASE spec (synth's is {"restarts": 2}); `spectators` is probed
# without `couplings`, 0 against 1 with the default coupling. The toy's
# probes start diagonal, so its frequencies, coupling and dephasing change
# no byte (test_protocol.py::TestCrosstalkToy::
# test_diagonal_probes_cannot_see_coupling_or_dephasing).
_PROBES = {
    "theta": (1.0, 2.0), "max_delay": (30.0, 20.0),
    "total_free": ([30.0], [45.0]), "delays": ([30.0], [20.0]),
    "recovery": ("ideal", "approximate"), "t1": (220.0, 100.0),
    "t2": (440.0, 300.0), "tphi": (300.0, 600.0), "spectators": (0, 1),
    "couplings": ([[0, 3, 0.05]], [[0, 3, 0.1]]), "t_final": (16.0, 24.0),
    "cycles": (2, 3), "t1_range": ([100.0], [200.0]),
    "emeas_range": ([0.01], [0.02]), "delay_range": ([10.0], [20.0]),
    "restarts": (1, 2), "theta_points": (3, 4), "gamma_points": (2, 3)}
_NO_EFFECT = {"crosstalk-toy": {"omega1", "omega2", "g", "t2", "tphi"}}
# at seed 0 every synth start that runs converges, so how many may run
# changes nothing; at seed 1 the encoder's first 3-layer start fails
_PROBE_SEED = {"synth": 1}


class TestCatalog:
    def test_seven_kinds(self):
        assert len(CATALOG) == 7

    def test_every_field_changes_the_output(self, tmp_path):
        # a field that changes no byte of the output is a setting without effect
        out = tmp_path / "out.csv"
        faults = []
        for kind, entry in CATALOG.items():
            fields = set(entry.required + entry.optional)
            assert _NO_EFFECT.get(kind, set()) <= fields
            for field in sorted(fields - _NO_EFFECT.get(kind, set())):
                base = dict(_FUZZ_BASE.get(kind, {"restarts": 2}))
                if field == "spectators":
                    base.pop("couplings")
                written = []
                for value in _PROBES.get(field, ()):
                    path = write_spec(tmp_path, {"kind": kind, "output": str(out),
                                                 "seed": _PROBE_SEED.get(kind, 0),
                                                 "params": {**base, field: value}})
                    assert cli.main(["run", str(path)]) == EXIT_OK, (kind, field, value)
                    written.append(out.read_bytes())
                if len(written) != 2 or written[0] == written[1]:
                    faults.append(f"{kind}: {field}")
        assert not faults, "fields that change no output byte: " + ", ".join(faults)

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
            fields = {"seed", *entry["required"], *entry["optional"]}
            assert entry["rules"] == {f: cli.FIELDS[f].rule for f in fields}

    def test_every_field_has_one_rule_and_every_rule_a_field(self):
        # a field added to a kind without a row in the table fails here
        taken = set()
        for kind, entry in CATALOG.items():
            fields = entry.required + entry.optional
            assert len(set(fields)) == len(fields), kind
            assert set(fields) <= set(cli.FIELDS), kind
            taken |= set(fields)
        assert "seed" not in taken  # the one top-level field in the table
        assert set(cli.FIELDS) == taken | {"seed"}

    def test_list_command(self, capsys):
        assert cli.main(["list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "multiqec" in out

    @staticmethod
    def _python(*args: str) -> subprocess.CompletedProcess:
        """This interpreter with warnings as errors, the package on its path."""
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_module_run_with_warnings_as_errors(self):
        done = self._python("-m", "nadqec.cli", "list")
        assert done.returncode == 0, done.stderr

    def test_import_leaves_out_scipy_optimize(self):
        # only the synth kind needs nadqec.synth, and it imports synth
        # itself, so no other kind pays for importing it
        done = self._python("-c", "import nadqec, nadqec.cli, sys; "
                                  "assert 'scipy.optimize' not in sys.modules; "
                                  "assert 'nadqec.synth' not in sys.modules")
        assert done.returncode == 0, done.stderr

    def test_synth_run_loads_no_scipy(self, tmp_path):
        path = write_spec(tmp_path, {"kind": "synth", "params": {"restarts": 2},
                                     "output": str(tmp_path / "synth.csv")})
        done = self._python("-c", "import sys; from nadqec import cli; "
                                  f"assert cli.main(['run', {str(path)!r}]) == 0; "
                                  "assert not [m for m in sys.modules "
                                  "if m.split('.')[0] == 'scipy']")
        assert done.returncode == 0, done.stderr


class TestCheck:
    def test_check_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["check"]) == EXIT_OK
        assert list(tmp_path.iterdir()) == []
