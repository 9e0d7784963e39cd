import ast
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from sparse_isac import analysis, cli
from sparse_isac.analysis import SingularFimError
from sparse_isac.synth import _SignalTable

CLI = [sys.executable, "-m", "sparse_isac.cli"]


def run_cli(*args, env=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def small_sweep_config(out_dir, trials=4):
    return {
        "experiment": "rmse_pslr_sweep",
        "seed": 7,
        "output_dir": str(out_dir),
        "ofdm": {
            "n_subcarriers": 64,
            "n_symbols": 8,
            "subcarrier_spacing_hz": 120e3,
            "carrier_freq_hz": 24e9,
        },
        "n_active": 16,
        "snr_db_axis": [0.0, 10.0],
        "methods": ["full_bandwidth", "direct_sparse", "autocorrelation"],
        "trials": trials,
        "scene": {"targets": [{"distance_m": 120.0, "velocity_mps": 0.0, "amplitude": 1.0}]},
    }


def small_demo_config(out_dir):
    return {
        "experiment": "two_target_demo",
        "seed": 3,
        "output_dir": str(out_dir),
        "ofdm": {
            "n_subcarriers": 128,
            "n_symbols": 32,
            "subcarrier_spacing_hz": 120e3,
            "carrier_freq_hz": 24e9,
        },
        "n_active": 32,
        "snr_db": -5.0,
        "runs": 6,
        "distances_m": [150.0, 260.0],
        "velocities_mps": [10.0, -8.0],
        "amplitudes": [1.0, 0.8],
    }


class TestValidate:
    def test_valid_config_silent(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_sweep_config(tmp_path)))
        proc = run_cli("validate", "--config", str(cfg_path))
        assert proc.returncode == 0
        assert proc.stderr.strip() == ""

    def test_out_of_range_cardinality_names_field(self, tmp_path):
        cfg = small_sweep_config(tmp_path)
        cfg["n_active"] = 100  # > 64 subcarriers
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("validate", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "n_active" in proc.stderr

    def test_nested_overflow_named(self, tmp_path):
        cfg = {
            "experiment": "ambiguity",
            "ofdm": {
                "n_subcarriers": 12,
                "n_symbols": 2,
                "subcarrier_spacing_hz": 120e3,
                "carrier_freq_hz": 24e9,
            },
            "allocation": {"pattern": "nested", "inner": 3, "outer": 4},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("validate", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "inner" in proc.stderr or "outer" in proc.stderr

    def test_json_syntax_error_line_anchored(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{\n  "experiment": "crlb_table",\n  broken\n}\n')
        proc = run_cli("validate", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert ":3:" in proc.stderr  # line number of the defect


class TestRun:
    def test_malformed_config_no_partial_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_sweep_config(out)
        del cfg["snr_db_axis"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "snr_db_axis" in proc.stderr
        assert not out.exists()

    def test_sweep_writes_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_sweep_config(out)))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "rmse_pslr_sweep"
        assert manifest["outputs"] == ["sweep.csv"]
        assert manifest["config"]["seed"] == 7

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg_path = tmp_path / f"cfg_{out.name}.json"
            cfg = small_sweep_config(out)
            cfg_path.write_text(json.dumps(cfg))
            proc = run_cli("run", "--config", str(cfg_path))
            assert proc.returncode == 0, proc.stderr
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_demo_config(out1)))
        assert run_cli("run", "--config", str(cfg_path)).returncode == 0
        # re-run purely from the manifest
        manifest_path = out1 / "manifest.json"
        proc = run_cli("run", "--config", str(manifest_path), "--out", str(out2))
        assert proc.returncode == 0, proc.stderr
        for name in json.loads(manifest_path.read_text())["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out, seed_args in ((out1, []), (out2, ["--seed", "99"])):
            cfg_path = tmp_path / f"cfg_{out.name}.json"
            cfg_path.write_text(json.dumps(small_sweep_config(out)))
            assert run_cli("run", "--config", str(cfg_path), *seed_args).returncode == 0
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()

    def test_outdir_env_override(self, tmp_path):
        import os

        out_env = tmp_path / "env_out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_sweep_config(tmp_path / "ignored")))
        env = dict(os.environ, SPARSE_ISAC_OUTDIR=str(out_env))
        proc = run_cli("run", "--config", str(cfg_path), env=env)
        assert proc.returncode == 0, proc.stderr
        assert (out_env / "sweep.csv").exists()


class TestCrlbSubcommand:
    def test_table_ordering(self, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("crlb", "--profile", "desk", "--out", str(out), "--seed", "5")
        assert proc.returncode == 0, proc.stderr
        rows = (out / "crlb_table.csv").read_text().strip().splitlines()[1:]
        table = {r.split(",")[0]: float(r.split(",")[3]) for r in rows}
        assert table["full"] <= table["nested"] <= table["clustered"]
        assert table["full"] <= table["random"] <= table["clustered"]


class TestDemoSubcommand:
    def test_demo_writes_periodograms(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_demo_config(out)))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 0, proc.stderr
        for name in (
            "demo_direct_periodogram.csv",
            "demo_virtual_periodogram.csv",
            "demo_runs.csv",
            "demo_summary.csv",
        ):
            assert (out / name).exists()
        lines = (out / "demo_direct_periodogram.csv").read_text().splitlines()
        assert lines[0].startswith("#")  # SNR definition note
        assert lines[1] == "axis_value,magnitude"


# ---------------------------------------------------------------------------
# in-process contract tests: exit codes, field names, staging


def main_in_process(*args):
    """(exit code, stdout, stderr) of cli.main; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


TINY_OFDM = {
    "n_subcarriers": 16,
    "n_symbols": 2,
    "subcarrier_spacing_hz": 120e3,
    "carrier_freq_hz": 24e9,
    "cp_len_s": 0.0,
}

TINY = {
    "crlb_table": {
        "experiment": "crlb_table", "seed": 1, "output_dir": "unused", "ofdm": TINY_OFDM,
        "n_active": 4, "amplitude": 1.0, "noise_variance_w": 0.5,
    },
    "ambiguity": {
        "experiment": "ambiguity", "seed": 1, "ofdm": TINY_OFDM,
        "allocation": {"pattern": "random", "n_active": 4},
        "delay_points": 5, "doppler_points": 3, "delay_span_bins": 2.0, "doppler_span_bins": 1.0,
    },
    "two_target_demo": {
        "experiment": "two_target_demo", "seed": 1, "ofdm": dict(TINY_OFDM, n_subcarriers=32),
        "n_active": 8, "snr_db": 0.0, "runs": 1, "oversample": 2,
        "distances_m": [150.0, 260.0], "velocities_mps": [10.0, -8.0], "amplitudes": [1.0, 0.8],
    },
    "rmse_pslr_sweep": {
        "experiment": "rmse_pslr_sweep", "seed": 1, "ofdm": TINY_OFDM, "n_active": 4,
        "snr_db_axis": [0.0], "methods": ["full_bandwidth", "direct_sparse"], "trials": 1,
        "oversample": 2, "miss_threshold_bins": 10.0,
        "scene": {
            "targets": [{"distance_m": 100.0, "velocity_mps": 1.0, "amplitude": 1.0}],
            "link": {"tx_power_w": 0.1, "tx_gain": 100.0, "rx_gain": 100.0},
        },
    },
    "hole_probability": {
        "experiment": "hole_probability", "seed": 1, "ofdm": TINY_OFDM,
        "n_active_axis": [4], "trials": 2,
    },
}

DROP = object()


def failing(exc_type):
    def fail(*args, **kwargs):
        raise exc_type("injected")

    return fail


def mutated(experiment, path, value, configs=TINY):
    cfg = json.loads(json.dumps(configs[experiment]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


def names(key: str, err: str) -> bool:
    """Whether an error names the config key as a whole word, so that
    `n_trials` does not count as naming `trials`."""
    return re.search(rf"(?<!\w){re.escape(key)}(?!\w)", err) is not None


def write_config(directory: Path, cfg) -> Path:
    path = directory / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


PROBES = [
    ("oversample", mutated("rmse_pslr_sweep", ["oversample"], 0)),
    ("snr_db_axis", mutated("rmse_pslr_sweep", ["snr_db_axis"], ["a"])),
    ("snr_db_axis", mutated("rmse_pslr_sweep", ["snr_db_axis"], [-math.inf])),
    ("miss_threshold_bins", mutated("rmse_pslr_sweep", ["miss_threshold_bins"], "x")),
    ("distances_m", mutated("two_target_demo", ["distances_m"], [-5, 10])),
    ("velocities_mps", mutated("two_target_demo", ["velocities_mps"], ["a", "b"])),
    ("amplitudes", mutated("two_target_demo", ["amplitudes"], [0, 1])),
    ("snr_db", mutated("two_target_demo", ["snr_db"], -math.inf)),
    ("n_active", mutated("two_target_demo", ["n_active"], DROP)),  # default 64 > N = 32
    ("indices", mutated("ambiguity", ["allocation"], {"pattern": "custom", "indices": "x"})),
    ("indices", mutated("ambiguity", ["allocation"], {"pattern": "custom", "indices": [0, 999]})),
    ("extra", mutated("ambiguity", ["allocation", "extra"], 1)),
    ("subcarrier_spacing_hz", mutated("crlb_table", ["ofdm", "subcarrier_spacing_hz"], math.nan)),
    ("distance_m", mutated("rmse_pslr_sweep", ["scene", "targets", 0, "distance_m"], math.nan)),
    ("snr_db", mutated("two_target_demo", ["snr_db"], math.nan)),
    # 8 bytes a point overflow a 64-bit byte count: NumPy would raise
    # ValueError, not the MemoryError of a merely too large axis
    ("delay_points", mutated("ambiguity", ["delay_points"], 2**62)),
    ("doppler_points", mutated("ambiguity", ["doppler_points"], 10**20)),
    # one subcarrier in every symbol: a constant set too small for a surface
    ("allocation", mutated("ambiguity", ["allocation"], {"pattern": "custom", "indices": [[5], [5]]})),
    ("indices", mutated("ambiguity", ["allocation"], {"pattern": "custom", "indices": {"a": 1}})),
    # a virtual periodogram of oversample * 2N > 2**53 points
    ("oversample", mutated("rmse_pslr_sweep", ["oversample"], 10**17)),
    ("oversample", mutated("two_target_demo", ["oversample"], 10**17)),
    # a spectrum of oversample * N < 4 bins, all inside pslr's exclusion zone
    *(
        ("oversample", dict(mutated("rmse_pslr_sweep", ["ofdm", "n_subcarriers"], n),
                            n_active=2, oversample=1))
        for n in (2, 3)
    ),
    # a spacing whose delay axis overflows: Q * spacing (1e308) or 1 / spacing
    # (5e-324) is inf; the bound moves with Q = oversample * 2N
    *(
        ("subcarrier_spacing_hz", mutated(exp, ["ofdm", "subcarrier_spacing_hz"], spacing))
        for exp in ("rmse_pslr_sweep", "two_target_demo") for spacing in (1e308, 5e-324)
    ),
    ("subcarrier_spacing_hz",
     dict(mutated("rmse_pslr_sweep", ["ofdm", "subcarrier_spacing_hz"], 1e305), oversample=1000)),
    ("subcarrier_spacing_hz",
     dict(mutated("two_target_demo", ["ofdm", "subcarrier_spacing_hz"], 1e305), oversample=1000)),
    # the noise variance of an snr_db scales with the first amplitude squared
    ("amplitudes", mutated("two_target_demo", ["amplitudes", 0], 1e308)),
    ("amplitude", mutated("rmse_pslr_sweep", ["scene", "targets", 0, "amplitude"], 5e-324)),
    # the link budget's wavelength c / carrier overflows
    ("carrier_freq_hz", mutated("rmse_pslr_sweep", ["ofdm", "carrier_freq_hz"], 5e-324)),
    # a float field given an integer beyond float range
    ("amplitude", mutated("crlb_table", ["amplitude"], 10**400)),
    ("noise_variance_w", mutated("crlb_table", ["noise_variance_w"], -(10**400))),
    ("subcarrier_spacing_hz", mutated("crlb_table", ["ofdm", "subcarrier_spacing_hz"], 10**400)),
    ("snr_db", mutated("two_target_demo", ["snr_db"], 10**400)),
    ("amplitudes", mutated("two_target_demo", ["amplitudes", 0], -(10**400))),
    ("distance_m", mutated("rmse_pslr_sweep", ["scene", "targets", 0, "distance_m"], 10**400)),
]


class TestContract:
    @pytest.mark.parametrize("field, cfg", PROBES, ids=[f"{i}-{f}" for i, (f, _) in enumerate(PROBES)])
    def test_probed_config_is_a_named_config_error(self, tmp_path, field, cfg):
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        for args in (["validate", "--config", path], ["run", "--config", path, "--out", out]):
            code, _, err = main_in_process(*args)
            assert code == 2, err
            assert names(field, err), err
            assert err.startswith("config error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "field, cfg",
        [
            ("allocation", mutated("crlb_table", ["allocation"], {"pattern": "comb", "stride": 2})),
            ("scene.snr_db", mutated("rmse_pslr_sweep", ["scene", "snr_db"], 3.0)),
            ("scene.noise_variance_w", mutated("rmse_pslr_sweep", ["scene", "noise_variance_w"], 1.0)),
            ("trails", mutated("rmse_pslr_sweep", ["trails"], 3)),
            ("runs", mutated("rmse_pslr_sweep", ["runs"], 3)),
            ("scene.targets[0]", mutated("rmse_pslr_sweep", ["scene", "targets", 0, "rcs"], 1.0)),
            ("ofdm", mutated("crlb_table", ["ofdm", "bandwidth_hz"], 1e6)),
        ],
    )
    def test_unread_field_is_a_config_error(self, tmp_path, field, cfg):
        code, _, err = main_in_process("validate", "--config", write_config(tmp_path, cfg))
        assert code == 2
        assert f"config error: {field}" in err

    def test_independent_errors_each_reported(self, tmp_path):
        cfg = mutated("crlb_table", ["seed"], -1)
        cfg["ofdm"]["n_symbols"] = 0
        code, _, err = main_in_process("validate", "--config", write_config(tmp_path, cfg))
        assert code == 2
        assert err.splitlines() == [
            "config error: seed: must be >= 0, got -1",
            "config error: ofdm: n_symbols: must be >= 1, got 0",
        ]

    @pytest.mark.parametrize("exc", [SingularFimError, RuntimeError])
    def test_failed_run_leaves_no_output(self, tmp_path, monkeypatch, exc):
        monkeypatch.setattr(cli, "crlb_report", failing(exc))
        path, out = write_config(tmp_path, TINY["crlb_table"]), tmp_path / "out"
        if exc is SingularFimError:  # the documented numeric failure
            code, _, err = main_in_process("run", "--config", path, "--out", out)
            assert code == 3
            assert "numeric failure in crlb_table: injected" in err
        else:  # an unexpected error propagates, and staging is still cleaned up
            with pytest.raises(exc):
                main_in_process("run", "--config", path, "--out", out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_surface_too_large_to_allocate_is_a_numeric_failure(self, tmp_path):
        # 10**15 delay points need 7 PiB, more than any address space holds, so
        # the first allocation fails at once under every overcommit policy
        cfg = mutated("ambiguity", ["delay_points"], 10**15)
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        assert main_in_process("validate", "--config", path)[0] == 0
        code, stdout, err = main_in_process("run", "--config", path, "--out", out)
        assert (code, stdout) == (3, "")
        assert err.startswith("numeric failure in ambiguity: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "key, value",
        [
            (["amplitude"], 1e-200),  # amplitude**2 underflows: ZeroDivisionError
            (["amplitude"], 1e200),  # amplitude**2 overflows: OverflowError
            (["ofdm", "subcarrier_spacing_hz"], 1e300),
            # an infinite FIM, which crlb_random.json cannot hold as JSON
            (["noise_variance_w"], 5e-324),
        ],
    )
    def test_arithmetic_failure_is_a_numeric_failure(self, tmp_path, key, value):
        path, out = write_config(tmp_path, mutated("crlb_table", key, value)), tmp_path / "out"
        assert main_in_process("validate", "--config", path)[0] == 0
        code, stdout, err = main_in_process("run", "--config", path, "--out", out)
        assert (code, stdout) == (3, "")
        assert err.startswith("numeric failure in crlb_table: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("spacing", [1e308, 5e-324])
    def test_non_finite_ambiguity_is_a_numeric_failure(self, tmp_path, spacing):
        # 1e308 overflows the Doppler phases, 5e-324 the delay bin
        cfg = mutated("ambiguity", ["ofdm", "subcarrier_spacing_hz"], spacing)
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        assert main_in_process("validate", "--config", path)[0] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the one stderr line is the failure's
            code, stdout, err = main_in_process("run", "--config", path, "--out", out)
        assert (code, stdout) == (3, "")
        assert err == (
            "numeric failure in ambiguity: the ambiguity surface or an axis holds a non-finite value\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_integer_beyond_float_range_is_exact_where_an_integer_is_read(self, tmp_path):
        path, out = write_config(tmp_path, mutated("crlb_table", ["seed"], 10**400)), tmp_path / "out"
        assert main_in_process("validate", "--config", path) == (0, "", "")
        assert main_in_process("run", "--config", path, "--out", out)[0] == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 10**400

    def test_integer_too_long_to_read_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY["crlb_table"]).replace('"seed": 1', '"seed": ' + "7" * 5000))
        for args in (["validate", "--config", path], ["run", "--config", path, "--out", tmp_path / "out"]):
            code, _, err = main_in_process(*args)
            # below the interpreter's integer-string limit the seed is valid
            limited = hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits()
            assert code == (2 if limited else 0), err
            assert "Traceback" not in err
            if limited:
                assert err.startswith("config error: ") and err.count("\n") == 1

    def test_json_artifacts_hold_no_nan(self, tmp_path):
        with pytest.raises(FloatingPointError, match="x.json: "):
            cli._write_json(tmp_path / "x.json", {"fim": [[math.inf]]})
        assert list(tmp_path.iterdir()) == []

    def test_existing_output_dir_keeps_unrelated_files(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep")
        (out / "crlb_table.csv").write_text("old")
        path = write_config(tmp_path, TINY["crlb_table"])
        monkeypatch.setattr(cli, "crlb_report", failing(SingularFimError))
        assert main_in_process("run", "--config", path, "--out", out)[0] == 3
        assert (out / "crlb_table.csv").read_text() == "old"
        monkeypatch.undo()
        assert main_in_process("run", "--config", path, "--out", out)[0] == 0
        assert (out / "notes.txt").read_text() == "keep"
        assert (out / "crlb_table.csv").read_text() != "old"
        assert sorted(p.name for p in out.iterdir()) == [
            "crlb_random.json", "crlb_table.csv", "manifest.json", "notes.txt"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]

    def test_profile_run_reruns_from_its_manifest(self, tmp_path):
        first, again = tmp_path / "crlb", tmp_path / "run"
        assert main_in_process("crlb", "--profile", "desk", "--seed", 5, "--out", first)[0] == 0
        assert main_in_process("run", "--config", first / "manifest.json", "--out", again)[0] == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes()

    @pytest.mark.parametrize(
        "experiment, key, value",
        [("rmse_pslr_sweep", ["snr_db_axis"], [math.inf, 0.0]), ("two_target_demo", ["snr_db"], math.inf)],
    )
    def test_noise_free_run_reruns_from_its_manifest(self, tmp_path, experiment, key, value):
        # a noise-free SNR is read from an `Infinity` token and written back as one
        path = write_config(tmp_path, mutated(experiment, key, value))
        assert "Infinity" in path.read_text()
        first, again = tmp_path / "first", tmp_path / "again"
        assert main_in_process("validate", "--config", path) == (0, "", "")
        assert main_in_process("run", "--config", path, "--out", first)[::2] == (0, "")
        assert main_in_process("run", "--config", first / "manifest.json", "--out", again)[::2] == (0, "")
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes()

    @pytest.mark.parametrize("below", [False, True])
    def test_unusable_output_path_is_a_config_error(self, tmp_path, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        out = blocker / "x" if below else blocker
        path = write_config(tmp_path, TINY["crlb_table"])
        code, _, err = main_in_process("run", "--config", path, "--out", out)
        assert code == 2
        assert err == f"config error: output_dir: cannot use {out}: {blocker} is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json"]
        assert blocker.read_text() == "keep"

    def test_duplicated_sweep_method_is_a_config_error(self, tmp_path):
        cfg = mutated("rmse_pslr_sweep", ["methods"], ["direct_sparse", "direct_sparse", "nested"])
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        for args in (["validate", "--config", path], ["run", "--config", path, "--out", out]):
            code, stdout, err = main_in_process(*args)
            assert (code, stdout) == (2, "")
            assert err == "config error: methods[1]: sweep method 'direct_sparse' is listed twice\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("position", [0, 1])
    def test_overflowing_rcs_target_is_a_config_error(self, tmp_path, position):
        cfg = mutated("rmse_pslr_sweep", ["methods"], ["direct_sparse"])
        cfg["scene"]["targets"].insert(position, {"distance_m": 1e100, "rcs_m2": 1.0})
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        for args in (["validate", "--config", path], ["run", "--config", path, "--out", out]):
            code, _, err = main_in_process(*args)
            assert code == 2
            assert err.startswith(f"config error: targets[{position}]: distance_m: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("position", [0, 1])
    def test_zero_amplitude_rcs_target_is_a_config_error(self, tmp_path, position):
        cfg = mutated("rmse_pslr_sweep", ["scene", "targets", 0], {"distance_m": 100.0, "rcs_m2": 0})
        if position == 1:
            cfg["scene"]["targets"].insert(0, TINY["rmse_pslr_sweep"]["scene"]["targets"][0])
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        for args in (["validate", "--config", path], ["run", "--config", path, "--out", out]):
            code, _, err = main_in_process(*args)
            assert code == 2
            assert err.startswith(f"config error: targets[{position}]: rcs_m2: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "experiment, path",
        [
            ("rmse_pslr_sweep", ["scene", "targets", 0, "amplitude"]),
            ("two_target_demo", ["amplitudes", 0]),
        ],
    )
    def test_underflowing_snr_noise_is_a_config_error(self, tmp_path, experiment, path):
        cfg = mutated(experiment, path, 1e-200)  # at 0 dB the noise variance is 1e-400
        path, out = write_config(tmp_path, cfg), tmp_path / "out"
        for args in (["validate", "--config", path], ["run", "--config", path, "--out", out]):
            code, stdout, err = main_in_process(*args)
            assert (code, stdout) == (2, "")
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert "snr_db" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--config", "CFG", "--profile", "paper"],
            *([command, "--config", "CFG", "--profile", profile]
              for command in ("crlb", "sweep", "demo") for profile in ("paper", "desk")),
            ["run", "--config", "CFG", "--threads", "2"],
        ],
    )
    def test_profile_with_a_config_is_a_usage_error(self, tmp_path, args):
        """`run` reads a config file only, and the profile commands a profile
        only.  No command takes a thread count: the affinity mask bounds the
        threads of a run."""
        path = write_config(tmp_path, TINY["crlb_table"])
        argv = [str(path) if a == "CFG" else a for a in args] + ["--out", str(tmp_path / "out")]
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            cli.main(argv)
        assert exc.value.code == 2
        rejected = args[3] if args[0] == "run" else "--config"
        assert f"unrecognized arguments: {rejected}" in err.getvalue()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("field", ["delay_span_bins", "doppler_span_bins"])
    @pytest.mark.parametrize("value", [1e308, -1e308, 5e-324, 2.0**53])
    def test_extreme_span_is_refused_or_finite(self, tmp_path, field, value):
        path, out = write_config(tmp_path, mutated("ambiguity", [field], value)), tmp_path / "out"
        code, _, err = main_in_process("run", "--config", path, "--out", out)
        if code == 2 or value > 2**20:  # a span past the bound is always refused
            assert code == 2, err
            assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
            return
        assert code == 0, err
        for name in ("ambiguity.csv", "ambiguity_delay_cut.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            cells = np.array([[float(c) for c in row.split(",")] for row in rows])
            assert cells.size and np.isfinite(cells).all(), name

    @pytest.mark.parametrize("field", ["delay_span_bins", "doppler_span_bins"])
    def test_span_bound(self, tmp_path, field):
        path, out = write_config(tmp_path, mutated("ambiguity", [field], 2**20)), tmp_path / "out"
        assert main_in_process("run", "--config", path, "--out", out)[0] == 0
        path = write_config(tmp_path, mutated("ambiguity", [field], 2**20 + 1))
        code, _, err = main_in_process("run", "--config", path, "--out", tmp_path / "refused")
        assert code == 2
        assert err == f"config error: {field}: must be <= {2**20}, got {2**20 + 1}\n"
        assert not (tmp_path / "refused").exists()

    @pytest.mark.parametrize("experiment, key", [("rmse_pslr_sweep", "trials"), ("two_target_demo", "runs")])
    @pytest.mark.parametrize("value", [0, 2**53 + 1])
    def test_renamed_key_is_reported_under_its_key(self, tmp_path, experiment, key, value):
        """`trials` and `runs` build n_trials and n_runs; an error names the
        key the config holds."""
        path = write_config(tmp_path, mutated(experiment, [key], value))
        bound = "must be >= 1" if value == 0 else f"must be <= {2**53}"
        for command, extra in (("validate", []), ("run", ["--out", tmp_path / "out"])):
            code, _, err = main_in_process(command, "--config", path, *extra)
            assert code == 2
            assert err == f"config error: {key}: {bound}, got {value}\n", err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_hole_probability_runs(self, tmp_path):
        path = write_config(tmp_path, TINY["hole_probability"])
        assert main_in_process("run", "--config", path, "--out", tmp_path / "out")[0] == 0


# Toy runs (N=64, M=8, K=16) whose spectra a huge number turns non-finite
TOY_OFDM = dict(TINY_OFDM, n_subcarriers=64, n_symbols=8)
TOY = {
    "two_target_demo": {
        "experiment": "two_target_demo", "seed": 1, "ofdm": TOY_OFDM, "n_active": 16, "runs": 2,
    },
    "rmse_pslr_sweep": {
        "experiment": "rmse_pslr_sweep", "seed": 1, "ofdm": TOY_OFDM, "n_active": 16,
        "snr_db_axis": [0.0], "trials": 2,
        "scene": {"targets": [{"distance_m": 100.0, "velocity_mps": 10.0, "amplitude": 1.0}]},
    },
}


@pytest.mark.parametrize(
    "experiment, path, value",
    [
        ("two_target_demo", ["ofdm", "carrier_freq_hz"], 1e308),
        ("two_target_demo", ["ofdm", "cp_len_s"], 1e308),
        ("two_target_demo", ["velocities_mps"], [1e308, 0]),
        ("two_target_demo", ["distances_m"], [1e308, 330]),
        ("two_target_demo", ["amplitudes"], [1, 1e308]),
        ("rmse_pslr_sweep", ["ofdm", "carrier_freq_hz"], 1e308),  # on a moving target
        ("rmse_pslr_sweep", ["scene", "targets", 0, "distance_m"], 1e308),
    ],
)
def test_non_finite_spectrum_is_a_numeric_failure(tmp_path, experiment, path, value):
    """A valid config whose numbers overflow into a NaN or infinite
    periodogram exits 3 and writes nothing, not a run of NaN cells.  Its
    alias and overflow warnings are dropped: run as a subprocess, under
    Python's default warning display, stderr holds the failure's one line."""
    path, out = write_config(tmp_path, mutated(experiment, path, value, TOY)), tmp_path / "out"
    assert main_in_process("validate", "--config", path) == (0, "", "")
    proc = run_cli("run", "--config", str(path), "--out", str(out))
    assert (proc.returncode, proc.stdout) == (3, "")
    err = proc.stderr
    assert err.startswith(f"numeric failure in {experiment}: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def table_site_lines() -> list[int]:
    """Lines of analysis.py whose code calls _SignalTable, the per-point
    table of every draw, which warns about aliasing targets when built."""
    tree = ast.parse(Path(analysis.__file__).read_text())
    return sorted({
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_SignalTable"
    })


ALIASING = {  # a target at 2,000 m, past the 1,249 m unambiguous span
    "two_target_demo": mutated("two_target_demo", ["distances_m"], [2000, 330], TOY),
    "rmse_pslr_sweep": dict(
        mutated("rmse_pslr_sweep", ["scene", "targets", 0, "distance_m"], 2000, TOY),
        methods=list(analysis.SWEEP_METHODS),
    ),
}


@pytest.mark.parametrize("experiment", ALIASING)
def test_successful_run_shows_its_warnings(tmp_path, experiment):
    """A run that succeeds shows the warnings it raised, as Python shows
    them.  The demo and the sweep build each point's table of every draw
    on one line of analysis.py, so an aliasing target warns from that line,
    which Python's display shows once."""
    path, out = write_config(tmp_path, ALIASING[experiment]), tmp_path / "out"
    proc = run_cli("run", "--config", str(path), "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        str(out / name) for name in json.loads((out / "manifest.json").read_text())["outputs"]
    ]
    warning, source = proc.stderr.splitlines()
    found = re.search(r"analysis\.py:(\d+): UserWarning: target at 2000(\.0)? m .* it will alias$", warning)
    assert found, warning
    (line,) = table_site_lines()
    assert int(found.group(1)) == line
    assert source.strip() == Path(analysis.__file__).read_text().splitlines()[line - 1].strip()


def test_gram_route_sweep_warns_from_the_table_line(tmp_path, monkeypatch):
    """With the draw opened for every constant allocation, the sweep draws
    the statistics of its virtual slots, not their grids, and an aliasing
    target still warns once, from the one line that builds the table."""
    monkeypatch.setattr(analysis, "_gram_route", lambda alloc, scene: alloc.is_constant)
    monkeypatch.setattr(_SignalTable, "grid", failing(AssertionError))
    path = write_config(tmp_path, ALIASING["rmse_pslr_sweep"])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("default")  # Python's display: once per source line
        assert main_in_process("run", "--config", path, "--out", tmp_path / "out")[0] == 0
    (warning,) = seen
    assert re.match(r"target at 2000(\.0)? m .* it will alias$", str(warning.message))
    assert Path(warning.filename) == Path(analysis.__file__)
    (line,) = table_site_lines()
    assert warning.lineno == line


def test_failed_run_raises_no_warning(tmp_path):
    """In process too, a numeric failure's warnings stay inside `main`: a
    caller that records every warning sees none, only the failure line."""
    cfg = mutated("two_target_demo", ["ofdm", "carrier_freq_hz"], 1e308, TOY)
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, stdout, err = main_in_process("run", "--config", path, "--out", tmp_path / "out")
    assert (code, stdout, seen) == (3, "", [])
    assert err.startswith("numeric failure in two_target_demo: ") and err.count("\n") == 1, err


def test_run_writes_the_runner_artifacts_in_order(tmp_path, monkeypatch):
    """A runner's tables are written as CSV and its other artifacts as
    JSON, each under its name, and manifest.json and stdout list them in
    the runner's order."""
    artifacts = {
        "b.csv": (["x", "y"], [np.array([0.5, 2.0]), ["p", "q"]], "note=1"),
        "a.json": {"value": 1.5},
        "c.csv": (["n"], [[3]]),
    }
    monkeypatch.setattr(cli, "_build", lambda cfg: lambda: artifacts)
    path, out = write_config(tmp_path, TINY["crlb_table"]), tmp_path / "out"
    code, stdout, err = main_in_process("run", "--config", path, "--out", out)
    assert (code, err) == (0, "")
    assert stdout.splitlines() == [str(out / name) for name in artifacts]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == list(artifacts)
    assert sorted(p.name for p in out.iterdir()) == ["a.json", "b.csv", "c.csv", "manifest.json"]
    assert (out / "b.csv").read_bytes() == b"# note=1\nx,y\r\n0.5,p\r\n2,q\r\n"
    assert (out / "a.json").read_text() == '{\n  "value": 1.5\n}\n'
    assert (out / "c.csv").read_bytes() == b"n\r\n3\r\n"


def documented_non_finite_cells() -> dict[str, str]:
    """{CSV column: "NaN" or "+inf"}: the cells that the exit-code paragraph
    of the cli docstring lets a successful run leave non-finite."""
    allowed = {}
    for line in cli.__doc__.splitlines():
        item = re.match(r"\s*- (.+?) (?:is|are) (NaN|\+inf)\b", line)
        if item:
            allowed.update(dict.fromkeys(re.findall(r"`(\w+)`", item.group(1)), item.group(2)))
    return allowed


NON_FINITE_ALLOWED = documented_non_finite_cells()


def undocumented_non_finite_cells(out: Path) -> list[str]:
    """`file:column=cell` of every numeric CSV cell in `out` that is NaN or
    infinite where the cli docstring does not allow it."""
    found = []
    for path in sorted(out.glob("*.csv")):
        rows = [row for row in csv.reader(path.read_text().splitlines()) if not row[0].startswith("#")]
        for row in rows[1:]:
            for column, cell in zip(rows[0], row):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a label, not a number
                allowed = NON_FINITE_ALLOWED.get(column)
                if not (math.isfinite(value) or (allowed == "NaN" and math.isnan(value))
                        or (allowed == "+inf" and value == math.inf)):
                    found.append(f"{path.name}:{column}={cell}")
    return found


def test_documented_non_finite_cells_are_read():
    assert NON_FINITE_ALLOWED and set(NON_FINITE_ALLOWED.values()) <= {"NaN", "+inf"}


def leaf_paths(node, prefix=()):
    """Every key path in a config, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, prefix + (key,))


MUTATIONS = [
    DROP, "x", None, True, [], {}, math.nan, math.inf, -math.inf, 0, -1, 0.5, 1e9,
    1e308, -1e308, 5e-324, 10**400, 2**63, 2**53 + 1,
]
# Noise-free copies of the sweep and the demo, where no noise hides a
# spectrum that underflows to zero
NOISE_FREE = {
    "rmse_pslr_sweep": mutated("rmse_pslr_sweep", ["snr_db_axis"], [math.inf]),
    "two_target_demo": mutated("two_target_demo", ["snr_db"], math.inf),
}
FIELDS = [("", exp, path) for exp in TINY for path in leaf_paths(TINY[exp])] + [
    ("noise_free:", exp, path) for exp in NOISE_FREE for path in leaf_paths(NOISE_FREE[exp])
]


# every (field, value) pair; a value's id stops at 24 characters (10**400 has 401)
@pytest.mark.parametrize("value", MUTATIONS, ids=lambda v: "DROP" if v is DROP else repr(v)[:24])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"{f[0]}{f[1]}:{'.'.join(map(str, f[2]))}")
def test_any_single_field_mutation_keeps_the_exit_code_contract(field, value):
    base, experiment, path = field
    if value is DROP and isinstance(path[-1], int):
        value = "x"  # list entries cannot be dropped without renumbering the rest
    cfg = mutated(experiment, list(path), value, NOISE_FREE if base else TINY)
    named = next(key for key in reversed(path) if isinstance(key, str))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = write_config(Path(tmp), cfg), Path(tmp) / "out"
        codes = set()
        for command in ("validate", "run"):
            extra = ["--out", out] if command == "run" else []
            code, _, err = main_in_process(command, "--config", cfg_path, *extra)
            assert code in (0, 2, 3)
            assert "Traceback" not in err
            if code == 2:
                assert names(named, err), err
                assert not out.exists()
            codes.add(code)
        assert len(codes) == 1 or codes == {0, 3}  # validate and run agree on the config
        if code == 0:  # run succeeded: only the documented cells may be non-finite
            assert undocumented_non_finite_cells(out) == []


def test_underflowing_spectrum_is_a_numeric_failure(tmp_path):
    """A noise-free target so faint that the virtual aperture's |Y|**2
    underflows to zero everywhere exits 3 with one line and writes nothing
    (the fuzz covers 5e-324, where every spectrum underflows)."""
    cfg = mutated("rmse_pslr_sweep", ["scene", "targets", 0, "amplitude"], 1e-170, NOISE_FREE)
    cfg["methods"] = list(analysis.SWEEP_METHODS)
    path = write_config(tmp_path, cfg)
    assert main_in_process("validate", "--config", path) == (0, "", "")
    code, stdout, err = main_in_process("run", "--config", path, "--out", tmp_path / "out")
    assert (code, stdout) == (3, "")
    assert err.startswith("numeric failure in rmse_pslr_sweep: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("amplitude", [5e-324, 1e-170])
def test_underflowing_demo_spectrum_is_a_numeric_failure(tmp_path, amplitude):
    """The demo too: at 5e-324 its spectra underflow to zero everywhere, at
    1e-170 only the virtual one (|Y|**2 of 1e-340)."""
    cfg = mutated("two_target_demo", ["amplitudes"], [amplitude, amplitude], NOISE_FREE)
    cfg = dict(cfg, ofdm=TOY_OFDM, n_active=16, runs=2)
    path = write_config(tmp_path, cfg)
    assert main_in_process("validate", "--config", path) == (0, "", "")
    code, stdout, err = main_in_process("run", "--config", path, "--out", tmp_path / "out")
    assert (code, stdout) == (3, "")
    assert err.startswith("numeric failure in two_target_demo: ") and err.count("\n") == 1, err
    assert err.endswith(" delay spectrum is zero everywhere\n"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
