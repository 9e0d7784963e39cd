"""Exact bytes of the CLI's CSV artifacts on tiny fixed inputs.

The demo and sweep runners lay out results built from hand-picked floats
(no FFT, no BLAS), so the expected text pins the artifact format itself:
the `# comment` line, the header, the `.12g` floats, integer columns and
the row order.  The other artifacts come from toy runs: their CSV text is
pinned exactly and manifest.json by SHA-256.  crlb_random.json prints
full-precision floats, whose last digits follow the BLAS summation order,
so only its .12g rendering is pinned.  The demo and sweep toy runs pin
manifest.json, whose `outputs` list the artifacts in order, and their
seeded numbers to a relative 1e-9, since their CSV cells follow FFT
round-off.
"""
import contextlib
import csv
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

import sparse_isac as si
from sparse_isac import cli

PARAMS = si.OfdmParams(
    n_subcarriers=8, n_symbols=2, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9
)

# Edge cases of the number format: zero, thirds, tiny and huge magnitudes,
# more digits than .12g keeps.
AXIS = np.array([0.0, 2.5e-9, 1.0 / 3.0, 1e3])
VALUES = np.array([0.0, 1.0 / 7.0, 12345678.9012345678, 1e-300])


def periodogram():
    return si.Periodogram(
        axis=AXIS.copy(), values=VALUES.copy(), domain="delay", method="zero_fill",
        oversample=1, params=PARAMS,
    )


def demo_result():
    cfg = si.TwoTargetDemoConfig(params=PARAMS, n_active=4, n_runs=3)
    return si.TwoTargetDemoResult(
        config=cfg,
        direct_success=np.array([True, False, False]),
        virtual_success=np.array([True, True, False]),
        example_direct=periodogram(),
        example_virtual=periodogram(),
    )


@pytest.fixture
def written(tmp_path):
    """Text of one artifact a runner returns: written(artifacts, name)
    writes artifacts[name] with the CLI's writer and reads the bytes back."""

    def run(artifacts, name) -> str:
        path = tmp_path / name
        cli._write_csv(path, *artifacts[name])
        return path.read_bytes().decode()

    return run


@pytest.mark.parametrize("comment", ["snr_definition=per_active_re"])
def test_periodogram_csv(written, monkeypatch, comment):
    result = demo_result()
    monkeypatch.setattr(cli, "two_target_demo", lambda cfg: result)
    artifacts = cli._exp_two_target_demo(result.config)
    text = written(artifacts, "demo_direct_periodogram.csv")
    assert written(artifacts, "demo_virtual_periodogram.csv") == text
    assert text == f"# {comment}\n" + (
        "axis_value,magnitude\r\n"
        "0,0\r\n"
        "2.5e-09,0.142857142857\r\n"
        "0.333333333333,12345678.9012\r\n"
        "1000,1e-300\r\n"
    )


def test_demo_periodograms_keep_their_sides(written, monkeypatch):
    """Each example periodogram of the demo goes to its own method's file."""
    virtual = si.Periodogram(
        axis=AXIS.copy(), values=VALUES[::-1].copy(), domain="delay", method="autocorrelation",
        oversample=1, params=PARAMS,
    )
    result = dataclasses.replace(demo_result(), example_virtual=virtual)
    monkeypatch.setattr(cli, "two_target_demo", lambda cfg: result)
    artifacts = cli._exp_two_target_demo(result.config)
    assert written(artifacts, "demo_direct_periodogram.csv").endswith("\r\n1000,1e-300\r\n")
    assert written(artifacts, "demo_virtual_periodogram.csv") == (
        "# snr_definition=per_active_re\n"
        "axis_value,magnitude\r\n"
        "0,1e-300\r\n"
        "2.5e-09,12345678.9012\r\n"
        "0.333333333333,0.142857142857\r\n"
        "1000,0\r\n"
    )


def test_two_target_demo_summary_csv(written, monkeypatch):
    result = demo_result()
    monkeypatch.setattr(cli, "two_target_demo", lambda cfg: result)
    assert written(cli._exp_two_target_demo(result.config), "demo_summary.csv") == (
        "# snr_definition=per_active_re\n"
        "method,both_detected_rate,runs\r\n"
        "direct_sparse,0.333333333333,3\r\n"
        "autocorrelation,0.666666666667,3\r\n"
    )


def test_sweep_result_csv(written, monkeypatch):
    cfg = si.SweepConfig(
        params=PARAMS, n_active=4, snr_db_axis=(0.0, 12.5, float("inf")),
        methods=("nested", "direct_sparse"), n_trials=3,
    )

    def per_method(nested, direct):
        return {"nested": np.array(nested), "direct_sparse": np.array(direct)}

    result = si.SweepResult(
        config=cfg,
        rmse_m=per_method([1.0 / 3.0, 0.25, 0.0], [float("nan"), 2.0, 1e-9]),
        rmse_ci_m=per_method([0.1, 0.0, 0.0], [float("nan"), 0.5, 0.0]),
        pslr_db=per_method([13.26, float("inf"), 40.123456789012345], [3.0, 6.0, 9.0]),
        pslr_ci_db=per_method([0.0, 0.0, 1.0], [0.5, 0.25, 0.125]),
        miss_rate=per_method([0.0, 1.0 / 3.0, 0.0], [1.0, 0.0, 0.0]),
        pslr_samples={},
        error_samples={},
    )
    monkeypatch.setattr(cli, "monte_carlo_sweep", lambda cfg: result)
    assert written(cli._exp_rmse_pslr_sweep(cfg), "sweep.csv") == (
        "# snr_definition=per_active_re\n"
        "snr_db,method,rmse_m,rmse_ci,pslr_db,pslr_ci,miss_rate,trials\r\n"
        "0,direct_sparse,nan,nan,3,0.5,1,3\r\n"
        "0,nested,0.333333333333,0.1,13.26,0,0,3\r\n"
        "12.5,direct_sparse,2,0.5,6,0.25,0,3\r\n"
        "12.5,nested,0.25,0,inf,0,0.333333333333,3\r\n"
        "inf,direct_sparse,1e-09,0,9,0.125,0,3\r\n"
        "inf,nested,0,0,40.123456789,1,0,3\r\n"
    )


def test_two_target_demo_csv(written, monkeypatch):
    result = demo_result()
    monkeypatch.setattr(cli, "two_target_demo", lambda cfg: result)
    assert written(cli._exp_two_target_demo(result.config), "demo_runs.csv") == (
        "# snr_definition=per_active_re\n"
        "run,direct_both_detected,virtual_both_detected\r\n"
        "0,1,1\r\n1,0,1\r\n2,0,0\r\n"
    )


TOY_OFDM = {
    "n_subcarriers": 16, "n_symbols": 2, "subcarrier_spacing_hz": 120e3,
    "carrier_freq_hz": 24e9, "cp_len_s": 0.0,
}

# Toy runs: expected CSV text (none for the demo and the sweep, whose cells
# follow FFT round-off, see SEEDED), and the SHA-256 of manifest.json.
# Delays and Dopplers sit between the bins, so no cell of the surface is an
# analytic zero that round-off would print as noise digits.
CLI_RUNS = {
    "crlb_table": (
        {
            "experiment": "crlb_table", "seed": 1, "ofdm": TOY_OFDM,
            "n_active": 4, "amplitude": 1.0, "noise_variance_w": 0.5,
        },
        {
            "crlb_table.csv": (
                "allocation,n_active,extent,crlb_delay_s2,crlb_range_m2,range_rmse_floor_m\r\n"
                "full,16,15,6.46708943796e-16,14.5308253093,3.81193196546\r\n"
                "random,4,15,1.94584991938e-15,43.7210673023,6.61219080958\r\n"
                "nested,4,5,1.49071892129e-14,334.947837638,18.3015801951\r\n"
                "clustered,4,3,4.39762081781e-14,988.096121032,31.4339962625\r\n"
            ),
        },
        "b0f253aa451c76ffdee0856b033213e752bfc47a12dd444a4840aca21fa25f1a",
    ),
    "ambiguity": (
        {
            "experiment": "ambiguity", "seed": 1, "ofdm": TOY_OFDM,
            "allocation": {"pattern": "random", "n_active": 4},
            "delay_points": 4, "doppler_points": 3,
            "delay_span_bins": 1.5, "doppler_span_bins": 0.5,
        },
        {
            "ambiguity.csv": (
                "delay_s,doppler_hz,direct_magnitude,virtual_magnitude\r\n"
                "-7.8125e-07,-30000,0.235698368413,0.0785648254982\r\n"
                "-2.60416666667e-07,-30000,0.386505226681,0.211264117707\r\n"
                "2.60416666667e-07,-30000,0.386505226681,0.211264117707\r\n"
                "7.8125e-07,-30000,0.235698368413,0.0785648254982\r\n"
                "-7.8125e-07,0,0.333327829239,0.111107441745\r\n"
                "-2.60416666667e-07,0,0.546600933501,0.298772580504\r\n"
                "2.60416666667e-07,0,0.546600933501,0.298772580504\r\n"
                "7.8125e-07,0,0.333327829239,0.111107441745\r\n"
                "-7.8125e-07,30000,0.235698368413,0.0785648254982\r\n"
                "-2.60416666667e-07,30000,0.386505226681,0.211264117707\r\n"
                "2.60416666667e-07,30000,0.386505226681,0.211264117707\r\n"
                "7.8125e-07,30000,0.235698368413,0.0785648254982\r\n"
            ),
            "ambiguity_delay_cut.csv": (
                "delay_s,direct_magnitude,virtual_magnitude\r\n"
                "-7.8125e-07,0.333327829239,0.111107441745\r\n"
                "-2.60416666667e-07,0.546600933501,0.298772580504\r\n"
                "2.60416666667e-07,0.546600933501,0.298772580504\r\n"
                "7.8125e-07,0.333327829239,0.111107441745\r\n"
            ),
        },
        "e736a505aad5be03178db6d29c0a7f1032f02d7531a285bbd13c0c152327d74b",
    ),
    # endpoints only, a random subset, the full band
    "hole_probability": (
        {
            "experiment": "hole_probability", "seed": 1, "ofdm": TOY_OFDM,
            "n_active_axis": [2, 4, 16], "trials": 10,
        },
        {
            "hole_fill.csv": (
                "n_active,lag,fill_probability,ci_halfwidth\r\n"
                "2,1,0,0\r\n2,2,0,0\r\n2,3,0,0\r\n2,4,0,0\r\n2,5,0,0\r\n2,6,0,0\r\n"
                "2,7,0,0\r\n2,8,0,0\r\n2,9,0,0\r\n2,10,0,0\r\n2,11,0,0\r\n2,12,0,0\r\n"
                "2,13,0,0\r\n2,14,0,0\r\n2,15,1,0\r\n"
                "4,1,0.5,0.309903210697\r\n4,2,0.4,0.303641894343\r\n"
                "4,3,0.5,0.309903210697\r\n4,4,0.3,0.284030984225\r\n"
                "4,5,0.6,0.303641894343\r\n4,6,0.3,0.284030984225\r\n"
                "4,7,0.3,0.284030984225\r\n4,8,0.3,0.284030984225\r\n"
                "4,9,0.2,0.247922568557\r\n4,10,0.6,0.303641894343\r\n"
                "4,11,0.1,0.185941926418\r\n4,12,0.4,0.303641894343\r\n"
                "4,13,0.3,0.284030984225\r\n4,14,0.2,0.247922568557\r\n4,15,1,0\r\n"
                "16,1,1,0\r\n16,2,1,0\r\n16,3,1,0\r\n16,4,1,0\r\n16,5,1,0\r\n16,6,1,0\r\n"
                "16,7,1,0\r\n16,8,1,0\r\n16,9,1,0\r\n16,10,1,0\r\n16,11,1,0\r\n"
                "16,12,1,0\r\n16,13,1,0\r\n16,14,1,0\r\n16,15,1,0\r\n"
            ),
            "hole_fill_summary.csv": (
                "n_active,min_fill_probability,all_filled_probability,all_filled_ci,trials\r\n"
                "2,0,0,0,10\r\n"
                "4,0.1,0,0,10\r\n"
                "16,1,1,0,10\r\n"
            ),
        },
        "494dbe3d93058f0d4260a9392e7f0fa5305098524461a92a598e5f046023c71c",
    ),
    "two_target_demo": (
        {"experiment": "two_target_demo", "seed": 1, "ofdm": TOY_OFDM, "n_active": 8, "runs": 2},
        {},
        "7f27fe8766d2b19b134777085d9b46c3d11479e3eb6bfc969bf276691307cf0b",
    ),
    "rmse_pslr_sweep": (
        {
            "experiment": "rmse_pslr_sweep", "seed": 1, "ofdm": TOY_OFDM, "n_active": 4,
            "snr_db_axis": [0.0, 10.0], "trials": 2,
            "methods": ["direct_sparse", "autocorrelation", "nested"],
        },
        {},
        "166eec38525dcedbbf7ff5113451d3324d28592b5c7fca5d8c14904aab765ee2",
    ),
}


# The seeded numbers of the toy sweep and demo, to a relative 1e-9: a change
# to the noise stream or to the map from trial to seed moves them.  Per CSV,
# its rows below the header; per example periodogram, (row of the largest
# magnitude, sum of the magnitudes).
SEEDED = {
    "rmse_pslr_sweep": {
        "sweep.csv": [
            [0, "autocorrelation", 9.59709270644, 2.03279517015, 1.48884886375, 0.26119814013, 0, 2],
            [0, "direct_sparse", 10.0807304339, 3.73155882219, 1.00718241414, 0.225884950681, 0, 2],
            [0, "nested", 5.93165086238, 0, 2.54152686073, 0.32560258855, 0.5, 2],
            [10, "autocorrelation", 1.68316633127, 1.5843401087, 2.66922834336, 0.39154013398, 0, 2],
            [10, "direct_sparse", 1.60225527848, 1.5169226204, 1.2170470683, 0.105968191355, 0, 2],
            [10, "nested", 6.51604797265, 3.61480694008, 2.59578578604, 0.480922226739, 0, 2],
        ],
    },
    "two_target_demo": {
        "demo_runs.csv": [[0, 0, 0], [1, 0, 1]],
        "demo_summary.csv": [["direct_sparse", 0, 2], ["autocorrelation", 0.5, 2]],
        "demo_direct_periodogram.csv": (33, 63.000941630047976),
        "demo_virtual_periodogram.csv": (109, 181.05697350774298),
    },
}


def number_or_label(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def csv_rows(path):
    """Rows of a CSV artifact below its header, numeric cells as floats."""
    rows = [row for row in csv.reader(path.read_text().splitlines()) if not row[0].startswith("#")]
    return [[number_or_label(cell) for cell in row] for row in rows[1:]]


def close(value):
    return value if isinstance(value, str) else pytest.approx(value, rel=1e-9)


def run_toy(cfg, directory):
    """Run one toy config through `cli.main` into directory/out; stdout
    must list the artifact paths in the order of manifest.json."""
    directory.mkdir(exist_ok=True)
    path, out = directory / "cfg.json", directory / "out"
    path.write_text(json.dumps(cfg))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert stdout.getvalue().splitlines() == [str(out / name) for name in outputs]
    return out


@pytest.mark.parametrize("experiment", sorted(CLI_RUNS))
def test_cli_artifacts(tmp_path, experiment):
    cfg, expected, manifest_sha256 = CLI_RUNS[experiment]
    out = run_toy(cfg, tmp_path)
    for name, text in expected.items():
        assert (out / name).read_bytes().decode() == text
    for name, pinned in SEEDED.get(experiment, {}).items():
        rows = csv_rows(out / name)
        if isinstance(pinned, tuple):  # an example periodogram
            magnitudes = [magnitude for _, magnitude in rows]
            assert (int(np.argmax(magnitudes)), sum(magnitudes)) == (pinned[0], close(pinned[1]))
        else:
            assert rows == [[close(cell) for cell in row] for row in pinned]
    if experiment == "crlb_table":
        report = json.loads((out / "crlb_random.json").read_text())
        assert f"{report['crlb_range_m2']:.12g}" == "43.7210673023"
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == manifest_sha256


def test_hole_probability_rerun_is_byte_identical(tmp_path):
    cfg = CLI_RUNS["hole_probability"][0]
    first, second = (run_toy(cfg, tmp_path / name) for name in ("first", "second"))
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
