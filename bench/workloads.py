"""The benchmark workloads.

Each workload is a closed loop with one caller: the next call starts when
the previous one returns, and `monte_carlo_sweep` always runs with
threads=1.  A workload builds its inputs from the benchmark seed (every
master, allocation, grid and CLI seed is derived from it), executes one
call at a time, and checks each call's outputs with a seed-independent
test; the library only ever sees the generated inputs.  `toy=True`
shrinks every size for the smoke mode.

`reference_outputs` runs a small case of the workload's own paths; built
with REFERENCE_SEED and toy=False, its numbers are compared with
bench/reference.json.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

NAMES = ("sweep_desk", "sweep_paper", "estimate_desk", "cli_desk")

REFERENCE_SEED = 20260417

DESK = {"n_subcarriers": 256, "n_symbols": 32, "subcarrier_spacing_hz": 120e3, "carrier_freq_hz": 24e9}
PAPER = {"n_subcarriers": 1000, "n_symbols": 720, "subcarrier_spacing_hz": 120e3, "carrier_freq_hz": 24e9}
TOY = {"n_subcarriers": 64, "n_symbols": 8, "subcarrier_spacing_hz": 120e3, "carrier_freq_hz": 24e9}

# Highest-SNR checks: a sweep RMSE must stay below this share of one range bin.
RMSE_BIN_SHARE = 0.25


class CallResult(NamedTuple):
    units: int
    failed: int  # units that raised, exited non-zero or failed their check
    unexpected: int  # failed units not explained by a recorded known defect


def derive(seed: int, *key: int) -> int:
    """A 63-bit seed derived from the benchmark seed and a key path."""
    state = np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def _rel_err(value, ref) -> float:
    """Largest |value - ref| relative to the largest finite |ref|; non-finite
    entries must match exactly."""
    value = np.asarray(value, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if value.shape != ref.shape:
        return 1.0
    finite = np.isfinite(ref)
    if not np.array_equal(finite, np.isfinite(value)) or not np.array_equal(
        value[~finite], ref[~finite], equal_nan=True
    ):
        return 1.0
    if not finite.any():
        return 0.0
    diff = float(np.max(np.abs(value[finite] - ref[finite])))
    scale = float(np.max(np.abs(ref[finite])))
    return diff / scale if scale > 0 else diff


def max_rel_err(outputs: dict, reference: dict) -> float:
    """Worst `_rel_err` over the reference quantities; a missing one counts as 1."""
    worst = 0.0
    for key, ref in reference.items():
        worst = max(worst, _rel_err(outputs[key], ref) if key in outputs else 1.0)
    return worst


class Workload:
    """A call is `cycle_len`-periodic in its index; a pass runs whole cycles.

    `call(i, tracer)` runs call i; a traced pass passes its tracer, under
    which a workload may open labelled spans of its own.
    """

    cycle_len = 1
    output_bytes = 0  # artifact bytes written so far

    def close(self) -> None:
        pass


class Sweep(Workload):
    """`monte_carlo_sweep`, one call per SNR point, cycling the points in order."""

    def __init__(self, si, seed, ofdm, n_active, snr_points, methods, trials, reference_case):
        self.si = si
        self.seed = seed
        self.params = si.OfdmParams(**ofdm)
        self.configs = [
            si.SweepConfig(
                params=self.params,
                n_active=n_active,
                snr_db_axis=(snr,),
                methods=methods,
                n_trials=trials,
            )
            for snr in snr_points
        ]
        self.top_snr = max(snr_points)
        self.cycle_len = len(self.configs)
        self.reference_case = reference_case  # (ofdm, n_active, snr_points, methods, trials)

    def call(self, i: int, tracer=None) -> CallResult:
        cfg = dataclasses.replace(self.configs[i % self.cycle_len], master_seed=derive(self.seed, i))
        try:
            result = self.si.monte_carlo_sweep(cfg, threads=1)
        except Exception:
            return CallResult(cfg.n_trials, cfg.n_trials, cfg.n_trials)
        if self.output_ok(result, cfg.snr_db_axis[0] == self.top_snr):
            return CallResult(cfg.n_trials, 0, 0)
        return CallResult(cfg.n_trials, cfg.n_trials, cfg.n_trials)

    def output_ok(self, result, top: bool) -> bool:
        """All aggregates finite; at the top SNR point no misses and an RMSE
        well under one range bin for every method."""
        bin_m = self.params.range_bin_m
        for m in result.config.methods:
            for agg in (result.rmse_m, result.rmse_ci_m, result.pslr_db, result.pslr_ci_db, result.miss_rate):
                if not np.all(np.isfinite(agg[m])):
                    return False
            if top and (np.any(result.miss_rate[m] > 0) or np.any(result.rmse_m[m] >= RMSE_BIN_SHARE * bin_m)):
                return False
        return True

    def reference_outputs(self) -> dict:
        ofdm, n_active, snr_points, methods, trials = self.reference_case
        cfg = self.si.SweepConfig(
            params=self.si.OfdmParams(**ofdm),
            n_active=n_active,
            snr_db_axis=snr_points,
            methods=methods,
            n_trials=trials,
            master_seed=self.seed,
        )
        result = self.si.monte_carlo_sweep(cfg, threads=1)
        out = {}
        for m in methods:
            for key in ("rmse_m", "rmse_ci_m", "pslr_db", "pslr_ci_db", "miss_rate"):
                out[f"{m}.{key}"] = getattr(result, key)[m].tolist()
        return out


class Estimate(Workload):
    """Public-API pipeline on one moving target, two grids per call.

    Even-numbered grids draw a fresh random allocation, odd-numbered grids
    reuse one nested allocation, so the ML steering cache misses on one
    half and can hit on the other.  A call runs one grid of each kind, so
    that every call costs about the same.
    """

    DISTANCE_M = 200.0
    VELOCITY_MPS = 15.0
    SNR_DB = 0.0

    def __init__(self, si, seed, ofdm, n_active):
        self.si = si
        self.seed = seed
        self.params = si.OfdmParams(**ofdm)
        self.n_active = n_active
        target = si.Target(distance_m=self.DISTANCE_M, velocity_mps=self.VELOCITY_MPS, amplitude=1.0)
        self.scene = si.Scene(targets=(target,), snr_db=self.SNR_DB)
        self.doppler_hz = si.delay_doppler(target, self.params)[1]
        inner, outer = si.nested_params_for(n_active, self.params.n_subcarriers)
        self.nested = si.make_allocation(self.params, "nested", inner=inner, outer=outer)

    def outputs(self, i: int) -> dict:
        si, params = self.si, self.params
        if i % 2 == 0:
            alloc = si.make_allocation(params, "random", n_active=self.n_active, seed=derive(self.seed, 1, i))
        else:
            alloc = self.nested
        grid = si.synthesize(self.scene, alloc, params, seed=derive(self.seed, 2, i))
        zero_fill = si.zero_fill_periodogram(grid)
        ml = si.ml_single_target(grid)
        vs, _ = si.build_virtual_signal(grid)
        virtual = si.virtual_periodogram(vs, params)
        doppler = si.doppler_periodogram(grid)
        half_c = si.SPEED_OF_LIGHT / 2.0
        out = {"ml_range_m": ml.range_m, "ml_peak": ml.peak_value}
        for key, p, scale in (("zero_fill", zero_fill, half_c), ("virtual", virtual, half_c), ("doppler", doppler, 1.0)):
            peaks = si.detect_peaks(p)
            if peaks.peaks:
                out[f"{key}_peak"] = peaks.peaks[0].refined_axis_value * scale
                out[f"{key}_magnitude"] = peaks.peaks[0].magnitude
        return out

    def call(self, i: int, tracer=None) -> CallResult:
        failed = 0
        for grid, label in ((2 * i, "fresh"), (2 * i + 1, "repeat")):
            with tracer.span("bench.grid", label) if tracer else contextlib.nullcontext():
                try:
                    ok = self.output_ok(self.outputs(grid))
                except Exception:
                    ok = False
            failed += not ok
        return CallResult(2, failed, failed)

    def output_ok(self, out: dict) -> bool:
        """Zero-fill, ML and virtual delay estimates and the Doppler peak
        within one bin of the truth."""
        range_bin = self.params.range_bin_m
        doppler_bin = 1.0 / (self.params.n_symbols * self.params.symbol_dur_s)
        checks = (
            ("zero_fill_peak", self.DISTANCE_M, range_bin),
            ("ml_range_m", self.DISTANCE_M, range_bin),
            ("virtual_peak", self.DISTANCE_M, range_bin),
            ("doppler_peak", self.doppler_hz, doppler_bin),
        )
        return all(key in out and abs(out[key] - truth) <= tol for key, truth, tol in checks)

    def reference_outputs(self) -> dict:
        out = {}
        for i in (0, 1):
            for key, val in self.outputs(i).items():
                out[f"grid{i}.{key}"] = val
        return out


class Cli(Workload):
    """In-process `sparse_isac.cli.main(["run", ...])` over four desk configs.

    One call runs the four configs in a fixed order, so a call is four
    units.  Each run writes into a fresh directory under the benchmark's
    own scratch directory, which is removed after the unit.
    """

    # Known defect at the commit that introduced this benchmark: every
    # hole_probability run raises TypeError, because the CLI passes a spawned
    # SeedSequence to hole_fill_curve, which calls np.random.SeedSequence(seed)
    # on it.  Those runs count as failed units, not as wrong outputs.
    KNOWN_DEFECT = ("hole_probability", TypeError)
    # Artifacts too large to keep in bench/reference.json.
    UNREFERENCED = ("ambiguity.csv", "demo_direct_periodogram.csv", "demo_virtual_periodogram.csv")

    def __init__(self, si, seed, scratch: Path, toy: bool):
        self.cli = importlib.import_module("sparse_isac.cli")
        self.seed = seed
        scratch.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        ofdm = dict(TOY if toy else DESK, cp_len_s=0.0)
        n_active = 16 if toy else 64
        configs = {
            "crlb_table": {"n_active": n_active},
            "hole_probability": {
                "n_active_axis": [8, 16] if toy else [16, 32, 64, 128],
                "trials": 20 if toy else 1000,
            },
            "ambiguity": {
                "allocation": {"pattern": "random", "n_active": n_active},
                "delay_points": 41 if toy else 401,
                "doppler_points": 11 if toy else 101,
            },
            "two_target_demo": {
                "ofdm": dict(ofdm, n_symbols=32 if toy else 128),
                "n_active": n_active,
                "snr_db": -10.0,
                "runs": 2 if toy else 20,
            },
        }
        self.configs = []
        for experiment, extra in configs.items():
            cfg = {"experiment": experiment, "ofdm": ofdm, "seed": 0, **extra}
            path = self.dir / f"{experiment}.json"
            path.write_text(json.dumps(cfg))
            self.configs.append((experiment, path))
        self.out = self.dir / "run"

    def _run(self, experiment: str, path: Path, seed: int) -> tuple[bool, bool, dict]:
        """(ok, known_defect, parsed artifacts) of one CLI run."""
        artifacts = {}
        argv = ["run", "--config", str(path), "--out", str(self.out), "--seed", str(seed)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse exits instead of returning
                    code = exc.code
            ok = code == 0 and self._parse_artifacts(artifacts)
            return ok, False, artifacts
        except Exception as exc:
            known = (experiment, type(exc)) == self.KNOWN_DEFECT
            return False, known, artifacts
        finally:
            if self.out.exists():
                self.output_bytes += sum(f.stat().st_size for f in self.out.iterdir() if f.is_file())
                shutil.rmtree(self.out)

    def _parse_artifacts(self, artifacts: dict) -> bool:
        """Every artifact listed in manifest.json exists and parses."""
        try:
            manifest = json.loads((self.out / "manifest.json").read_text())
            for name in manifest["outputs"]:
                text = (self.out / name).read_text()
                if name.endswith(".json"):
                    artifacts[name] = json.loads(text)
                    continue
                rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
                if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
                    return False
                artifacts[name] = rows
        except (OSError, ValueError, KeyError, TypeError):
            return False
        return True

    def call(self, i: int, tracer=None) -> CallResult:
        failed = unexpected = 0
        for k, (experiment, path) in enumerate(self.configs):
            ok, known, _ = self._run(experiment, path, derive(self.seed, i, k))
            failed += not ok
            unexpected += not ok and not known
        return CallResult(len(self.configs), failed, unexpected)

    def reference_outputs(self) -> dict:
        out = {}
        for k, (experiment, path) in enumerate(self.configs):
            _, _, artifacts = self._run(experiment, path, derive(self.seed, 0, k))
            for name, content in artifacts.items():
                if name in self.UNREFERENCED:
                    continue
                if name.endswith(".json"):
                    out.update(_json_numbers(f"{experiment}.{name}", content))
                    continue
                header, rows = content[0], content[1:]
                for col, title in enumerate(header):
                    try:
                        out[f"{experiment}.{name}.{title}"] = [float(r[col]) for r in rows]
                    except ValueError:
                        pass  # label column
        return out

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _json_numbers(prefix: str, value) -> dict:
    if isinstance(value, dict):
        out = {}
        for key, val in value.items():
            out.update(_json_numbers(f"{prefix}.{key}", val))
        return out
    if isinstance(value, list):
        try:
            return {prefix: np.asarray(value, dtype=np.float64).tolist()}
        except (TypeError, ValueError):
            return {}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {prefix: float(value)}
    return {}


def make(name: str, si, seed: int, toy: bool, scratch: Path):
    """Build workload `name`; this is the input-construction part of set-up."""
    if name == "sweep_desk":
        ofdm = TOY if toy else DESK
        n_active = 16 if toy else 64
        methods = si.analysis.SWEEP_METHODS
        return Sweep(
            si, seed, ofdm, n_active,
            # toy grids integrate too little energy for -10 dB
            snr_points=(0.0, 10.0, math.inf) if toy else (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, math.inf),
            methods=methods,
            trials=2 if toy else 20,
            reference_case=(DESK, 64, (0.0, math.inf), methods, 3),
        )
    if name == "sweep_paper":
        ofdm = TOY if toy else PAPER
        n_active = 16 if toy else 200
        methods = ("full_bandwidth", "equivalent_bandwidth", "direct_sparse", "autocorrelation")
        return Sweep(
            si, seed, ofdm, n_active,
            snr_points=(5.0, 15.0) if toy else (-5.0, 5.0, 15.0),
            methods=methods,
            trials=1 if toy else 2,
            reference_case=(PAPER, 200, (5.0,), methods, 1),
        )
    if name == "estimate_desk":
        return Estimate(si, seed, TOY if toy else DESK, 16 if toy else 64)
    if name == "cli_desk":
        return Cli(si, seed, scratch, toy)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
