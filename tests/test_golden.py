"""Recorded outputs: "no output moved" as a tier-1 check.

Each run is at seed 5.  The CLI runs are the run configs in
tests/golden/*.json and the desk `sweep`, `demo` and `crlb` profiles; the
estimator runs are the `ml`, `doppler` and `virtual` lines, one per grid of
GRIDS, of a one-target scene at 0 dB.  tests/golden/outputs.json holds, per
CLI run, CSV artifact and numeric column, the column's length, argmax, max,
sum and sum of squares, read back from the written .12g text; per estimator
run and grid, the line's numbers.  The test runs each in-process and
compares integers exactly and floats at a relative 1e-12, not bytes: NumPy
releases need not agree on FFT round-off.  On a mismatch it prints the
largest relative change of each entry that moved, so round-off reads apart
from a moved noise stream.

The record also holds the SHA-256 of each artifact (a CLI run's CSV files,
an estimator run's lines as written by the write mode below) and the
NumPy version and OpenBLAS kernel (core) they were recorded with.  Where
both are the same, the test compares the bytes too: OpenBLAS picks its
kernels by CPU, and the Gram route's product sums in the kernel's order.

A change that moves an output re-records the file and lists the moved
entries in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The write mode runs every run in-process and writes its artifacts under a
directory: a CLI run's output directory as <dir>/<run>/, an estimator run's
lines, its floats in float.hex, as <dir>/<run>.txt.  CI writes that tree at
several BLAS thread counts and CPU counts and compares the trees byte for
byte with `diff -r`:

    PYTHONPATH=src python tests/test_golden.py --write DIR
"""
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import sparse_isac as si
from sparse_isac import cli, synth

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "outputs.json"
SHA_KEY = "sha256"  # the record's entry of the artifact hashes, next to the runs
REL_TOL = 1e-12
SEED = 5

# What each config runs:
# - multiblock: N=256, M=131, K=64, past the read gate and M > K + 1 + T, so
#   the sweep draws the statistics of its virtual slots (_gram_statistics)
#   in 1 + K = 65 rows, not their 131-row grids;
# - paper: N=1000, M=720, K=200, every sweep method;
# - paper333: N=1000, M=333, K=200, a static target, so the drawn statistics
#   span one symbol dimension;
# - paper_moving: as paper333 with two targets at +-15 m/s, a basis of
#   d = 3 symbol dimensions (the all-ones vector and two Doppler profiles);
# - paper250: N=1000, M=720, K=250, drawn statistics, one thread per SNR point;
# - demo250, demo_gram: the two-target demo at N=1000, M=720, K=250 and 200,
#   each run drawing its slot's statistics;
# - fft_read: N=256, M=16, K=64, the FFT side of the read gate, so the sweep
#   synthesizes its virtual grids and reads their lag sums in row blocks;
# - close_targets: two desk targets 15 m apart, which one peak of the
#   64-subcarrier contiguous band merges and the full band resolves;
# - ambiguity: the desk surface at its default 401 x 101 axes, the largest
#   artifact;
# - hole_probability: desk hole-fill curves.
RUNS = {
    **{p.stem: ["run", "--config", str(p)] for p in sorted(GOLDEN.glob("*.json")) if p != RECORD},
    **{f"desk_{cmd}": [cmd, "--profile", "desk"] for cmd in ("sweep", "demo", "crlb")},
}

# The estimator runs' grids: (N, M, make_allocation keywords).  All but
# N=1000, M=333 read their lag sums on the Gram route.
GRIDS = {
    "random N=256 M=32": (256, 32, dict(pattern="random", n_active=64, seed=5)),
    "random N=256 M=128": (256, 128, dict(pattern="random", n_active=64, seed=5)),
    "nested N=256 M=32": (256, 32, dict(pattern="nested", inner=3, outer=61)),
    "random N=1000 M=333": (1000, 333, dict(pattern="random", n_active=200, seed=5)),
    "random N=1000 M=720": (1000, 720, dict(pattern="random", n_active=200, seed=5)),
}


def grid(label: str, velocity_mps: float = 0.0) -> si.FreqGrid:
    """One target at 200 m and 0 dB on the grid `label` of GRIDS."""
    n, m, kw = GRIDS[label]
    p = si.OfdmParams(n_subcarriers=n, n_symbols=m, subcarrier_spacing_hz=120e3, carrier_freq_hz=24e9)
    scene = si.Scene(targets=(si.Target(distance_m=200.0, velocity_mps=velocity_mps, amplitude=1.0),), snr_db=0.0)
    return si.synthesize(scene, si.make_allocation(p, **kw), p, seed=SEED)


def ml_line(label: str) -> dict:
    """The ML search: the refined zero-fill peak."""
    e = si.ml_single_target(grid(label))
    return {"delay_s": e.delay_s, "peak_value": e.peak_value, "bin_index": e.bin_index}


def doppler_line(label: str) -> dict:
    """The Doppler periodogram after the lag-sum delay pre-step, of a 15 m/s target."""
    d = si.doppler_periodogram(grid(label, velocity_mps=15.0))
    return {"argmax_bin": d.argmax_bin, "peak": float(d.values[d.argmax_bin]), "sum": float(d.values.sum())}


def virtual_line(label: str) -> dict:
    """The virtual periodogram: the real transform of the lags >= 0 on
    Q = oversample * 2N bins."""
    g = grid(label)
    v = si.virtual_periodogram(si.build_virtual_signal(g)[0], g.params)
    return {
        "n_bins": v.n_bins, "argmax_bin": v.argmax_bin,
        "peak": float(v.values[v.argmax_bin]), "sum": float(v.values.sum()),
    }


ESTIMATORS = {  # run: (line, grids)
    "ml": (ml_line, [label for label in GRIDS if label != "random N=256 M=128"]),
    "doppler": (doppler_line, list(GRIDS)),
    "virtual": (virtual_line, list(GRIDS)),
}
ALL_RUNS = [*RUNS, *ESTIMATORS]


def column_stats(values: np.ndarray) -> dict:
    """The recorded stats of a column; its sums are exactly rounded
    (math.fsum), so they do not depend on NumPy's summation order."""
    return {
        "length": int(values.size),
        "argmax": int(np.argmax(values)),
        "max": float(np.max(values)),
        "sum": math.fsum(values),
        "sum_sq": math.fsum(values * values),
    }


def numeric_columns(path: Path) -> dict:
    """{header: float array} of each column of a CSV artifact whose every cell reads as a float."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    out = {}
    for j, name in enumerate(header):
        try:
            out[name] = np.array([float(row[j]) for row in rows])
        except ValueError:
            continue
    return out


def outputs(run: str, directory: Path) -> dict:
    """Run `run` in-process, write its artifacts under `directory` and
    return what the record holds of them: {artifact: {column: stats}} of a
    CLI run, {grid: line} of an estimator run."""
    if run in ESTIMATORS:
        line, labels = ESTIMATORS[run]
        lines = {label: line(label) for label in labels}
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{run}.txt").write_text("".join(
            " ".join([label, *(v.hex() if isinstance(v, float) else str(v) for v in values.values())]) + "\n"
            for label, values in lines.items()
        ))
        return lines
    out = directory / run
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*RUNS[run], "--seed", str(SEED), "--out", str(out)])
    assert code == 0, RUNS[run]
    return {
        path.name: {name: column_stats(v) for name, v in numeric_columns(path).items()}
        for path in sorted(out.glob("*.csv"))
    }


def artifact_hashes(run: str, directory: Path) -> dict:
    """{artifact: SHA-256 hex} of what outputs(run, directory) wrote."""
    paths = [directory / f"{run}.txt"] if run in ESTIMATORS else sorted((directory / run).glob("*.csv"))
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def environment() -> dict:
    """The NumPy version and the OpenBLAS core of this process, whose
    artifacts the recorded hashes hold."""
    lib = synth._openblas()
    core = None
    if lib is not None and hasattr(lib, "scipy_openblas_get_corename64_"):
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        core = lib.scipy_openblas_get_corename64_().decode()
    return {"numpy": np.__version__, "blas_core": core}


def relative_change(got, want) -> float:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)) or want == 0.0:
        return math.inf
    return abs(got - want) / abs(want)


def changes(got: dict, want: dict, where: str = "") -> list[str]:
    """One line per entry whose numbers moved: the largest relative change
    of its floats past REL_TOL, and which integers changed."""
    lines = []
    for key in sorted(set(got) | set(want)):
        name = f"{where}{key}"
        if key not in got or key not in want:
            lines.append(f"{name}: {'missing' if key in want else 'not recorded'}")
            continue
        g, w = got[key], want[key]
        if all(isinstance(v, dict) for v in w.values()):
            lines += changes(g, w, f"{name}:")
            continue
        if set(g) != set(w):
            lines.append(f"{name}: holds {sorted(g)}, recorded {sorted(w)}")
            continue
        counts = [f"{k} {w[k]} -> {g[k]}" for k in sorted(w) if isinstance(w[k], int) and g[k] != w[k]]
        rel = max((relative_change(g[k], w[k]) for k in w if isinstance(w[k], float)), default=0.0)
        if counts or rel > REL_TOL:
            lines.append(f"{name}: largest relative change {rel:.3g}" + "".join(f", {c}" for c in counts))
    return lines


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text())


def test_the_record_holds_exactly_the_runs(recorded):
    """A run the harness lost, or one it gained, is not silently passed over."""
    assert sorted(set(recorded) - {SHA_KEY}) == sorted(ALL_RUNS)
    assert sorted(recorded[SHA_KEY]["artifacts"]) == sorted(ALL_RUNS)


@pytest.mark.parametrize("run", ALL_RUNS)
def test_outputs_match_the_record(run, recorded, tmp_path):
    moved = changes(outputs(run, tmp_path), recorded[run])
    assert not moved, f"{run} moved from tests/golden/outputs.json:\n" + "\n".join(moved)
    hashes = recorded[SHA_KEY]
    if environment() == {key: hashes[key] for key in ("numpy", "blas_core")}:
        assert artifact_hashes(run, tmp_path) == hashes["artifacts"][run]


def write(directory: Path) -> dict:
    """Write every run's artifacts under `directory`; return the record."""
    record = {run: outputs(run, directory) for run in ALL_RUNS}
    artifacts = {run: artifact_hashes(run, directory) for run in ALL_RUNS}
    return {**record, SHA_KEY: {**environment(), "artifacts": artifacts}}


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"] and len(sys.argv) == 3:
        write(Path(sys.argv[2]))
    elif len(sys.argv) == 1:  # re-record
        with tempfile.TemporaryDirectory() as tmp:
            RECORD.write_text(json.dumps(write(Path(tmp)), indent=1, sort_keys=True) + "\n")
    else:
        sys.exit("usage: python tests/test_golden.py [--write DIR]")
