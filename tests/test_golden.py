"""Recorded outputs: "no output moved" as a tier-1 check.

Each run is a CLI command at seed 5: the run configs in tests/golden/*.json,
which CI runs too, and the desk `sweep`, `demo` and `crlb` profiles.
tests/golden/outputs.json holds, per run, CSV artifact and numeric column,
the column's length, argmax, max, sum and sum of squares, read back from the
written .12g text.  The test runs each command in-process and compares the
floats at a relative 1e-12, not bytes: NumPy releases need not agree on FFT
round-off.  On a mismatch it prints the largest relative change of each
column that moved, so round-off reads apart from a moved noise stream.

A change that moves an output re-records the file and lists the moved
columns in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sparse_isac import cli

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "outputs.json"
REL_TOL = 1e-12

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


def run_stats(argv: list[str]) -> dict:
    """{artifact: {column: stats}} of one CLI run at seed 5, in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--seed", "5", "--out", str(out)])
        assert code == 0, argv
        return {
            path.name: {name: column_stats(v) for name, v in numeric_columns(path).items()}
            for path in sorted(out.glob("*.csv"))
        }


def relative_change(got, want) -> float:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    if not (math.isfinite(got) and math.isfinite(want)) or want == 0.0:
        return math.inf
    return abs(got - want) / abs(want)


def changes(got: dict, want: dict) -> list[str]:
    """One line per artifact or column whose stats moved past REL_TOL: the
    largest relative change of its floats and which counts changed."""
    lines = []
    for artifact in sorted(set(got) | set(want)):
        if artifact not in got or artifact not in want:
            lines.append(f"{artifact}: {'missing' if artifact in want else 'not recorded'}")
            continue
        g, w = got[artifact], want[artifact]
        for column in sorted(set(g) | set(w)):
            if column not in g or column not in w:
                lines.append(f"{artifact}:{column}: {'missing' if column in w else 'not recorded'}")
                continue
            counts = [f"{k} {w[column][k]} -> {g[column][k]}" for k in ("length", "argmax")
                      if g[column][k] != w[column][k]]
            rel = max(relative_change(g[column][k], w[column][k]) for k in ("max", "sum", "sum_sq"))
            if counts or rel > REL_TOL:
                lines.append(f"{artifact}:{column}: largest relative change {rel:.3g}"
                             + "".join(f", {c}" for c in counts))
    return lines


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("run", RUNS)
def test_outputs_match_the_record(run, recorded):
    moved = changes(run_stats(RUNS[run]), recorded[run])
    assert not moved, f"{run} moved from tests/golden/outputs.json:\n" + "\n".join(moved)


def record() -> None:
    """Rewrite tests/golden/outputs.json from the current code."""
    stats = {name: run_stats(argv) for name, argv in RUNS.items()}
    RECORD.write_text(json.dumps(stats, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
