"""Benchmark of sparse_isac: end-to-end metrics per workload, and a traced
run for per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # every workload in turn
    python3 bench/run.py --smoke              # toy sizes, schema and output checks
    python3 bench/run.py --record-reference   # rewrite bench/reference.json

Workloads, metrics and bounds are listed in BENCHMARK.json; each span and
the end-to-end metric it should move are in bench/spans.py.  The
benchmark seed determines every input.  All work happens in worker
processes (bench/worker.py), one at a time:

* --trace 0: set-up runs in several fresh processes and `setup_s` is
  their median launch-to-ready time; the last of them then runs the timed
  pass.  Prints every end-to-end metric.  On a shared machine the speed
  of the CPU drifts by tens of percent within minutes, so each worker
  also times a fixed calibration kernel (bench/worker.py) during set-up
  and every quarter second of the pass, and the timed metrics are scaled
  to a reference speed: each call's time, and each set-up, is divided by
  the local slowdown (kernel time / CALIBRATION_REFERENCE_MS).  The
  unscaled values are printed beside them.
* --trace 1: one process runs an untraced pass, the reference case and a
  traced pass; a second, with OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1,
  runs another traced pass for the `blas1.` metrics.  The seconds are
  split evenly between the three passes.  Prints every per-layer metric;
  apart from trace.overhead_frac, they are not scaled.

The BLAS environment of the end-to-end run is left as the caller has it.
The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric's
sample count and the environment.  A full record, and the traced spans,
go to .bench_out/ under the working directory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# (name, unit): the end-to-end metrics of an untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("cpu_s_per_unit", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_frac", "frac"),
)
# About the calibration kernel's time on the 2-core x86 machine the bounds
# were fixed on; it only sets the scale of the timed end-to-end metrics.
CALIBRATION_REFERENCE_MS = 5.0
SETUP_PROCESSES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _read_line(proc, deadline: float) -> bytes:
    """One line from an unbuffered pipe, waiting no later than `deadline`."""
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
            raise BenchError("worker did not get ready in time")
        byte = proc.stdout.read(1)
        if not byte:
            raise BenchError("worker exited during set-up")
        line += byte
    return line


def launch(args: list[str], deadline: float, env: dict | None = None) -> tuple[float, dict]:
    """Run one worker; returns (launch-to-ready seconds, its JSON result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, bufsize=0, env=env
    )
    try:
        if _read_line(proc, deadline) != b"READY\n":
            raise BenchError("worker printed something before READY")
        ready_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return ready_s, json.loads(out.decode().strip().splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _timing_note(samples: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    note = f"median of {n} calls"
    if n >= 100:
        q = math.floor(100 * (1 - 10 / n))
        note += f"; p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4g} ms unscaled"
    return note


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def pass_stats(p: dict) -> dict:
    """Totals of one pass, and each call's slowdown: the median of the
    calibration run that follows the call and that run's two neighbours,
    over CALIBRATION_REFERENCE_MS."""
    cal = p["calibration_ms"]
    local = [statistics.median(cal[max(k - 1, 0):k + 2]) / CALIBRATION_REFERENCE_MS for k in range(len(cal))]
    calls = p["calls"]
    return {
        "wall_s": sum(c[0] for c in calls),
        "cpu_s": sum(c[1] for c in calls),
        "attempted": sum(c[2] for c in calls),
        "failed": sum(c[3] for c in calls),
        "unit_ms": [c[0] * 1e3 / c[2] for c in calls],
        "slowdown": [local[c[4]] for c in calls],
        "calls": calls,
    }


def scaled_unit_ms_p50(p: dict) -> float:
    return statistics.median(u / s for u, s in zip(p["unit_ms"], p["slowdown"]))


def end_to_end(name: str, seed: int, seconds: float, toy: bool, deadline: float, processes: int):
    base = [name, str(seed)] + (["--toy"] if toy else [])
    runs = [launch(base, deadline) for _ in range(processes - 1)]
    runs.append(launch(base + ["--plain", str(seconds)], deadline))
    setups = [ready_s - sum(r["setup_calibration_ms"]) / 1e3 for ready_s, r in runs]
    setup_slowdown = [statistics.median(r["setup_calibration_ms"]) / CALIBRATION_REFERENCE_MS for _, r in runs]
    res = runs[-1][1]
    p = pass_stats(res["plain"])
    ok = p["attempted"] - p["failed"]
    slow = p["slowdown"]
    raw = {
        "setup_s": statistics.median(setups),
        "units_per_s": ok / p["wall_s"],
        "unit_ms_p50": statistics.median(p["unit_ms"]),
        "cpu_s_per_unit": p["cpu_s"] / max(ok, 1),
    }
    metrics = {
        "setup_s": statistics.median(t / s for t, s in zip(setups, setup_slowdown)),
        "units_per_s": ok / sum(c[0] / s for c, s in zip(p["calls"], slow)),
        "unit_ms_p50": scaled_unit_ms_p50(p),
        "cpu_s_per_unit": sum(c[1] / s for c, s in zip(p["calls"], slow)) / max(ok, 1),
        "peak_rss_mib": res["maxrss_kib"] / 1024.0,
        "success_frac": ok / p["attempted"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh processes, each scaled by its own calibration",
        "units_per_s": f"{ok} of {p['attempted']} units succeeded in {p['wall_s']:.2f} s",
        "unit_ms_p50": _timing_note(p["unit_ms"]),
        "cpu_s_per_unit": f"{p['cpu_s']:.3f} s CPU",
        "peak_rss_mib": "ru_maxrss of the timed process",
        "success_frac": f"{p['failed']} failed",
        "slowdown": (
            f"median {statistics.median(slow):.4f}, range {min(slow):.3f}..{max(slow):.3f}, from "
            f"{len(res['plain']['calibration_ms'])} calibration runs; timings are divided by it"
        ),
    }
    for key, value in raw.items():
        notes[key] += f"; as measured {value:.6g}"
    units = dict(END_TO_END)
    summary = {
        "correct": res["plain"]["unexpected"] == 0 and res["warmup"]["unexpected"] == 0,
        "attempted": p["attempted"],
        "failed": p["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k, _ in END_TO_END},
    }
    return summary, notes, res["env"]


def per_layer(name: str, seed: int, seconds: float, toy: bool, deadline: float, out_dir: Path):
    base = [name, str(seed)] + (["--toy"] if toy else [])
    third = str(seconds / 3.0)
    _, a = launch(
        base + ["--plain", third, "--reference", "--traced", third,
                "--spans", str(out_dir / f"{name}-seed{seed}-spans.json")],
        deadline,
    )
    _, b = launch(
        base + ["--traced", third, "--spans", str(out_dir / f"{name}-seed{seed}-blas1-spans.json")],
        deadline,
        env={**os.environ, **BLAS1_ENV},
    )
    plain, traced, blas1 = pass_stats(a["plain"]), pass_stats(a["traced"]), pass_stats(b["traced"])
    tr = a["trace"]
    units = traced["attempted"]
    metrics = {}
    for span, _ in spans.SPANS:
        metrics[f"{span}.calls_per_unit"] = tr["calls"].get(span, 0) / units
        metrics[f"{span}.self_ms_per_unit"] = tr["self_s"].get(span, 0.0) * 1e3 / units
    c = tr["counters"]
    ml = tr["durations_by_label"].get("estimators.ml_single_target", {})
    reference = _load_reference().get(name, {})
    metrics.update({
        "synth.active_re_frac": c.get("active_re", 0) / c["total_re"] if c.get("total_re") else 0.0,
        "estimators.detect_peaks.incomplete_per_unit": c.get("incomplete_peaks", 0) / units,
        "estimators.ml_single_target.fresh_alloc_ms_p50": statistics.median(ml["fresh"]) * 1e3 if ml.get("fresh") else 0.0,
        "estimators.ml_single_target.repeat_alloc_ms_p50": statistics.median(ml["repeat"]) * 1e3 if ml.get("repeat") else 0.0,
        "analysis.pslr.nonfinite_per_unit": c.get("nonfinite_pslr", 0) / units,
        "analysis.monte_carlo_sweep.miss_rate": c.get("sweep_misses", 0) / c["sweep_truths"] if c.get("sweep_truths") else 0.0,
        "cli.output_bytes_per_unit": a["traced"]["output_bytes"] / units,
        "check.ref_max_rel_err": workloads.max_rel_err(a["reference_outputs"], reference) if reference else 1.0,
        "trace.overhead_frac": scaled_unit_ms_p50(traced) / scaled_unit_ms_p50(plain) - 1.0,
    })
    b_units = blas1["attempted"]
    for span, _ in spans.SPANS:
        metrics[f"{spans.BLAS1_PREFIX}{span}.self_ms_per_unit"] = b["trace"]["self_s"].get(span, 0.0) * 1e3 / b_units
    runs = (a["plain"], a["traced"], b["traced"], a["warmup"], b["warmup"])
    summary = {
        "correct": all(r["unexpected"] == 0 for r in runs),
        "attempted": plain["attempted"] + units + b_units,
        "failed": plain["failed"] + traced["failed"] + blas1["failed"],
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit, _ in spans.per_layer_metrics()},
    }
    notes = {
        "traced units": f"{units} (untraced {plain['attempted']}, blas1 {b_units})",
        "estimators.ml_single_target": f"{len(ml.get('fresh', []))} fresh, {len(ml.get('repeat', []))} repeat calls",
        "check.ref_max_rel_err": "against bench/reference.json" if reference else "no reference recorded",
    }
    return summary, notes, a["env"]


def measure(name: str, seed: int, seconds: float, trace: int, toy: bool = False,
            processes: int = SETUP_PROCESSES) -> dict:
    """Run one workload, print its report, and return the result object."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = Path.cwd() / ".bench_out"
    if trace:
        summary, notes, env = per_layer(name, seed, seconds, toy, deadline, out_dir)
    else:
        summary, notes, env = end_to_end(name, seed, seconds, toy, deadline, processes)
    env = {**env, "git_sha": git_sha(), "seed": seed, "workload": name, "trace": trace}
    for key, metric in summary["metrics"].items():
        note = f" ({notes[key]})" if key in notes else ""
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}{note}")
    for key, note in notes.items():
        if key not in summary["metrics"]:
            print(f"{name} {key}: {note}")
    print(f"{name} environment: " + json.dumps(env))
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "notes": notes, "result": summary}
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return summary


# ---------------------------------------------------------------------------
# schema checks used by the smoke mode

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json(bench: dict) -> list[str]:
    """Problems with BENCHMARK.json against the code's own tables."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
        return problems
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append("workload names differ from bench/workloads.py")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: needs exactly name and a one-line why <= 200 chars")
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    if e2e != list(END_TO_END):
        problems.append(f"end_to_end {e2e} != {list(END_TO_END)}")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m.get('name')}: bad keys or bound")
    setup_bound = next((m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"), None)
    if setup_bound is None or setup_bound < max(m["bound"] for m in bench["end_to_end"]):
        problems.append("setup_s must be present with the largest bound")
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if layer != spans.per_layer_metrics():
        problems.append("per_layer differs from bench/spans.py")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric {m['name']}: bad name, unit or better")
    if not isinstance(bench["run_seconds"], int) or not 1 <= bench["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    return problems


def check_result(result: dict, trace: int, bench: dict) -> list[str]:
    """Problems with one result object against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("outputs not correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or not isinstance(result["failed"], int):
        problems.append("attempted/failed must be whole numbers, attempted >= 1")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(expected))}")
    for key, metric in got.items():
        value = metric.get("value")
        if metric.get("unit") != expected.get(key) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key}: bad value or unit {metric}")
        elif not trace and value <= 0:
            problems.append(f"{key}: end-to-end metrics must never be 0")
    return problems


def smoke() -> int:
    """Every workload at toy size, both trace modes; no timing gate."""
    bench = json.loads(BENCHMARK_JSON.read_text())
    problems = check_benchmark_json(bench)
    for name in workloads.NAMES:
        for trace in (0, 1):
            result = measure(name, seed=1, seconds=0.0, trace=trace, toy=True, processes=2)
            print(json.dumps(result))
            problems += [f"{name} trace {trace}: {p}" for p in check_result(result, trace, bench)]
    for p in problems:
        print(f"SMOKE FAIL: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def record_reference() -> int:
    deadline = time.monotonic() + 10 * DEADLINE_S
    ref = {}
    for name in workloads.NAMES:
        _, res = launch([name, "0", "--reference"], deadline)
        ref[name] = res["reference_outputs"]
    REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), help="'all' runs each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sparse_isac" / "__init__.py").is_file():
        print(f"error: no sparse_isac source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            ap.error("--workload is required")
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            print(json.dumps(measure(name, args.seed, args.seconds, args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
