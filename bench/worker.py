"""One benchmark process: set-up, timed passes, then one JSON line.

bench/run.py starts it as

    python3 bench/worker.py WORKLOAD SEED [--plain S] [--reference] [--traced S]
                            [--spans PATH] [--toy]

Set-up is the import of sparse_isac, input construction and one untimed
warm-up call.  The worker prints READY when set-up is done, so its parent
can time set-up from process launch, and then runs, in this order: an
untraced pass of at least S seconds, the fixed reference case, and a
traced pass of at least S seconds.  Each pass runs whole cycles of the
workload's calls, interleaved with runs of a calibration kernel that
measure the machine's current speed.  The last line of output is a JSON
object with the pass results, the environment and the process's peak RSS.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ML_SPAN = "estimators.ml_single_target"
CALIBRATION_INTERVAL_S = 0.25
_CALIBRATION_INPUT = np.exp(0.37j * np.arange(256))


def cpu_seconds() -> float:
    """User + system CPU time of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))
        },
    }


def calibration_ms() -> float:
    """Time of a fixed kernel of interpreter loops and small FFTs.

    It uses neither sparse_isac nor BLAS, so no change to the library moves
    it; only the machine's current speed does.  On a shared machine that
    speed drifts by tens of percent within minutes, and the kernel's time
    tracks the drift of every workload closely.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(40000):
        s += i * i % 7
    for _ in range(100):
        s += int(np.argmax(np.abs(np.fft.ifft(_CALIBRATION_INPUT, n=1024))))
    return (time.perf_counter() - t0) * 1e3


def run_pass(wl, first: int, seconds: float, tracer=None) -> tuple[int, dict]:
    """Calls from index `first` on, in whole cycles, until they have taken
    at least `seconds`.

    After a call, once CALIBRATION_INTERVAL_S has passed since the last
    one and after the last call, the pass times the calibration kernel.
    Each call is recorded as [wall s, CPU s, units, failed units, index of
    the calibration that follows it]; the kernel's own time is in no call.
    """
    calls = []
    calibration = []
    unexpected = 0
    bytes0 = wl.output_bytes
    busy = 0.0
    last_cal = time.perf_counter()
    n = 0
    while True:
        i = first + n
        c0, k0 = time.perf_counter(), cpu_seconds()
        if tracer is None:
            r = wl.call(i)
        else:
            with tracer.span("bench.call"):
                r = wl.call(i, tracer)
        wall = time.perf_counter() - c0
        calls.append([wall, cpu_seconds() - k0, r.units, r.failed, len(calibration)])
        busy += wall
        unexpected += r.unexpected
        n += 1
        done = n % wl.cycle_len == 0 and busy >= seconds
        if done or time.perf_counter() - last_cal >= CALIBRATION_INTERVAL_S:
            calibration.append(calibration_ms())
            last_cal = time.perf_counter()
        if done:
            return first + n, {
                "calls": calls,
                "calibration_ms": calibration,
                "unexpected": unexpected,
                "output_bytes": wl.output_bytes - bytes0,
            }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.NAMES)
    ap.add_argument("seed", type=int)
    ap.add_argument("--plain", type=float, default=None, help="untraced pass, seconds")
    ap.add_argument("--reference", action="store_true", help="run the fixed reference case")
    ap.add_argument("--traced", type=float, default=None, help="traced pass, seconds")
    ap.add_argument("--spans", default=None, help="write the traced pass's spans here")
    ap.add_argument("--toy", action="store_true", help="smoke-mode sizes")
    args = ap.parse_args(argv)

    import sparse_isac as si
    import sparse_isac.cli  # noqa: F401  (the package does not import its CLI)

    # The machine's speed during set-up, measured before any BLAS call (idle
    # BLAS threads spin for a while after one); bench/run.py takes this
    # time out of the set-up time.
    calibration = [calibration_ms() for _ in range(3)]
    scratch = Path.cwd() / ".bench_out"
    wl = workloads.make(args.workload, si, args.seed, args.toy, scratch)
    try:
        warmup = wl.call(0)
        print("READY", flush=True)
        out = {"env": environment(), "warmup": warmup._asdict(), "setup_calibration_ms": calibration}
        index = 1
        if args.plain is not None:
            index, out["plain"] = run_pass(wl, index, args.plain)
        if args.reference:
            ref = workloads.make(args.workload, si, workloads.REFERENCE_SEED, False, scratch)
            try:
                out["reference_outputs"] = ref.reference_outputs()
            finally:
                ref.close()
        if args.traced is not None:
            tracer = spans.Tracer()
            patches = tracer.install(si)
            try:
                index, out["traced"] = run_pass(wl, index, args.traced, tracer)
            finally:
                spans.Tracer.uninstall(patches)
            out["trace"] = tracer.summary(durations_for=(ML_SPAN,))
            if args.spans:
                Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
                with open(args.spans, "w") as fh:
                    json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}, fh)
    finally:
        wl.close()
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
