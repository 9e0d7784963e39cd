"""Tests of the benchmark itself: smoke mode, refusal without a source tree,
and the tracer's self-time arithmetic.  No timing is gated."""
import shutil
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def test_smoke_mode_passes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], cwd=tmp_path, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
    assert not any((tmp_path / ".bench_out").glob("cli-*")), "CLI scratch directories left behind"


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def inner():
        return sum(range(1000))

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.wrap("m.inner", inner)
    wrapped_outer = tracer.wrap("m.outer", outer)
    with tracer.span("bench.call"):
        wrapped_outer()
    summary = tracer.summary()
    assert summary["calls"] == {"bench.call": 1, "m.outer": 1, "m.inner": 2}
    outer_span = next(s for s in tracer.spans if s[0] == "m.outer")
    inner_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "m.inner")
    assert abs(summary["self_s"]["m.outer"] - ((outer_span[2] - outer_span[1]) - inner_total)) < 1e-12
    root = tracer.spans[0]
    assert abs(sum(summary["self_s"].values()) - (root[2] - root[1])) < 1e-9


def test_install_wraps_every_importer_and_uninstall_restores():
    import sparse_isac as si
    from sparse_isac import analysis, estimators, synth

    original = synth.synthesize
    tracer = spans.Tracer()
    patches = tracer.install(si)
    try:
        assert analysis.synthesize is synth.synthesize is si.synthesize
        assert synth.synthesize.__wrapped__ is original
        assert estimators.difference_set.__wrapped__ is si.alloc.difference_set.__wrapped__
    finally:
        spans.Tracer.uninstall(patches)
    assert analysis.synthesize is original and si.synthesize is original
