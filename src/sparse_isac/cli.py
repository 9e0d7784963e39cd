"""Config-driven experiment runner.

A config is a JSON object that holds the constructor arguments of the
typed objects an experiment runs: `ofdm` holds the `OfdmParams` fields,
`scene.targets[i]` the `Target` fields, `scene.link` the `LinkBudget`
fields except the wavelength (taken from the carrier), `allocation` the
`make_allocation` arguments, and the experiment's own keys map onto
`SweepConfig`, `TwoTargetDemoConfig` or the experiment's runner (`trials`
is n_trials, `runs` is n_runs, `seed` is master_seed).  A key left out
takes the constructor's default.  Validating a config is building those
objects, and a run builds them once and runs exactly them.  Every
experiment reads `experiment`, `seed`, `output_dir` and `ofdm`; any other
key that the experiment does not read is a config error.

A run writes plotting-tool-agnostic CSV artifacts plus a manifest.json
that captures the resolved config (re-running from the manifest
reproduces the outputs byte for byte).  Only this module writes files:
an experiment's runner returns its artifacts by file name, and
`run_experiment` writes them.  They are staged in a temporary directory
next to the output directory and moved into it, manifest.json last, only
when the run succeeds; a failed run leaves the output directory as it was.

`run` and `validate` take a config file, and they are the only commands
that read one.  `crlb`, `sweep` and `demo` name their experiment and take
`--profile` only (desk or paper sizes, desk by default); to run one of
them from a file, pass the file, or the manifest.json it wrote, to `run`.

No option sets a thread count.  A sweep picks its own from its grids, one
per SNR point on a large grid (see `monte_carlo_sweep`), counting only the
CPUs in the process's affinity mask (`taskset`); everything else runs in
the calling thread, apart from the BLAS library's own workers.  The
outputs are the same at any count.

Exit codes: 0 success, 2 config error (one `config error:` line per bad
field, starting with the field's path, also for an output directory that
cannot be created) or command-line error, 3 numeric failure (one
`numeric failure in <experiment>:` line, also for a valid config whose
arrays are too large to allocate, whose arithmetic overflows or divides
by zero, whose JSON artifact, periodogram, ambiguity surface or
ambiguity axis would hold a non-finite value, or whose sweep or demo
spectrum underflows to zero everywhere, e.g. a noise-free target of
amplitude 1e-170).  On exit 0 every numeric
CSV cell is finite, except these:
  - `rmse_m` and `rmse_ci` are NaN when every trial of an SNR point missed;
  - `snr_db` is +inf for a noise-free point;
  - `pslr_db` is +inf for a spectrum with no sidelobe.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .alloc import (
    _AXIS_MAX_POINTS,
    OfdmParams,
    ResourceAllocation,
    _as_tuple,
    _check_number,
    hole_fill_curve,
    make_allocation,
)
from .scene import LinkBudget, Target
from .analysis import (
    SingularFimError,
    SweepConfig,
    TwoTargetDemoConfig,
    _fixed_allocations,
    ambiguity_function,
    crlb_report,
    monte_carlo_sweep,
    two_target_demo,
)

OUTDIR_ENV = "SPARSE_ISAC_OUTDIR"

PROFILES = {
    "desk": {
        "ofdm": {
            "n_subcarriers": 256,
            "n_symbols": 32,
            "subcarrier_spacing_hz": 120e3,
            "carrier_freq_hz": 24e9,
            "cp_len_s": 0.0,
        },
        "n_active": 64,
    },
    "paper": {
        "ofdm": {
            "n_subcarriers": 1000,
            "n_symbols": 720,
            "subcarrier_spacing_hz": 120e3,
            "carrier_freq_hz": 24e9,
            "cp_len_s": 0.0,
        },
        "n_active": 200,
    },
}

COMMON_KEYS = ("experiment", "seed", "output_dir", "ofdm")


class ConfigError(Exception):
    """A config that cannot be built or read.

    `args` holds one message per bad field, each starting with the field's
    path (for example `ofdm: n_symbols: ...` or `scene.targets[0]: ...`).
    """


class _Build:
    """Collects the errors of one config build, one message per bad field."""

    def __init__(self):
        self.errors: list[str] = []
        self.keys: dict[str, str] = {}  # a renamed argument -> its config key

    def __call__(self, path: str, make, *args, **kwargs):
        """make(*args, **kwargs), or None after recording why it failed.  A
        message that starts with a renamed argument names its key instead."""
        try:
            return make(*args, **kwargs)
        except (ValueError, TypeError) as exc:
            field, sep, rest = str(exc).partition(": ")
            msg = f"{self.keys.get(field, field)}{sep}{rest}"
            self.errors.append(f"{path}: {msg}" if path else msg)
            return None

    def fields(self, section, path: str, *keys: str, **renamed: str) -> dict:
        """Arguments from the keys of one config section that are present:
        each of `keys` keeps its name, `renamed` maps an argument to its key.
        Any other key is an error, since the run would not read it."""
        if not isinstance(section, dict):
            self.errors.append(f"{path.rstrip('.')}: expected an object")
            return {}
        known = {*keys, *renamed.values(), *(() if path else COMMON_KEYS)}
        self.errors.extend(
            f"{path}{key}: not read by this experiment" for key in sorted(section.keys() - known)
        )
        args = {key: section[key] for key in keys if key in section}
        args.update({arg: section[key] for arg, key in renamed.items() if key in section})
        self.keys.update(renamed)
        return args


# ---------------------------------------------------------------------------
# builders: config section -> typed objects -> a runner returning artifacts
#
# `params` is None when `ofdm` or `seed` failed to build; objects that need
# them are then skipped, since their error is already recorded.


def _build_crlb_table(cfg: dict, build: _Build, params, seed):
    args = build.fields(cfg, "", "n_active", "amplitude", "noise_variance_w")
    n_active = args.pop("n_active", PROFILES["desk"]["n_active"])
    for key, value in args.items():
        build("", _check_number, key, value, positive=True)
    random = params and build("", make_allocation, params, "random", n_active=n_active, seed=seed)
    fixed = random and _fixed_allocations(params, n_active)
    return partial(_exp_crlb_table, random, fixed, params, **args)


def _build_hole_probability(cfg: dict, build: _Build, params, seed):
    args = build.fields(cfg, "", "n_active_axis", n_trials="trials")
    axis = build("", _as_tuple, "n_active_axis", args.pop("n_active_axis", None)) or ()
    for i, n_active in enumerate(axis):
        build(
            "", _check_number, f"n_active_axis[{i}]", n_active,
            integer=True, minimum=2, maximum=params and params.n_subcarriers,
        )
    if "n_trials" in args:  # the bound of hole_fill_curve's (N, trials) keys
        most = params and _AXIS_MAX_POINTS // params.n_subcarriers
        build("", _check_number, "trials", args["n_trials"], integer=True, minimum=1, maximum=most)
    return partial(_exp_hole_probability, params, axis, seed, **args)


_AMBIGUITY_AXES = {
    "delay_points": dict(integer=True, minimum=3, maximum=_AXIS_MAX_POINTS),
    "doppler_points": dict(integer=True, minimum=3, maximum=_AXIS_MAX_POINTS),
    # the surface is periodic in both spans, but its phases carry a round-off
    # that grows with them: on a desk allocation a point shifted by whole
    # periods reads about 1e-11 off at 2**20 bins, 1e-6 at 2**40, 1e-3 at 2**48
    "delay_span_bins": dict(positive=True, maximum=2**20),
    "doppler_span_bins": dict(positive=True, maximum=2**20),
}


def _build_ambiguity(cfg: dict, build: _Build, params, seed):
    args = build.fields(cfg, "", "allocation", "n_active", *_AMBIGUITY_AXES)
    spec, n_active = args.pop("allocation", {}), args.pop("n_active", None)
    for key, value in args.items():
        build("", _check_number, key, value, **_AMBIGUITY_AXES[key])
    alloc = params and build("allocation", _allocation, spec, params, n_active, seed)
    return partial(_exp_ambiguity, alloc, params, **args)


def _allocation(spec: dict, params: OfdmParams, n_active, seed) -> ResourceAllocation:
    """make_allocation from an `allocation` block; the pattern defaults to
    random, whose n_active may come from the top-level key."""
    kwargs = dict(spec)
    pattern = kwargs.pop("pattern", "random")
    if pattern == "random" and n_active is not None:
        kwargs.setdefault("n_active", n_active)
    alloc = make_allocation(params, pattern, seed=seed, **kwargs)
    if not alloc.is_constant:
        raise ValueError("indices: the ambiguity surface needs one index set for every symbol")
    return alloc


def _build_two_target_demo(cfg: dict, build: _Build, params, seed):
    args = build.fields(
        cfg, "", "n_active", "snr_db", "oversample", "distances_m", "velocities_mps",
        "amplitudes", n_runs="runs",
    )
    demo = params and build("", TwoTargetDemoConfig, params, master_seed=seed, **args)
    return partial(_exp_two_target_demo, demo)


def _build_rmse_pslr_sweep(cfg: dict, build: _Build, params, seed):
    args = build.fields(
        cfg, "", "n_active", "snr_db_axis", "methods", "oversample", "miss_threshold_bins",
        "scene", n_trials="trials",
    )
    scene = build.fields(args.pop("scene", {}), "scene.", "targets", "link")
    n_errors = len(build.errors)
    if "targets" in scene:
        raw = build("scene", _as_tuple, "targets", scene["targets"]) or ()
        args["targets"] = [
            build(f"scene.targets[{i}]", lambda t: Target(**t), t) for i, t in enumerate(raw)
        ]
    if "link" in scene and params:
        args["link"] = build(
            "scene.link", lambda raw: LinkBudget.for_carrier(params.carrier_freq_hz, **raw),
            scene["link"],
        )
    if params and len(build.errors) == n_errors:  # the scene built
        return partial(_exp_rmse_pslr_sweep, build("", SweepConfig, params, master_seed=seed, **args))
    return None


EXPERIMENTS = {
    "crlb_table": _build_crlb_table,
    "hole_probability": _build_hole_probability,
    "ambiguity": _build_ambiguity,
    "two_target_demo": _build_two_target_demo,
    "rmse_pslr_sweep": _build_rmse_pslr_sweep,
}


def _build(cfg: dict):
    """Build every object a config describes; returns `run()`, which runs
    exactly those objects and returns their artifacts by file name.
    Raises ConfigError with one message per field that fails to build."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    exp = cfg.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(f"experiment: must be one of {', '.join(EXPERIMENTS)}; got {exp!r}")
    build = _Build()
    seed = build("", _check_number, "seed", cfg.get("seed", 0), integer=True, minimum=0)
    if not isinstance(cfg.get("output_dir", ""), str):
        build.errors.append("output_dir: expected a string")
    params = build("ofdm", lambda: OfdmParams(**cfg.get("ofdm", {})))
    run = EXPERIMENTS[exp](cfg, build, params if seed is not None else None, seed)
    if build.errors:
        raise ConfigError(*build.errors)
    return run


def validate_config(cfg: dict) -> list[str]:
    """Build a config's objects without running them; returns one message
    per bad field (empty if the config is valid)."""
    try:
        _build(cfg)
    except ConfigError as exc:
        return list(exc.args)
    return []


# ---------------------------------------------------------------------------
# experiment runners: built objects in, artifacts by file name out, in the order
# written and listed: a `(header, columns[, comment])` table or a JSON object


def _exp_crlb_table(
    random: ResourceAllocation, fixed: dict, params: OfdmParams,
    amplitude: float = 1.0, noise_variance_w: float = 1.0,
) -> dict:
    """One row per allocation family: the seeded random draw next to the
    sweep's seed-independent allocations of the same cardinality."""
    amplitude, noise_var = float(amplitude), float(noise_variance_w)
    allocs = {
        "full": fixed["full_bandwidth"],
        "random": random,
        "nested": fixed["nested"],
        "clustered": fixed["equivalent_bandwidth"],
    }
    reports = [crlb_report(alloc, params, amplitude, noise_var) for alloc in allocs.values()]
    return {
        "crlb_table.csv": (
            ["allocation", "n_active", "extent", "crlb_delay_s2", "crlb_range_m2", "range_rmse_floor_m"],
            [
                list(allocs),
                [rep.n_active for rep in reports],
                [int(alloc.indices.max() - alloc.indices.min()) for alloc in allocs.values()],
                [rep.crlb_delay_s2 for rep in reports],
                [rep.crlb_range_m2 for rep in reports],
                [math.sqrt(rep.crlb_range_m2) for rep in reports],
            ],
        ),
        "crlb_random.json": reports[1].to_dict(),
    }


def _exp_hole_probability(params: OfdmParams, axis: tuple, seed: int, **curve_args) -> dict:
    seeds = np.random.SeedSequence(seed).spawn(len(axis))
    curves = [
        hole_fill_curve(params.n_subcarriers, n_active, seed=child, **curve_args)
        for n_active, child in zip(axis, seeds)
    ]
    return {
        "hole_fill.csv": (
            ["n_active", "lag", "fill_probability", "ci_halfwidth"],
            [
                [c.n_active for c in curves for _ in range(c.lags.size)],
                np.concatenate([c.lags for c in curves]),
                np.concatenate([c.fill_probability for c in curves]),
                np.concatenate([c.fill_halfwidth for c in curves]),
            ],
        ),
        "hole_fill_summary.csv": (
            ["n_active", "min_fill_probability", "all_filled_probability", "all_filled_ci", "trials"],
            [
                [c.n_active for c in curves],
                [c.min_fill_probability for c in curves],
                [c.all_filled_probability for c in curves],
                [c.all_filled_halfwidth for c in curves],
                [c.n_trials for c in curves],
            ],
        ),
    }


def _exp_ambiguity(
    alloc: ResourceAllocation, params: OfdmParams,
    delay_points: int = 401, doppler_points: int = 101,
    delay_span_bins: float = 16.0, doppler_span_bins: float = 4.0,
) -> dict:
    delay_bin = 1.0 / (params.n_subcarriers * params.subcarrier_spacing_hz)
    doppler_bin = 1.0 / (params.n_symbols * params.symbol_dur_s)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite cell fails the run below
        delays = np.linspace(-delay_span_bins, delay_span_bins, delay_points) * delay_bin
        dopplers = np.linspace(-doppler_span_bins, doppler_span_bins, doppler_points) * doppler_bin
        surf = ambiguity_function(alloc, params, delays, dopplers)
    if not all(np.isfinite(x).all() for x in (delays, dopplers, surf.direct, surf.virtual)):
        raise FloatingPointError("the ambiguity surface or an axis holds a non-finite value")
    # one row per (Doppler, delay) cell, Doppler-major like the surface; each
    # axis value is formatted once and its text repeated
    delay_text = _csv_cells(delays)
    return {
        "ambiguity.csv": (
            ["delay_s", "doppler_hz", "direct_magnitude", "virtual_magnitude"],
            [
                delay_text * doppler_points,
                [d for d in _csv_cells(dopplers) for _ in range(delay_points)],
                surf.direct.ravel(),
                surf.virtual.ravel(),
            ],
        ),
        "ambiguity_delay_cut.csv": (
            ["delay_s", "direct_magnitude", "virtual_magnitude"],
            [delay_text, surf.direct_delay_cut(), surf.virtual_delay_cut()],
        ),
    }


def _exp_two_target_demo(demo_cfg: TwoTargetDemoConfig) -> dict:
    result = two_target_demo(demo_cfg)
    spectrum = ["axis_value", "magnitude"]
    p_direct, p_virtual = result.example_direct, result.example_virtual
    direct, virtual = result.direct_success, result.virtual_success
    return {
        "demo_direct_periodogram.csv": (spectrum, [p_direct.axis, p_direct.values], _SNR_NOTE),
        "demo_virtual_periodogram.csv": (spectrum, [p_virtual.axis, p_virtual.values], _SNR_NOTE),
        "demo_runs.csv": (
            ["run", "direct_both_detected", "virtual_both_detected"],
            [range(direct.size), direct.astype(int), virtual.astype(int)],
            _SNR_NOTE,
        ),
        "demo_summary.csv": (
            ["method", "both_detected_rate", "runs"],
            [
                ["direct_sparse", "autocorrelation"],
                [result.direct_success_rate, result.virtual_success_rate],
                [demo_cfg.n_runs] * 2,
            ],
            _SNR_NOTE,
        ),
    }


def _exp_rmse_pslr_sweep(sweep_cfg: SweepConfig) -> dict:
    result = monte_carlo_sweep(sweep_cfg)
    metrics = (result.rmse_m, result.rmse_ci_m, result.pslr_db, result.pslr_ci_db, result.miss_rate)
    methods = sorted(sweep_cfg.methods)
    snrs = sweep_cfg.snr_db_axis
    # SNR-major rows: each metric column stacks the methods per SNR point
    return {
        "sweep.csv": (
            ["snr_db", "method", "rmse_m", "rmse_ci", "pslr_db", "pslr_ci", "miss_rate", "trials"],
            [
                np.repeat(snrs, len(methods)),
                methods * len(snrs),
                *(np.column_stack([metric[m] for m in methods]).ravel() for metric in metrics),
                [sweep_cfg.n_trials] * (len(methods) * len(snrs)),
            ],
            _SNR_NOTE,
        ),
    }


# ---------------------------------------------------------------------------
# artifact writers

# the comment line of every artifact whose numbers depend on the SNR
_SNR_NOTE = "snr_definition=per_active_re"

_CSV_SPECIAL = (",", '"', "\r", "\n")


def _csv_cells(column) -> list[str]:
    """One column of `_write_csv` as text; str cells are kept as they are."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    try:
        text = "".join(column)  # TypeError unless every cell is a str
    except TypeError:
        column = [f"{x:.12g}" if isinstance(x, float) else str(x) for x in column]
        text = "".join(column)
    if any(ch in text for ch in _CSV_SPECIAL):
        column = [_csv_quote(c) for c in column]
    return column


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in _CSV_SPECIAL):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path, header, columns, comment: str | None = None) -> None:
    """The one artifact format: an optional `# comment` line, a header row,
    then row i holds cell i of each of the equally long `columns`.

    The rows are one `%` pass of a row format, `%.12g` for a float ndarray
    column (fed its tolist()) and `%s` for any other (fed its `_csv_cells`
    text: a float cell, np.float64 included, at .12g, a str cell as it is,
    any other cell str()), over the row-major tuple of every cell.  A cell
    holding a comma, a double quote or a line break is quoted as
    csv.writer's QUOTE_MINIMAL quotes it; .12g text never is.  Rows end in
    CR LF, as csv.writer ends them."""
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    row = ",".join("%.12g" if f else "%s" for f in floats) + "\r\n"
    flat = [None] * (len(columns) * n_rows)  # cell j of row i at i * len(columns) + j
    for j, (column, f) in enumerate(zip(columns, floats)):
        flat[j :: len(columns)] = column.tolist() if f else _csv_cells(column)
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(_csv_cells(header)) + "\r\n")
        fh.write((row * n_rows) % tuple(flat))


def _write_json(path: Path, obj) -> None:
    """obj as an indented JSON artifact.  JSON has no NaN or infinity, so a
    non-finite computed float is a numeric failure (FloatingPointError),
    not a `NaN` or `Infinity` token that JSON readers reject."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"{path.name}: {exc}") from exc
    path.write_text(text + "\n")


def run_experiment(cfg: dict, out: Path) -> list[str]:
    """Build a config's objects once and run exactly those; returns the
    artifact file names.

    Raises ConfigError before anything is written, also when `out` cannot
    be a directory.  The artifacts and manifest.json are written to a
    staging directory next to `out` and moved into `out` (created if
    needed), manifest.json last, only when the run succeeds; the staging
    directory is removed on every exit path.
    """
    run = _build(cfg)
    for path in (out, *out.parents):  # the nearest existing one must be a directory
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output_dir: cannot use {out}: {path} is not a directory")
            break
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent) as tmp:
        stage = Path(tmp)
        artifacts = run()
        for name, artifact in artifacts.items():
            if name.endswith(".csv"):
                _write_csv(stage / name, *artifact)
            else:
                _write_json(stage / name, artifact)
        outputs = list(artifacts)
        manifest = {
            "version": __version__,
            "experiment": cfg["experiment"],
            "snr_definition": _SNR_NOTE.partition("=")[2],
            "config": cfg,
            "outputs": outputs,
        }
        # The config may hold a non-finite number that _load_config read as an
        # `Infinity` token (snr_db of a noise-free run), so the manifest writes
        # it back the same way and re-runs through `run --config`.
        (stage / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        out.mkdir(exist_ok=True)
        for name in [*outputs, "manifest.json"]:
            os.replace(stage / name, out / name)
    return outputs


# ---------------------------------------------------------------------------
# command-line front end


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer longer than int() may read
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if isinstance(cfg.get("config"), dict) and "experiment" in cfg["config"]:
        cfg = cfg["config"]  # accept a manifest.json directly
    return cfg


def _out_dir(args, cfg: dict) -> Path:
    """--out, else $SPARSE_ISAC_OUTDIR, else the config's output_dir, else out."""
    configured = cfg.get("output_dir") if isinstance(cfg.get("output_dir"), str) else None
    return Path(args.out or os.environ.get(OUTDIR_ENV) or configured or "out")


def _profile_config(profile_name: str, experiment: str) -> dict:
    profile = PROFILES[profile_name]
    cfg = {"experiment": experiment, "ofdm": dict(profile["ofdm"]), "n_active": profile["n_active"]}
    if experiment == "two_target_demo":
        cfg["ofdm"]["n_symbols"] = max(cfg["ofdm"]["n_symbols"], 128)
        cfg["snr_db"] = -10.0
        cfg["runs"] = 100
    elif experiment == "rmse_pslr_sweep":
        cfg["snr_db_axis"] = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0]
        cfg["trials"] = 200
        cfg["methods"] = list(SweepConfig.methods)  # the default four
        cfg["scene"] = {
            "targets": [{"distance_m": 200.0, "velocity_mps": 0.0, "amplitude": 1.0}]
        }
    return cfg


def _cmd_run(args) -> int:
    """`run` takes a config file; `crlb`, `sweep` and `demo` take `--profile`
    only and build their experiment's config at the profile's sizes."""
    if args.command == "run":
        cfg = _load_config(args.config)
    else:
        cfg = _profile_config(args.profile, PROFILE_COMMANDS[args.command][0])
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    out = _out_dir(args, cfg)
    # a failed run's one stderr line is its failure; its warnings show only on success
    with warnings.catch_warnings(record=True) as caught:
        try:
            outputs = run_experiment(cfg, out)
        # MemoryError: too large to allocate; ArithmeticError: float overflow,
        # division by zero or a non-finite JSON value from a valid config's numbers
        except (SingularFimError, MemoryError, ArithmeticError) as exc:
            print(f"numeric failure in {cfg['experiment']}: {exc or 'out of memory'}", file=sys.stderr)
            return 3
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    for name in outputs:
        print(out / name)
    return 0


def _cmd_validate(args) -> int:
    errors = validate_config(_load_config(args.config))
    for e in errors:
        print(f"config error: {e}", file=sys.stderr)
    return 2 if errors else 0


def _add_run_options(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--out", default=None, help=f"output directory (or ${OUTDIR_ENV})")


PROFILE_COMMANDS = {
    "crlb": ("crlb_table", "CRLB table across allocation families"),
    "sweep": ("rmse_pslr_sweep", "RMSE/PSLR vs SNR Monte-Carlo sweep"),
    "demo": ("two_target_demo", "two-target sparse detection demo"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-isac",
        description="Seeded sensing experiments on sparse OFDM resource allocations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment named in a config file")
    p_run.add_argument("--config", required=True, help="JSON config path")
    _add_run_options(p_run)

    p_val = sub.add_parser("validate", help="check a config without running anything")
    p_val.add_argument("--config", required=True)

    for name, (_, helptext) in PROFILE_COMMANDS.items():
        p_sub = sub.add_parser(name, help=helptext)
        p_sub.add_argument(
            "--profile", choices=sorted(PROFILES), default="desk",
            help="parameter profile (default desk)",
        )
        _add_run_options(p_sub)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args)
    except ConfigError as exc:
        for e in exc.args:
            print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
