"""Command-line front end.

Experiments are declared in flat ``key = value`` config files (see the shipped
presets under ``beamest/presets``) and dispatched through four subcommands:

* ``codebook`` -- export pattern matrix, per-stage beam banks and a
  gain-flatness report for inspection;
* ``sweep``    -- Monte Carlo sweep over a pilot-energy grid (or, with
  ``outputs = slots``, the measurement slot-count table);
* ``bound``    -- analytical failure-probability upper bound across the grid;
* ``trace``    -- per-trial estimation traces as JSON lines.

Every run writes a ``<command>_manifest.json`` echoing the resolved config,
the seed and every emitted file, plus the software environment and, for a
sweep, the estimation-run throughput.  Commands put such run facts in a
``run_info`` dict that goes into the manifest only, never into a data file.
Data tables are comma-separated with a header row; complex values serialize
as ``re<+/->imj``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import platform
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from ._output import csv_text, output_file
from .analysis import _check_bound_range, _noise_and_prior
from .codebook import realized_gains, write_beam_matrix
from .estimator import (
    ALPHA_FINAL,
    ALPHA_MMSE_ALL,
    NON_OVERLAPPED,
    OVERLAPPED,
    VARIANTS,
    Design,
    leftmost_path,
    run_estimation,  # noqa: F401 -- benchmarks/workloads.py wraps cli.run_estimation
    stage_count,  # noqa: F401 -- benchmarks/workloads.py wraps cli.stage_count
    trace_line,
    trace_record,  # noqa: F401 -- benchmarks/workloads.py wraps cli.trace_record
    write_trace_records,  # noqa: F401 -- benchmarks/workloads.py wraps cli.write_trace_records
)
from .montecarlo import (
    ExperimentConfig,
    _trace_blocks,
    bound_csv,
    bound_table,
    energy_from_db,
    power_for_energy,  # noqa: F401 -- benchmarks/workloads.py wraps cli.power_for_energy
    run_sweep,
    sample_channel,  # noqa: F401 -- benchmarks/workloads.py wraps cli.sample_channel
    usable_cpus,
)

__all__ = ["ConfigError", "load_config", "main"]


class ConfigError(ValueError):
    """Unreadable, malformed or incomplete experiment configuration."""


# Every key any command understands; unknown keys are rejected loudly so
# typos do not silently fall back to defaults.
KNOWN_KEYS = {
    "n", "k", "trials", "seed", "variants", "outputs", "n0", "var_alpha",
    "et_db", "et_db_min", "et_db_max", "et_db_step", "bound", "variant",
    "k_values",
}

# Most points an et_db_min/et_db_max/et_db_step range may expand to.
MAX_GRID_POINTS = 10 ** 6

# Most entries (beams times antennas) a codebook export's beam bank may hold.
MAX_BANK_ENTRIES = 10 ** 7


def _parse_scalar(token: str):
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered == "auto":
        return "auto"
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines; ``#`` starts a comment, commas make lists."""
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS and not (key.startswith("n_values_k")
                                          and key[len("n_values_k"):].isdecimal()):
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        tokens = [t.strip() for t in value.split(",") if t.strip()]
        if not tokens:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        parsed = [_parse_scalar(t) for t in tokens]
        cfg[key] = parsed[0] if len(parsed) == 1 else parsed
    return cfg


def read_config_text(spec: str) -> tuple[str, str]:
    """Resolve a config path or shipped preset name to its text."""
    path = Path(spec)
    if path.is_file():
        try:
            return str(path), path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {spec!r}: {exc}") from exc
    preset = resources.files("beamest").joinpath("presets", f"{spec}.cfg")
    try:
        if preset.is_file():
            return f"preset:{spec}", preset.read_text(encoding="utf-8")
    except OSError:
        pass
    raise ConfigError(f"config {spec!r} is neither a readable file nor a shipped preset")


def load_config(spec: str) -> tuple[str, dict]:
    name, text = read_config_text(spec)
    return name, parse_config(text)


def _require(cfg: dict, key: str, kind, command: str, default=None):
    """``cfg[key]`` checked to be of ``kind``; required unless a ``default`` is given."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"{command}: config key {key!r} is required")
        return default
    return _checked(cfg[key], key, kind, command)


def _checked(value, key: str, kind, command: str):
    """``value`` of ``key`` checked to be of ``kind``, an int taken as a float
    where ``kind`` is ``float``; never a bool, unless ``kind`` is ``bool``."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{command}: key {key!r} is too large, got {value!r}") from None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        names = "/".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ConfigError(f"{command}: key {key!r} must be {names}, got {value!r}")
    return value


def _as_list(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def _int_list(cfg: dict, key: str, command: str) -> list[int]:
    """``cfg[key]`` as a list of ints; ``ConfigError`` naming the key for any other entry."""
    values = _as_list(_require(cfg, key, (int, list), command))
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{command}: key {key!r} must list integers, got {value!r}")
    return values


def _distinct(values: list, key: str, command: str) -> list:
    """``values``; ``ConfigError`` naming ``key`` if an entry repeats."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{command}: key {key!r} must not repeat entries, got {values!r}")
    return values


def _energy_grid(cfg: dict, command: str) -> tuple[float, ...]:
    """The energy grid in dB; ``ConfigError`` naming its keys unless it is
    strictly increasing, as :class:`~beamest.montecarlo.ExperimentConfig` needs."""
    if "et_db" in cfg:
        named = "key 'et_db'"
        grid = tuple(_checked(x, "et_db", float, command) for x in _as_list(cfg["et_db"]))
    else:
        named = "keys 'et_db_min', 'et_db_max' and 'et_db_step'"
        keys = ("et_db_min", "et_db_max", "et_db_step")
        if any(key not in cfg for key in keys):
            raise ConfigError(f"{command}: need either 'et_db' or "
                              "'et_db_min/et_db_max/et_db_step'")
        lo, hi, step = (_require(cfg, key, float, command) for key in keys)
        for key, value in zip(keys, (lo, hi, step)):
            if not math.isfinite(value):
                raise ConfigError(f"{command}: key {key!r} must be finite, got {value!r}")
        if step <= 0 or hi < lo:
            raise ConfigError(f"{command}: bad energy grid ({lo}, {hi}, {step})")
        span = (hi - lo) / step + 1e-9  # inf if hi - lo overflows
        if span >= MAX_GRID_POINTS:
            raise ConfigError(f"{command}: {named} give more than {MAX_GRID_POINTS} energy points")
        grid = tuple(lo + i * step for i in range(int(span) + 1))
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ConfigError(f"{command}: {named} must give strictly increasing energies, "
                              f"got {b!r} after {a!r}")
    return grid


def _alpha_variance(cfg: dict) -> float | None:
    value = cfg.get("var_alpha", "auto")
    if value == "auto":
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"var_alpha must be a number or 'auto', got {value!r}")
    return float(value)


def _variants(cfg: dict) -> tuple[str, ...]:
    return tuple(_as_list(cfg.get("variants", list(VARIANTS))))


def _write(path: Path, text: str, quiet: bool) -> Path:
    with output_file(path) as fh:
        fh.write(text)
    if not quiet:
        print(f"wrote {path}")
    return path


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "usable_cpus": usable_cpus(),
    }


def _write_manifest(out_dir: Path, command: str, config_name: str, cfg: dict,
                    args, elapsed: float, outputs: list[Path], run_info: dict) -> Path:
    manifest = {
        "command": command,
        "config_source": config_name,
        "config": cfg,
        "seed_override": args.seed,
        "workers": args.workers,
        "version": __version__,
        "environment": _environment(),
        "elapsed_seconds": elapsed,
        "outputs": [p.name for p in outputs],
        **run_info,
    }
    return _write(out_dir / f"{command}_manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n", args.quiet)


def _gain_flatness_csv(n: int, k: int, variant: str) -> str:
    """Realized-gain audit along the leftmost refinement path.

    For each stage and beam: worst deviation of |u_i^H f| from gain * amplitude
    inside the covered sub-ranges, and worst leakage outside them.
    """
    patterns = Design(n, k, variant).patterns
    rows = []
    for s, partition, cb in leftmost_path(n, k, variant):
        realized = np.abs(realized_gains(cb.f))
        # on the leftmost path the sub-ranges tile [0, len(target))
        target = cb.gain * np.repeat(patterns.values.T, len(partition.transmit[0]), axis=0)
        in_err = np.abs(realized[:len(target)] - target).max(axis=0)
        out_gain = realized[len(target):].max(axis=0, initial=0.0)
        rows += [(s, m, cb.gain, cb.residual, err, gain)
                 for m, (err, gain) in enumerate(zip(in_err.tolist(), out_gain.tolist()))]
    return csv_text("stage,beam,gain,residual,max_in_range_error,max_out_of_range_gain",
                    zip(*rows))


def cmd_codebook(cfg: dict, args, run_info: dict) -> list[Path]:
    n = _require(cfg, "n", int, "codebook")
    k = _require(cfg, "k", int, "codebook")
    variant = cfg.get("variant", OVERLAPPED)
    design = Design(n, k, variant)
    if design.m * n > MAX_BANK_ENTRIES:
        raise ConfigError(f"codebook: n = {n} needs a bank of {design.m} beams of {n} "
                          f"weights, more than {MAX_BANK_ENTRIES} entries")
    out_dir = Path(args.out)
    outputs = []

    pattern_lines = [",".join(repr(float(v)) for v in row)
                     for row in design.patterns.values]
    outputs.append(_write(out_dir / "pattern_matrix.csv",
                          "\n".join(pattern_lines) + "\n", args.quiet))

    # One bank per stage; on the leftmost path the combining bank equals it.
    for s, _, cb in leftmost_path(n, k, variant):
        path = out_dir / f"stage_{s}_beams.txt"
        write_beam_matrix(path, cb.f, s, cb.gain)
        if not args.quiet:
            print(f"wrote {path}")
        outputs.append(path)

    outputs.append(_write(out_dir / "gain_flatness.csv", _gain_flatness_csv(n, k, variant),
                          args.quiet))
    return outputs


def _slot_table_csv(cfg: dict) -> str:
    k_values = _distinct(_int_list(cfg, "k_values", "sweep"), "k_values", "sweep")
    listed = {f"n_values_k{k}" for k in k_values}
    for key in cfg:
        if key.startswith("n_values_k") and key not in listed:
            raise ConfigError(f"sweep: key {key!r} names no k listed in 'k_values'")
    rows = []
    for k in k_values:
        key = f"n_values_k{k}"
        if key not in cfg:
            raise ConfigError(f"sweep: slot table needs key {key!r}")
        rows += [(k, n, Design(n, k, OVERLAPPED).slots, Design(n, k, NON_OVERLAPPED).slots)
                 for n in _distinct(_int_list(cfg, key, "sweep"), key, "sweep")]
    return csv_text("k,n,overlapped,non_overlapped", zip(*rows))


def cmd_sweep(cfg: dict, args, run_info: dict) -> list[Path]:
    out_dir = Path(args.out)
    outputs_wanted = _distinct([str(o) for o in _as_list(cfg.get("outputs", "pcef"))],
                               "outputs", "sweep")
    for name in outputs_wanted:
        if name not in ("pcef", "alpha_error", "slots"):
            raise ConfigError(f"sweep: unknown output family {name!r}")
    if outputs_wanted == ["slots"]:
        return [_write(out_dir / "slot_counts.csv", _slot_table_csv(cfg), args.quiet)]

    n = _require(cfg, "n", int, "sweep")
    k = _require(cfg, "k", int, "sweep")
    experiment = ExperimentConfig(
        n=n, k=k, et_db=_energy_grid(cfg, "sweep"),
        trials=_require(cfg, "trials", int, "sweep"),
        master_seed=_require(cfg, "seed", int, "sweep", default=0),
        n0=_require(cfg, "n0", float, "sweep", default=1.0),
        var_alpha=_alpha_variance(cfg), variants=_variants(cfg))
    # the bound first: a prior it rejects stops the run before any file is written
    bound = (bound_table(n, k, experiment.et_db, n0=experiment.n0, var_alpha=experiment.var_alpha)
             if _require(cfg, "bound", bool, "sweep", default=False) else None)
    outputs: list[Path] = []
    if "slots" in outputs_wanted:
        outputs.append(_write(out_dir / "slot_counts.csv", _slot_table_csv(cfg),
                              args.quiet))
    started = time.perf_counter()
    tables = run_sweep(experiment, workers=args.workers)
    runs = experiment.trials * len(experiment.et_db) * len(experiment.variants)
    run_info["estimation_runs"] = runs
    run_info["runs_per_s"] = runs / (time.perf_counter() - started)

    if "pcef" in outputs_wanted:
        for variant, table in tables.items():
            outputs.append(_write(out_dir / f"{variant}_pcef.csv", table.to_csv(),
                                  args.quiet))
    if "alpha_error" in outputs_wanted:
        for variant, table in tables.items():
            for estimator, errors in (
                    (ALPHA_MMSE_ALL, (table.relerr_mmse_all, table.relerr_mmse_success)),
                    (ALPHA_FINAL, (table.relerr_final_all, table.relerr_final_success))):
                text = csv_text("et_db,relerr_all_trials,relerr_successes",
                                (table.et_db, *errors))
                outputs.append(_write(out_dir / f"{variant}_{estimator}_error.csv", text,
                                      args.quiet))
    if bound is not None:
        outputs.append(_write(out_dir / "bound.csv", bound_csv(bound), args.quiet))
    return outputs


def cmd_bound(cfg: dict, args, run_info: dict) -> list[Path]:
    out_dir = Path(args.out)
    n_values = _int_list(cfg, "n", "bound")
    k_values = _int_list(cfg, "k", "bound")
    if len(n_values) != len(k_values):
        raise ConfigError("bound: 'n' and 'k' lists must pair up one-to-one")
    pairs = list(zip(n_values, k_values))
    if len(set(pairs)) < len(pairs):
        raise ConfigError(f"bound: keys 'n' and 'k' must not repeat an (n, k) pair, got {pairs}")
    grid = _energy_grid(cfg, "bound")
    n0, var_alpha = _noise_and_prior(_require(cfg, "n0", float, "bound", default=1.0),
                                     _alpha_variance(cfg))
    # every geometry is checked before one is evaluated and written, so a
    # rejected one leaves no file behind
    top = max(energy_from_db(db, n0) for db in grid)
    for n, k in pairs:
        design = Design(n, k, OVERLAPPED)
        _check_bound_range(top / design.power_weight, n0, design.gain_prior(var_alpha))
    outputs = []
    single = len(pairs) == 1
    for n, k in pairs:
        points = bound_table(n, k, grid, n0=n0, var_alpha=var_alpha)
        name = "bound.csv" if single else f"bound_k{k}_n{n}.csv"
        outputs.append(_write(out_dir / name, bound_csv(points), args.quiet))
    return outputs


def cmd_trace(cfg: dict, args, run_info: dict) -> list[Path]:
    out_dir = Path(args.out)
    n = _require(cfg, "n", int, "trace")
    k = _require(cfg, "k", int, "trace")
    trials = _require(cfg, "trials", int, "trace")
    et_db = cfg.get("et_db")
    if not isinstance(et_db, (int, float)) or isinstance(et_db, bool):
        raise ConfigError("trace: 'et_db' must be a single energy value in dB")
    seed = _require(cfg, "seed", int, "trace", default=0)
    n0 = _require(cfg, "n0", float, "trace", default=1.0)
    experiment = ExperimentConfig(n=n, k=k, et_db=(float(et_db),), trials=trials,
                                  master_seed=seed, n0=n0,
                                  var_alpha=_alpha_variance(cfg),
                                  variants=_variants(cfg))
    outputs = [out_dir / f"traces_{variant}.jsonl" for variant in experiment.variants]
    # each block of trials is drawn once and traced by every variant, its
    # records written before the next block is drawn, so memory does not
    # grow with the trials
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(output_file(path)) for path in outputs]
        for blocks in _trace_blocks(experiment):
            for records, fh in zip(blocks, files):
                fh.write("".join(map(trace_line, records)))
    if not args.quiet:
        for path in outputs:
            print(f"wrote {path}")
    return outputs


_COMMANDS = {
    "codebook": cmd_codebook,
    "sweep": cmd_sweep,
    "bound": cmd_bound,
    "trace": cmd_trace,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process, since it holds no run state."""
    parser = argparse.ArgumentParser(
        prog="beamest",
        description="Hierarchical beam-search channel estimation experiments.")
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="what to run")
    parser.add_argument("--config", required=True,
                        help="config file path or shipped preset name "
                             "(fig3, fig4, table1)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker process cap for Monte Carlo trials (at most the "
                             "usable CPU count is started)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {args.out!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    try:
        config_name, cfg = load_config(args.config)
        if args.seed is not None:
            # resolve the override into the config so the manifest echo alone
            # reproduces the run
            cfg["seed"] = args.seed
        run_info: dict = {}
        outputs = _COMMANDS[args.command](cfg, args, run_info)
        _write_manifest(out_dir, args.command, config_name, cfg, args,
                        time.perf_counter() - started, outputs, run_info)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # reading the config raises ConfigError, so this is an output file,
        # which output_file names
        print(f"error: cannot write '{exc.filename}': {exc.strerror}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
