"""Command-line interface: config ingestion, dispatch, result serialization.

Commands
--------
validate   structural report, fixed point, distance ladder  -> validate.json
solve      fixed point of the measurement-branch map        -> p_star.csv
simulate   synthetic closed-loop estimator run              -> trajectory.csv
empirical  independent-trial distance sampling              -> samples.csv, histogram.csv
ergodic    single-trajectory time sampling                  -> samples.csv, histogram.csv
approx     atomic stationary approximation                  -> atoms.csv
compare    three-method cluster table                       -> clusters.csv
rate       time-average convergence diagnostics             -> rate.csv

Every run writes ``manifest.json`` (config digest, tool version, timestamps,
output paths) into the output directory; no command writes anywhere else.
Floats are serialized with ``repr`` (shortest round-trip decimals), so
re-parsing a CSV recovers the in-memory values exactly and identical configs
produce byte-identical tables.

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

# numpy's bundled OpenBLAS starts its worker threads when numpy loads.  The
# largest product pcmlab hands it is 2x2, so a second thread only spins;
# pin one before the first numpy import.  A value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .channel import ChannelParams, sample_chain, stationary_probability
from .estimator import simulate_trajectory
from .experiments import (
    SIMULATE_CHAIN_STREAM,
    SIMULATE_NOISE_STREAM,
    ExperimentConfig,
    NonFiniteSampleError,
    compare_table,
    prepare,
    rate_study,
    run_empirical,
    run_ergodic,
)
from .pdm import NotPositiveDefiniteError, PDMatrix, riemannian_distance
from .plant import build_modified_plant, check_structure
from .riccati import ConvergenceError, solve_dare
from .stationary import LN10, enumeration_distribution, delta_distribution

# How a JSON value becomes a field of each annotated type.  Integer fields
# take the value as parsed; their dataclass refuses anything but an int.
_CONVERT = {
    float: float,
    np.ndarray: lambda value: np.array(value, dtype=float),
    tuple: lambda value: tuple(np.array(m, dtype=float) for m in value),
    PDMatrix: PDMatrix,
}


class ConfigError(ValueError):
    """Configuration file is unreadable or violates a field constraint."""


def _numbers(value, where: str):
    """``value`` itself if every leaf of it is a finite JSON number (not a bool)."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            _numbers(item, f"{where}[{i}]")
    elif type(value) is not int and not (type(value) is float and math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return value


def _section(cls, raw, where: str):
    """Build the dataclass ``cls`` from the JSON object ``raw`` found at ``where``.

    The fields of ``cls`` are the schema: each names an allowed key, one
    without a default is required, and a dataclass-typed one is a nested
    section.  A value for a float or matrix field must pass
    :func:`_numbers` and is converted by the field's annotated type.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(unknown))}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key, hint = f"{where}.{f.name}", hints[f.name]
        if f.name not in raw:
            if f.default is MISSING:
                raise ConfigError(f"missing required field {key}")
        elif hint in _CONVERT:
            value = _numbers(raw[f.name], key)
            try:
                kwargs[f.name] = _CONVERT[hint](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif is_dataclass(hint):
            kwargs[f.name] = _section(hint, raw[f.name], key)
        else:  # an integer field, or None where it may be unset: the dataclass checks it
            kwargs[f.name] = raw[f.name]
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        # Every field check of the config dataclasses starts with the field name.
        raise ConfigError(f"{where}.{exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    The fields of :class:`ExperimentConfig`, :class:`NominalPlant` and
    :class:`ChannelParams` are the schema (see :func:`_section`); matrices
    are row-major nested arrays.  Unknown keys, missing keys, values that
    are not finite numbers and constraint violations raise
    :class:`ConfigError` naming the offending field; a file that cannot be
    read as UTF-8 text raises it naming the path.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return _section(ExperimentConfig, raw, "config")


def config_dict(value):
    """Canonical JSON-ready form of a resolved config (digest input).

    A walk over the dataclass fields: matrices become nested lists and
    tuples lists; numbers and None stay as they are.
    """
    if isinstance(value, (np.ndarray, PDMatrix)):
        return np.asarray(value).tolist()
    if isinstance(value, tuple):
        return [config_dict(item) for item in value]
    if is_dataclass(value):
        return {f.name: config_dict(getattr(value, f.name)) for f in fields(value)}
    return value


def config_digest(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig, outputs: list) -> Path:
    manifest = {
        "command": command,
        "config_digest": config_digest(cfg),
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "master_seed": cfg.master_seed,
        "output_paths": [str(p) for p in outputs],
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _cmd_validate(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    prep = prepare(cfg)
    mp = prep.mp
    report = check_structure(mp)
    payload = {
        "structure": asdict(report),
        "p_star": prep.p_star.entries.tolist(),
        "distance_ladder": prep.ladder.tolist(),
    }
    path = out_dir / "validate.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"structure ok: ctrb {report.ctrb_rank}/{mp.n}, obsv {report.obsv_rank}/{mp.n}, "
          f"rho(a0) = {report.spectral_radius_a0:.6g}")
    print(f"distance ladder: {np.array2string(prep.ladder, precision=5)}")
    return [path]


def _cmd_solve(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    mp = build_modified_plant(cfg.plant)
    sol = solve_dare(mp)
    path = out_dir / "p_star.csv"
    n = sol.p_star.dim
    write_csv(path, [f"col_{j}" for j in range(n)], sol.p_star.entries.tolist())
    print(f"fixed point after {sol.iterations} iterations "
          f"(final step {sol.final_step_delta:.3e}):")
    print(np.array2string(sol.p_star.entries, precision=6))
    return [path]


def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    seed = cfg.require_seed()
    prep = prepare(cfg)
    word = sample_chain(cfg.channel, cfg.init_p1, cfg.horizon, seed, stream=SIMULATE_CHAIN_STREAM)
    p0 = PDMatrix(cfg.init_pcm_scale * np.eye(cfg.plant.n))
    run = simulate_trajectory(
        cfg.plant, prep.mp, word[1:], np.zeros(cfg.plant.n), p0,
        seed=seed, stream=SIMULATE_NOISE_STREAM,
    )
    n, p = cfg.plant.n, cfg.plant.p
    rows = []
    for k in range(cfg.horizon + 1):
        # Row 0 has no measurement yet; NaNs keep the width fixed.
        y = list(np.atleast_1d(run["measurements"][k - 1])) if k else [float("nan")] * p
        dist = riemannian_distance(run["pcms"][k], prep.p_star) / LN10
        rows.append(
            [k, int(word[k])] + list(run["states"][k]) + list(run["estimates"][k]) + y + [dist]
        )
    header = (
        ["k", "gamma"]
        + [f"x_true_{i}" for i in range(n)]
        + [f"x_hat_{i}" for i in range(n)]
        + [f"y_{i}" for i in range(p)]
        + ["pcm_distance"]
    )
    path = out_dir / "trajectory.csv"
    write_csv(path, header, rows)
    print(f"simulated {cfg.horizon} steps; final estimate error "
          f"{np.linalg.norm(run['states'][-1] - run['estimates'][-1]):.4g}")
    return [path]


def _write_samples(out_dir: Path, samples, hist) -> list:
    samples_path = out_dir / "samples.csv"
    write_csv(samples_path, ["distance"], ([s] for s in samples))
    hist_path = out_dir / "histogram.csv"
    width = hist.delta_max / hist.n_bins
    rows = [
        [i * width, (i + 1) * width, int(c), f]
        for i, (c, f) in enumerate(zip(hist.counts, hist.normalized))
    ]
    write_csv(hist_path, ["bin_lo", "bin_hi", "count", "fraction"], rows)
    return [samples_path, hist_path]


def _cmd_empirical(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    samples, hist = run_empirical(cfg)
    print(f"{samples.size} trials; histogram overflow {hist.overflow}")
    return _write_samples(out_dir, samples, hist)


def _cmd_ergodic(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    samples, hist = run_ergodic(cfg)
    print(f"{samples.size} time samples; histogram overflow {hist.overflow}")
    return _write_samples(out_dir, samples, hist)


def _cmd_approx(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    prep = prepare(cfg)
    gamma_st = stationary_probability(cfg.channel)
    if args.method == "delta":
        dist = delta_distribution(prep.mp, prep.p_star, gamma_st, cfg.n_d)
    else:
        dist = enumeration_distribution(
            prep.mp, prep.p_star, gamma_st, max_len=args.max_len, eps_p=args.eps_p
        )
    rows = [
        [i, atom.distance, atom.mass, atom.code]
        for i, atom in enumerate(dist.atoms)
    ]
    path = out_dir / "atoms.csv"
    write_csv(path, ["index", "distance", "mass", "code"], rows)
    print(f"{len(dist.atoms)} atoms ({args.method}); residual mass {dist.residual_mass:.3e}")
    return [path]


def _cmd_compare(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    table = compare_table(cfg)
    columns = table.columns.values()
    rows = [[d] + [fracs[i] for fracs, _ in columns] for i, d in enumerate(table.distances)]
    rows.append(["unassigned"] + [unassigned for _, unassigned in columns])
    path = out_dir / "clusters.csv"
    write_csv(path, ["distance"] + [f"mass_{name}" for name in table.columns], rows)
    print(f"cluster table with {len(table.distances)} rows written")
    return [path]


def _cmd_rate(cfg: ExperimentConfig, out_dir: Path, args) -> list:
    if args.checkpoints:
        checkpoints = []
        for tok in args.checkpoints.split(","):
            try:
                checkpoints.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"--checkpoints takes comma-separated integers; {tok!r} is not one"
                ) from None
    else:
        n = cfg.effective_ergodic_length
        defaults = {max(10, n // 100), max(100, n // 10), n // 2}
        checkpoints = sorted(c for c in defaults if 2 <= c <= n)
        if not checkpoints:
            raise ValueError(
                f"ergodic length {n} is too short for a rate study; "
                "it needs at least 4 steps or explicit --checkpoints"
            )
    results = rate_study(cfg, checkpoints)
    path = out_dir / "rate.csv"
    write_csv(path, ["n", "sup_gap", "envelope_ratio"], results)
    for n, gap, env in results:
        print(f"n = {n}: sup gap {gap:.5f}, envelope ratio {env:.4f}")
    return [path]


_HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "empirical": _cmd_empirical,
    "ergodic": _cmd_ergodic,
    "approx": _cmd_approx,
    "compare": _cmd_compare,
    "rate": _cmd_rate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmlab",
        description="Stationary-distribution toolkit for a robust filter over a lossy channel",
    )
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--horizon", type=int, default=None, help="override per-trial horizon")
    parser.add_argument("--ergodic-length", dest="ergodic_length", type=int, default=None,
                        help="override single-trajectory run length")
    parser.add_argument(
        "--method", choices=("enumerate", "delta"), default="delta",
        help="atomic approximation method for `approx`",
    )
    parser.add_argument("--alpha", type=float, default=None, help="override channel alpha")
    parser.add_argument("--beta", type=float, default=None, help="override channel beta")
    parser.add_argument("--max-len", dest="max_len", type=int, default=12,
                        help="enumeration horizon for `approx --method enumerate`")
    parser.add_argument("--eps-p", dest="eps_p", type=float, default=1e-9,
                        help="pruning threshold for `approx --method enumerate`")
    parser.add_argument("--checkpoints", default=None,
                        help="comma-separated checkpoint lengths for `rate`")
    return parser


def apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Apply the command-line overrides; an invalid value raises :class:`ConfigError`."""
    updates = {}
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.horizon is not None:
        updates["horizon"] = args.horizon
    if args.ergodic_length is not None:
        updates["ergodic_length"] = args.ergodic_length
    try:
        if args.alpha is not None or args.beta is not None:
            updates["channel"] = ChannelParams(
                alpha=args.alpha if args.alpha is not None else cfg.channel.alpha,
                beta=args.beta if args.beta is not None else cfg.channel.beta,
            )
        return replace(cfg, **updates)
    except ValueError as exc:
        raise ConfigError(f"command-line override: {exc}") from exc


def dispatch(command: str, cfg: ExperimentConfig, args, out_dir) -> int:
    """Run one command against a resolved config; returns the exit code."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"validation failure: cannot use {out_dir} as the output directory: {exc}",
              file=sys.stderr)
        return 2
    try:
        outputs = _HANDLERS[command](cfg, out_dir, args)
    except (
        ConvergenceError,
        NotPositiveDefiniteError,
        np.linalg.LinAlgError,
        NonFiniteSampleError,
    ) as exc:
        # Before ValueError, which NotPositiveDefiniteError and LinAlgError subclass.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    manifest = write_manifest(out_dir, command, cfg, outputs)
    print(f"outputs: {', '.join(str(p) for p in outputs + [manifest])}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    return dispatch(args.command, cfg, args, args.out)


if __name__ == "__main__":
    sys.exit(main())
