"""Command-line entry point.

Selects a scenario, runs it, writes CSV/JSON artifacts to the output
directory, and exits 0 on success, 2 when a statistical threshold fails,
and 1 on configuration or validation errors (CI can tell "broken" from
"statistically failing").  Every flag has a config-file equivalent
(YAML, same key with underscores); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from . import experiments
from .chronometry import ClockScenario, dilation_time, queue_clock_count
from .engine import Mode, prepare, run_trial
from .errors import ConfigError, ScoutnetError, TopologyError
from .lattice import (
    Lattice,
    build_grid,
    build_intensity_star,
    build_slit_grid,
    build_star,
    build_two_path,
    load_topology,
)

SCENARIOS = ("star", "two-path", "double-slit", "grid", "clock", "dilation", "custom")
OUT_ENV_VAR = "SCOUTNET_OUT"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_THRESHOLD = 2


@dataclass
class RunConfig:
    scenario: str = "star"
    mode: str = "aggregate"
    wavelength: float = 1.0
    trials: int = 10_000
    seed: int = 42
    jobs: int = 1
    topology: Optional[str] = None
    out: str = "."
    trace: bool = False
    tv_threshold: Optional[float] = None
    chi_percentile: float = 0.99
    detectors: int = 3
    arm_hops: int = 2
    intensities: Optional[str] = None
    len_a: float = 2.0
    len_b: float = 2.0
    hops: int = 2
    grid_w: int = 3
    grid_h: int = 9
    slits: str = "2,6"
    screen_detectors: Optional[int] = None
    v: Optional[str] = None
    distance: str = "10"
    laser_distance: int = 1
    cadence: int = 1


class _Parser(argparse.ArgumentParser):
    """A malformed or unknown flag is a configuration error (exit 1), not
    argparse's exit 2, which this CLI keeps for failing statistical gates."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scoutnet",
        description="Deterministic scout/query/lottery protocol simulator",
    )
    add = parser.add_argument
    add("--config", help="YAML config file; flags override its values")
    add("--scenario", choices=SCENARIOS)
    add("--mode", choices=[m.value for m in Mode])
    add("--lambda", dest="wavelength", type=float, help="photon wavelength")
    add("--trials", type=int)
    add("--seed", type=int, help="master seed in [0, 2**64)")
    add("--jobs", type=int, help="parallel trial workers (results identical)")
    add("--topology", help="topology document (custom scenario)")
    add("--out", help=f"output directory (default ${OUT_ENV_VAR} or cwd)")
    add("--trace", action="store_true", default=None, help="write a trial event log")
    add("--tv-threshold", dest="tv_threshold", type=float)
    add("--chi-percentile", dest="chi_percentile", type=float)
    add("--detectors", type=int, help="star detector count")
    add("--arm-hops", dest="arm_hops", type=int, help="star arm hop count")
    add("--intensities", help="comma list of star arm target intensities")
    add("--len-a", dest="len_a", type=float, help="two-path: first path length")
    add("--len-b", dest="len_b", type=float, help="two-path: second path length")
    add("--hops", type=int, help="two-path: hops per path")
    add("--grid-w", dest="grid_w", type=int)
    add("--grid-h", dest="grid_h", type=int)
    add("--slits", help="comma list of open barrier rows")
    add("--screen-detectors", dest="screen_detectors", type=int)
    add("--v", help="dilation: comma list of speeds in units of c")
    add("--distance", help="clock: comma list of source distances in hops")
    add("--laser-distance", dest="laser_distance", type=int)
    add("--cadence", type=int, help="clock: ticks between laser emissions")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        import yaml  # imported on use: most runs have no config file

        try:
            loaded = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"unparseable config file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must be a mapping")
        hints = get_type_hints(RunConfig)
        for key, value in loaded.items():
            name = str(key).replace("-", "_")
            if name not in hints:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(config, name, _checked_value(key, value, hints[name]))
    env_out = os.environ.get(OUT_ENV_VAR)
    if env_out and args.out is None and config.out == ".":
        config.out = env_out
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    return config


def _checked_value(key: object, value: object, hint: object) -> object:
    """A config-file value of the field's type; an int may stand for a float,
    and a number for text (list options such as ``distance: 10``)."""
    kinds = get_args(hint) or (hint,)
    if str in kinds and type(value) in (int, float):
        return str(value)
    if type(value) in kinds or (float in kinds and type(value) is int):
        return value
    expected = " or ".join(k.__name__ for k in kinds if k is not type(None))
    raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"malformed {flag} value {text!r}") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"malformed {flag} value {text!r}") from exc


def _scenario_lattice(config: RunConfig) -> Lattice:
    if config.scenario == "star":
        if config.intensities:
            targets = _parse_float_list(config.intensities, "--intensities")
            return build_intensity_star(targets, wavelength=config.wavelength)
        return build_star(
            config.detectors,
            config.arm_hops,
            [1.0] * config.detectors,
            wavelength=config.wavelength,
        )
    if config.scenario == "two-path":
        return build_two_path(
            config.len_a, config.len_b, config.hops, wavelength=config.wavelength
        )
    if config.scenario == "double-slit":
        return build_slit_grid(
            config.grid_w,
            config.grid_h,
            _parse_int_list(config.slits, "--slits"),
            screen_detectors=config.screen_detectors,
            wavelength=config.wavelength,
        )
    if config.scenario == "grid":
        return build_grid(
            config.grid_w,
            config.grid_h,
            detector_mode="column",
            wavelength=config.wavelength,
        )
    if config.scenario == "custom":
        if not config.topology:
            raise ConfigError("custom scenario requires --topology")
        path = Path(config.topology)
        if not path.is_file():
            raise ConfigError(f"topology file not found: {path}")
        try:
            document = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise TopologyError(f"topology file {path} is not UTF-8: {exc}") from exc
        return load_topology(document)
    raise ConfigError(f"scenario {config.scenario!r} has no lattice")


def _write(path: Path, text: str) -> None:
    """Write one artifact; an OS error (the name is a directory, the disk is
    full) ends the run as a configuration error, not a traceback."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _run_ensemble_scenario(config: RunConfig, out_dir: Path) -> int:
    lattice = _scenario_lattice(config)
    mode = Mode(config.mode)
    plan = None
    if config.trace:
        events: list[str] = []
        plan = prepare(lattice, trace=events.append)
        run_trial(lattice, mode, config.seed, 0, plan=plan, trace=events.append)
        _write(out_dir / "trial_trace.log", "\n".join(events) + "\n")

    if config.scenario == "double-slit":
        profile = experiments.interference_profile(
            lattice, mode, config.trials, config.seed, jobs=config.jobs, plan=plan
        )
        result = profile.ensemble
        _write(out_dir / "profile.csv", experiments.profile_csv(profile))
        default_tv = 0.02
    else:
        result = experiments.run_ensemble(
            lattice,
            mode,
            config.trials,
            config.seed,
            jobs=config.jobs,
            lattice_id=config.scenario,
            plan=plan,
        )
        default_tv = 0.01
    _write(out_dir / "ensemble.csv", experiments.ensemble_csv(result))
    _write(out_dir / "summary.json", experiments.summary_json(result))

    critical = None
    if result.dof > 0:
        critical = experiments.chi_square_critical(result.dof, config.chi_percentile)
    tv_threshold = config.tv_threshold
    if tv_threshold is None:
        # TV = 1/2 sum|p^ - p| <= 1/2 sqrt(chi2 / n) by Cauchy-Schwarz, with
        # chi2 taken over every detector, unpooled: the bound uses that
        # statistic's quantile, so a run is not failed on TV by sampling
        # noise alone, however few its trials.
        tv_threshold = default_tv
        cells = sum(p > 0.0 for p in result.reference.entries.values())
        if cells > 1:
            unpooled = experiments.chi_square_critical(cells - 1, config.chi_percentile)
            tv_threshold = max(default_tv, 0.5 * math.sqrt(unpooled / result.trials))
    if result.underpowered:
        print(
            f"warning: underpowered run: pooling the detectors that expect "
            f"fewer than 5 of {result.trials} trials leaves one cell, so no "
            f"chi-square gate runs",
            file=sys.stderr,
        )
    if result.tv_distance > tv_threshold:
        print(
            f"threshold failure: tv {result.tv_distance:.5f} > {tv_threshold:.5g}",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD
    if critical is not None and result.chi_square > critical:
        print(
            f"threshold failure: chi2 {result.chi_square:.3f} > "
            f"critical {critical:.3f} (dof {result.dof})",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD
    return EXIT_OK


def _run_clock(config: RunConfig, out_dir: Path) -> int:
    lines = ["source_distance,laser_distance,cadence,laser_count"]
    for d_s in _parse_int_list(config.distance, "--distance"):
        scenario = ClockScenario(d_s, config.laser_distance, config.cadence)
        count = queue_clock_count(scenario)
        lines.append(f"{d_s},{config.laser_distance},{config.cadence},{count}")
    _write(out_dir / "clock.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def _run_dilation(config: RunConfig, out_dir: Path) -> int:
    if config.v is not None:
        speeds = _parse_float_list(config.v, "--v")
    else:
        speeds = [i / 100.0 for i in range(0, 100)]
    lines = ["v,t"]
    for v in speeds:
        lines.append(f"{v!r},{dilation_time(1.0, v)!r}")
    _write(out_dir / "dilation.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def run(config: RunConfig) -> int:
    if config.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {config.scenario!r}")
    if config.mode not in {m.value for m in Mode}:
        raise ConfigError(f"unknown mode {config.mode!r}")
    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if not 0 <= config.seed < 2**64:
        # the trial seeds reject it too, but only once trials run; checked
        # here so the run exits 1 before it writes anything
        raise ConfigError(f"seed must lie in [0, 2**64), got {config.seed}")
    if not 0.0 < config.chi_percentile < 1.0:
        raise ConfigError(
            f"chi_percentile must lie strictly between 0 and 1, "
            f"got {config.chi_percentile!r}"
        )
    if config.tv_threshold is not None and not (
        math.isfinite(config.tv_threshold) and config.tv_threshold >= 0.0
    ):
        raise ConfigError(
            f"tv_threshold must be finite and >= 0, got {config.tv_threshold!r}"
        )
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    if config.scenario == "clock":
        return _run_clock(config, out_dir)
    if config.scenario == "dilation":
        return _run_dilation(config, out_dir)
    return _run_ensemble_scenario(config, out_dir)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _merge_config(args)
        return run(config)
    except ScoutnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
