"""Command-line entry point.

Selects a scenario, runs it, writes CSV/JSON artifacts to the output
directory, and exits 0 on success, 2 when a statistical threshold fails,
and 1 on configuration or validation errors (CI can tell "broken" from
"statistically failing").  A YAML config file keys each option by its
name in ``OPTIONS`` (the key for ``--lambda`` is ``wavelength``).  Flags
override the file, which overrides ``$SCOUTNET_OUT`` as the output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Optional

from . import experiments
from .engine import Mode, prepare, run_trial
from .errors import ConfigError, ScoutnetError
from .lattice import (
    Lattice,
    build_grid,
    build_intensity_star,
    build_slit_grid,
    build_star,
    build_two_path,
    load_topology,
    load_yaml,
)

SCENARIOS = ("star", "two-path", "double-slit", "grid", "clock", "dilation", "custom")
OUT_ENV_VAR = "SCOUTNET_OUT"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_THRESHOLD = 2


# Each option: its default, its value type and its flag's help.  The type is
# int, float, bool or str; a tuple of the values it may take; or a one-item
# list: a comma list of that item type, given as text, which ``_merge_config``
# parses whatever the scenario, so every malformed list exits 1.  A ``None``
# default lets a config file give ``null``.
OPTIONS: dict[str, tuple[object, object, Optional[str]]] = {
    "scenario": ("star", SCENARIOS, None),
    "mode": ("aggregate", tuple(m.value for m in Mode), None),
    "wavelength": (1.0, float, "photon wavelength"),
    "trials": (10_000, int, None),
    "seed": (42, int, "master seed in [0, 2**64)"),
    "jobs": (1, int, "parallel trial workers (results identical)"),
    "topology": (None, str, "topology document (custom scenario)"),
    "out": (".", str, f"output directory (default ${OUT_ENV_VAR} or cwd)"),
    "trace": (False, bool, "write a trial event log"),
    "tv_threshold": (None, float, None),
    "chi_percentile": (0.99, float, None),
    "detectors": (3, int, "star detector count"),
    "arm_hops": (2, int, "star arm hop count"),
    "intensities": (None, [float], "comma list of star arm target intensities"),
    "len_a": (2.0, float, "two-path: first path length"),
    "len_b": (2.0, float, "two-path: second path length"),
    "hops": (2, int, "two-path: hops per path"),
    "grid_w": (3, int, None),
    "grid_h": (9, int, None),
    "slits": ("2,6", [int], "comma list of open barrier rows"),
    "screen_detectors": (None, int, None),
    "v": (None, [float], "dilation: comma list of speeds in units of c"),
    "distance": ("10", [int], "clock: comma list of source distances in hops"),
    "laser_distance": (1, int, None),
    "cadence": (1, int, "clock: ticks between laser emissions"),
}


def _flag(name: str) -> str:
    """The option's flag: ``--`` and its name with dashes, except that
    ``wavelength`` is ``--lambda``."""
    return "--lambda" if name == "wavelength" else "--" + name.replace("_", "-")


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
    parser.add_argument("--config", help="YAML config file; flags override its values")
    for name, (_, kind, text) in OPTIONS.items():
        if kind is bool:
            spec = {"action": "store_true"}
        elif isinstance(kind, tuple):
            spec = {"choices": kind}
        else:
            spec = {"type": str if isinstance(kind, list) else kind}
        # default None: a flag not given leaves the config file's value
        parser.add_argument(_flag(name), dest=name, default=None, help=text, **spec)
    return parser


def _read(path: Path, what: str) -> str:
    """The text of an input file; a missing or non-UTF-8 file ends the run
    as a configuration error.  ``what`` names the file in the message."""
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8: {exc}") from exc


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """One run's options: each ``OPTIONS`` default, then ``$SCOUTNET_OUT``
    for ``out``, then ``given``: the config file's checked values, and over
    them the flags that were given.  A list option holds its parsed list."""
    given: dict[str, object] = {}
    if args.config:
        document = _read(Path(args.config), "config file")
        loaded = load_yaml(document, ConfigError, "config file") or {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must be a mapping")
        for key, value in loaded.items():
            name = str(key).replace("-", "_")
            if name not in OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            if name in given:
                first = next(k for k in loaded if str(k).replace("-", "_") == name)
                raise ConfigError(f"config keys {first!r} and {key!r} set one option")
            given[name] = _checked_value(key, value, name)
    flags = vars(args)
    given.update({name: flags[name] for name in OPTIONS if flags[name] is not None})
    config = argparse.Namespace(**{name: spec[0] for name, spec in OPTIONS.items()})
    config.out = os.environ.get(OUT_ENV_VAR) or config.out
    vars(config).update(given)
    for name, (_, kind, _) in OPTIONS.items():
        text = getattr(config, name)
        if isinstance(kind, list) and text is not None:
            try:
                setattr(config, name, [kind[0](x) for x in str(text).split(",")])
            except ValueError as exc:
                raise ConfigError(f"malformed {_flag(name)} value {text!r}") from exc
    # the intensities set the star's detectors and the shape of its arms:
    # a detector count given beside them must agree, and an arm hop count
    # has no arm to set, or either would be dropped without a word.  No
    # other scenario reads these keys.
    if config.scenario == "star" and config.intensities:
        if "detectors" in given and config.detectors != len(config.intensities):
            raise ConfigError(
                f"--detectors {config.detectors} differs from the "
                f"{len(config.intensities)} values of --intensities"
            )
        if "arm_hops" in given:
            raise ConfigError(
                "--arm-hops does not apply beside --intensities, "
                "which build each arm to its intensity"
            )
    return config


def _checked_value(key: object, value: object, name: str) -> object:
    """A config-file value of option ``name``'s type, or ``null`` where its
    default is ``None``.  A fixed-set option takes one of its values, and a
    list option text; an int may stand for a float, and a number for text
    (such as ``distance: 10``)."""
    default, kind, _ = OPTIONS[name]
    if value is None and default is None:
        return value
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ConfigError(
            f"config key {key!r} must be one of {', '.join(kind)}, got {value!r}"
        )
    if isinstance(kind, list):
        kind = str
    if kind is str and type(value) in (int, float):
        return str(value)
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _scenario_lattice(config: argparse.Namespace) -> Lattice:
    if config.scenario == "star":
        if config.intensities:
            return build_intensity_star(
                config.intensities, wavelength=config.wavelength
            )
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
            config.slits,
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
        return load_topology(_read(Path(config.topology), "topology file"))
    raise ConfigError(f"scenario {config.scenario!r} has no lattice")


def _write(path: Path, text: str) -> None:
    """Write one artifact; an OS error (the name is a directory, the disk is
    full) ends the run as a configuration error, not a traceback."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _run_ensemble_scenario(config: argparse.Namespace, out_dir: Path) -> int:
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

    warning, failure = experiments.gate(
        result, config.chi_percentile, config.tv_threshold, default_tv
    )
    for line in (warning, failure):
        if line is not None:
            print(line, file=sys.stderr)
    return EXIT_OK if failure is None else EXIT_THRESHOLD


def _run_clock(config: argparse.Namespace, out_dir: Path) -> int:
    from .chronometry import queue_clock_count  # only clock runs need it

    lines = ["source_distance,laser_distance,cadence,laser_count"]
    for d_s in config.distance:
        count = queue_clock_count(d_s, config.laser_distance, config.cadence)
        lines.append(f"{d_s},{config.laser_distance},{config.cadence},{count}")
    _write(out_dir / "clock.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def _run_dilation(config: argparse.Namespace, out_dir: Path) -> int:
    from .chronometry import dilation_time  # only dilation runs need it

    if config.v is not None:
        speeds = config.v
    else:
        speeds = [i / 100.0 for i in range(0, 100)]
    lines = ["v,t"]
    for v in speeds:
        lines.append(f"{v!r},{dilation_time(1.0, v)!r}")
    _write(out_dir / "dilation.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def run(config: argparse.Namespace) -> int:
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
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the name
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
