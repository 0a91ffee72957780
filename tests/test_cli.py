import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diamond_chain
from scoutnet import engine
from scoutnet.cli import EXIT_CONFIG, EXIT_OK, EXIT_THRESHOLD, main
from scoutnet.lattice import build_star, serialize_topology


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_custom_without_topology_is_config_error(self, tmp_path, capsys):
        code = run_cli("--scenario", "custom", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "requires --topology" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("no_such_option: 1\n")
        code = run_cli("--config", str(cfg))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line,key", [("trials: abc", "trials"), ("wavelength: abc", "wavelength"),
                     ("mode: bogus", "mode")],
    )
    def test_malformed_config_value_is_config_error(
        self, tmp_path, capsys, line, key
    ):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{line}\nout: {tmp_path}\n")
        assert run_cli("--config", str(cfg)) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_laser_node_kind_is_config_error(self, tmp_path, capsys):
        doc = serialize_topology(build_star(2, 2, [1.0, 1.0]))
        topo = tmp_path / "topo.yaml"
        topo.write_text(doc.replace("kind: void", "kind: laser", 1))
        code = run_cli(
            "--scenario", "custom", "--topology", str(topo), "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        assert "laser" in capsys.readouterr().err

    def test_malformed_flag_value_is_config_error(self, tmp_path, capsys):
        code = run_cli("--scenario", "star", "--trials", "abc", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--trials" in err

    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        code = run_cli("--scenario", "star", "--no-such-flag", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--no-such-flag" in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range_is_config_error(self, tmp_path, capsys, seed):
        code = run_cli("--scenario", "star", "--seed", seed, "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_config_seed_out_of_range_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"seed: -5\nout: {tmp_path}\n")
        assert run_cli("--config", str(cfg)) == EXIT_CONFIG
        assert "got -5" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert "--scenario" in capsys.readouterr().out

    def test_missing_topology_file(self, tmp_path):
        code = run_cli(
            "--scenario", "custom", "--topology", str(tmp_path / "nope.yaml"),
            "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "case", ["config-not-utf8", "topology-not-utf8", "out-is-a-file",
                 "out-under-a-file"],
    )
    def test_unreadable_input_or_unwritable_out_is_config_error(
        self, tmp_path, capsys, case
    ):
        binary = tmp_path / "binary.yaml"
        binary.write_bytes(b"\xff\xfe")
        plain = tmp_path / "plain"
        plain.write_text("")
        out = str(tmp_path / "out")
        argv = {
            "config-not-utf8": ["--config", str(binary), "--out", out],
            "topology-not-utf8": [
                "--scenario", "custom", "--topology", str(binary), "--out", out,
            ],
            "out-is-a-file": ["--scenario", "dilation", "--out", str(plain)],
            "out-under-a-file": ["--scenario", "dilation", "--out", str(plain / "sub")],
        }[case]
        assert run_cli(*argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "artifact,argv",
        [
            ("ensemble.csv", ["--scenario", "star"]),
            ("summary.json", ["--scenario", "star"]),
            ("profile.csv", ["--scenario", "double-slit"]),
            ("trial_trace.log", ["--scenario", "star", "--trace"]),
            ("clock.csv", ["--scenario", "clock"]),
            ("dilation.csv", ["--scenario", "dilation"]),
        ],
    )
    def test_artifact_name_taken_by_a_directory_is_config_error(
        self, tmp_path, capsys, artifact, argv
    ):
        (tmp_path / artifact).mkdir()
        code = run_cli(*argv, "--trials", "10", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write"), err
        assert artifact in err

    def test_impossible_tv_threshold_fails_statistically(self, tmp_path, capsys):
        code = run_cli(
            "--scenario", "star", "--detectors", "2", "--trials", "2001",
            "--seed", "3", "--tv-threshold", "1e-9", "--out", str(tmp_path),
        )
        assert code == EXIT_THRESHOLD
        assert "threshold failure" in capsys.readouterr().err


class TestGateFlags:
    @pytest.mark.parametrize("value", ["1.5", "1.0", "-1", "nan"])
    def test_chi_percentile_out_of_range_is_config_error(
        self, tmp_path, capsys, value
    ):
        code = run_cli(
            "--scenario", "star", "--trials", "100", "--chi-percentile", value,
            "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "chi_percentile" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_tv_threshold_not_finite_and_non_negative_is_config_error(
        self, tmp_path, capsys, value
    ):
        code = run_cli(
            "--scenario", "star", "--trials", "100", "--tv-threshold", value,
            "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        assert "tv_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["chi_percentile: 1", "chi-percentile: .nan", "tv_threshold: .nan"]
    )
    def test_config_file_gate_keys_are_checked(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"scenario: star\ntrials: 100\n{line}\nout: {tmp_path}\n")
        assert run_cli("--config", str(cfg)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    def test_default_tv_gate_scales_with_trials(self, tmp_path, capsys):
        # tv 0.19 against the old fixed 0.01; the TV gate takes the unpooled
        # chi-square quantile at dof 8, while pooling the 9 detectors' cells
        # to expect 5 of 10 trials each leaves one cell and no chi-square gate
        code = run_cli(
            "--scenario", "grid", "--grid-w", "9", "--grid-h", "9",
            "--trials", "10", "--out", str(tmp_path),
        )
        err = capsys.readouterr().err
        assert code == EXIT_OK, err
        assert "threshold failure" not in err
        assert "warning: underpowered run: pooling" in err
        assert "leaves one cell" in err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tv_distance"] > 0.1
        assert summary["underpowered"] is True
        assert (summary["dof"], summary["chi_square"]) == (0, 0.0)

    def test_pooled_cells_set_the_chi_square_dof(self, tmp_path, capsys):
        # grid 4x4's corner detector expects 6.8 of 1000 trials and the next
        # 61.6: no pooling, dof 3; at 300 trials the corner expects 2.1 and
        # is pooled with its neighbour, dof 2
        for trials, dof in (("1000", 3), ("300", 2)):
            run_cli(
                "--scenario", "grid", "--grid-w", "4", "--grid-h", "4",
                "--trials", trials, "--out", str(tmp_path),
            )
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert (summary["dof"], summary["underpowered"]) == (dof, False)
        assert "warning" not in capsys.readouterr().err


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_TOPOLOGY = re.search(r"```yaml\n(.*?)```", README, re.S).group(1)
README_TWO_PATH = re.search(
    r"^scoutnet (--scenario two-path .*) --out results/$", README, re.M
).group(1)

SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text("ab0.:-[]{}# ", max_size=6)
)
VALUES = (
    SCALARS
    | st.lists(SCALARS, max_size=4)
    | st.dictionaries(st.text("abid", max_size=4), SCALARS, max_size=3)
)


def value_paths(doc, path=()):
    """The path of every value in a nested document, keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, (*path, key))


def container(doc, path):
    """The dict or list that holds the value at ``path``, and its key."""
    *steps, key = path
    for step in steps:
        doc = doc[step]
    return doc, key


def run_topology(doc) -> tuple[int, str]:
    """``--scenario custom`` on ``doc`` dumped to YAML: exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        topo = Path(tmp) / "topo.yaml"
        topo.write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(
                "--scenario", "custom", "--topology", str(topo), "--trials", "20",
                "--out", tmp,
            )
    return code, err.getvalue()


class TestTopologyDocuments:
    def test_readme_example_runs(self):
        assert run_topology(yaml.safe_load(README_TOPOLOGY)) == (EXIT_OK, "")

    @pytest.mark.parametrize(
        "path,value",
        [
            (("wavelength",), "abc"),
            (("ribs", 1, "length"), "abc"),
            (("nodes",), 5),
            (("ribs",), 5),
            # finite values whose phase 2*pi*length/wavelength is not
            (("ribs", 1, "length"), 1.0e308),
            (("wavelength",), 1.0e-310),
        ],
    )
    def test_malformed_value_is_config_error(self, path, value):
        doc = yaml.safe_load(README_TOPOLOGY)
        parent, key = container(doc, path)
        parent[key] = value
        code, err = run_topology(doc)
        assert code == EXIT_CONFIG
        assert err.startswith("error:")

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_readme_example_never_raises(self, data):
        # replace a value, drop a key or add an unknown key anywhere
        doc = yaml.safe_load(README_TOPOLOGY)
        paths = list(value_paths(doc))
        parent, key = container(doc, data.draw(st.sampled_from(paths)))
        action = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "replace" or not isinstance(parent, dict):
            parent[key] = data.draw(VALUES)
        elif action == "drop":
            del parent[key]
        else:
            unknown = data.draw(st.text("xyz", min_size=1, max_size=3))
            parent[unknown] = data.draw(VALUES)
        code, err = run_topology(doc)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_THRESHOLD)
        if code == EXIT_CONFIG:
            assert err.startswith("error:")


# one valid run per scenario, each small; ``out`` is relative, so every
# example runs in a fresh working directory
CONFIGS = [
    {"scenario": "star", "mode": "naive", "trials": 50, "seed": 3, "detectors": 2,
     "arm_hops": 1, "wavelength": 1.0, "trace": True, "out": "out"},
    {"scenario": "star", "intensities": "1,2", "trials": 50, "tv_threshold": 0.5,
     "chi_percentile": 0.9, "out": "out"},
    {"scenario": "two-path", "len_a": 2.0, "len_b": 2.25, "hops": 2, "trials": 50,
     "out": "out"},
    {"scenario": "double-slit", "grid_w": 3, "grid_h": 3, "slits": "0,2",
     "screen_detectors": 3, "trials": 50, "out": "out"},
    {"scenario": "grid", "grid_w": 3, "grid_h": 2, "trials": 50, "out": "out"},
    {"scenario": "clock", "distance": "3,1", "laser_distance": 1, "cadence": 2,
     "out": "out"},
    {"scenario": "dilation", "v": "0,0.5", "out": "out"},
]
# YAML reads ``1e400`` as text, which float() reads as inf
CONFIG_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.sampled_from([math.nan, math.inf, "1e400"])
    | st.text("ab0.,-: ", max_size=5)
)
CONFIG_VALUES = (
    CONFIG_SCALARS
    | st.lists(CONFIG_SCALARS, max_size=3)
    | st.dictionaries(st.text("ab", max_size=3), CONFIG_SCALARS, max_size=2)
)


def run_config(doc) -> tuple[int, str]:
    """``--config`` on ``doc`` dumped to YAML, in a fresh working directory:
    exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.delenv("SCOUTNET_OUT", raising=False)
        Path("run.yaml").write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("--config", "run.yaml")
    return code, err.getvalue()


class TestConfigDocuments:
    def test_valid_documents_run(self):
        for doc in CONFIGS:
            assert run_config(doc)[0] in (EXIT_OK, EXIT_THRESHOLD), doc

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_document_never_raises(self, data):
        # replace a value, drop a key or add an unknown key; ``trials`` is
        # never dropped, since its default of 10 000 trials is no small run
        doc = dict(data.draw(st.sampled_from(CONFIGS)))
        action = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add":
            unknown = data.draw(st.text("xyz", min_size=1, max_size=3))
            doc[unknown] = data.draw(CONFIG_VALUES)
        else:
            key = data.draw(st.sampled_from(sorted(doc)))
            if action == "replace" or key == "trials":
                doc[key] = data.draw(CONFIG_VALUES)
            else:
                del doc[key]
        code, err = run_config(doc)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_THRESHOLD)
        if code == EXIT_CONFIG:
            assert err.startswith("error:")


def test_cli_import_loads_no_optional_dependency(tmp_path):
    # checked after the import and again after a short star run, which
    # draws from the trial streams
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = (
        "scipy", "numpy", "yaml", "concurrent.futures.process", "hashlib",
        "_hashlib",
    )  # fmt: skip
    argv = ["--scenario", "star", "--trials", "100", "--out", str(tmp_path)]
    script = (
        "import sys, scoutnet.cli\n"
        f"loaded = lambda: ','.join(m for m in {heavy!r} if m in sys.modules)\n"
        "print(loaded())\n"
        f"assert scoutnet.cli.main({argv!r}) == 0\n"
        "print(loaded())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split("\n") == ["", "", ""]


class TestScenarios:
    def test_star_writes_artifacts(self, tmp_path):
        code = run_cli(
            "--scenario", "star", "--detectors", "3", "--trials", "2000",
            "--seed", "42", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert (tmp_path / "ensemble.csv").is_file()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["trials"] == 2000
        assert summary["seed"] == 42

    def test_dilation_table_row(self, tmp_path):
        code = run_cli("--scenario", "dilation", "--v", "0.6", "--out", str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "dilation.csv").read_text().strip().split("\n")
        assert lines[1] == "0.6,1.25"

    def test_clock_table(self, tmp_path):
        code = run_cli(
            "--scenario", "clock", "--distance", "5,10,20", "--cadence", "2",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        lines = (tmp_path / "clock.csv").read_text().strip().split("\n")
        assert lines[1:] == ["5,1,2,3", "10,1,2,5", "20,1,2,10"]

    def test_large_grid_runs_past_the_path_walk(self, tmp_path, capsys):
        # the class-summed oracle reaches grids the path walk's budget did
        # not; grids are not Born-exact, so the gate fails (ROADMAP item 2)
        code = run_cli(
            "--scenario", "grid", "--grid-w", "20", "--grid-h", "20",
            "--trials", "500", "--out", str(tmp_path),
        )
        assert code == EXIT_THRESHOLD
        assert "threshold failure" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ensemble.csv", "summary.json",
        ]  # fmt: skip

    def test_class_budget_ends_a_deep_slit_screen(self, tmp_path, capsys):
        # slit 30x9's classes outgrow the budget within about a second
        code = run_cli(
            "--scenario", "double-slit", "--grid-w", "30", "--trials", "10",
            "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: path budget exceeded: ")
        assert "class updates" in err

    def test_readme_two_path_example_runs(self, tmp_path):
        code = run_cli(*README_TWO_PATH.split(), "--out", str(tmp_path))
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["lattice_id"] == "two-path"

    def test_intensity_overflow_is_config_error(self, tmp_path, capsys):
        topo = tmp_path / "d600.yaml"
        topo.write_text(serialize_topology(diamond_chain(600)))
        code = run_cli(
            "--scenario", "custom", "--topology", str(topo), "--trials", "10",
            "--out", str(tmp_path),
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: intensity overflow: ")
        assert "Traceback" not in err
        assert not (tmp_path / "summary.json").exists()

    def test_double_slit_writes_profile(self, tmp_path):
        code = run_cli(
            "--scenario", "double-slit", "--trials", "2000", "--seed", "11",
            "--tv-threshold", "0.1", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert (tmp_path / "profile.csv").is_file()

    def test_custom_topology_round_trip(self, tmp_path):
        doc = serialize_topology(build_star(2, 1, [1.0, 1.0]))
        topo = tmp_path / "topo.yaml"
        topo.write_text(doc)
        code = run_cli(
            "--scenario", "custom", "--topology", str(topo), "--trials", "2000",
            "--seed", "1", "--tv-threshold", "0.1", "--out", str(tmp_path),
        )
        assert code == EXIT_OK

    def test_trace_flag_writes_log(self, tmp_path):
        code = run_cli(
            "--scenario", "star", "--detectors", "2", "--trials", "100",
            "--seed", "8", "--tv-threshold", "0.5", "--trace",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        log = (tmp_path / "trial_trace.log").read_text()
        assert "scout" in log
        assert "confirm" in log

    def test_trace_runs_forward_half_once(self, tmp_path, monkeypatch):
        traced = []
        original = engine.propagate_scouts

        def counting(*args, **kwargs):
            traced.append(kwargs.get("trace") is not None)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "propagate_scouts", counting)
        argv = ["--scenario", "star", "--detectors", "2", "--trials", "100",
                "--seed", "8", "--tv-threshold", "0.5", "--out", str(tmp_path)]
        assert run_cli(*argv) == EXIT_OK
        assert traced == [False]  # the ensemble's plan
        traced.clear()
        assert run_cli(*argv, "--trace") == EXIT_OK
        assert traced == [True]  # traced trial 0's plan serves the ensemble too


class TestConfigPrecedence:
    def test_config_file_values_are_used(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "scenario: dilation\nv: '0.8'\nout: {out}\n".format(out=tmp_path)
        )
        assert run_cli("--config", str(cfg)) == EXIT_OK
        lines = (tmp_path / "dilation.csv").read_text().strip().split("\n")
        assert lines[1].startswith("0.8,")

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: dilation\nv: '0.8'\n")
        assert (
            run_cli("--config", str(cfg), "--v", "0.6", "--out", str(tmp_path))
            == EXIT_OK
        )
        lines = (tmp_path / "dilation.csv").read_text().strip().split("\n")
        assert lines[1] == "0.6,1.25"

    def test_config_numbers_accepted_for_list_options(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"scenario: clock\ndistance: 10\nout: {tmp_path}\n")
        assert run_cli("--config", str(cfg)) == EXIT_OK
        lines = (tmp_path / "clock.csv").read_text().strip().split("\n")
        assert lines[1:] == ["10,1,1,10"]

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCOUTNET_OUT", str(tmp_path))
        assert run_cli("--scenario", "dilation", "--v", "0") == EXIT_OK
        assert (tmp_path / "dilation.csv").is_file()


class TestDeterminism:
    @pytest.mark.parametrize("scenario_args", [("--scenario", "star",
                                                "--detectors", "3",
                                                "--intensities", "1,1,2")])
    def test_jobs_do_not_change_artifacts(self, tmp_path, scenario_args):
        out1 = tmp_path / "jobs1"
        out8 = tmp_path / "jobs8"
        base = list(scenario_args) + [
            "--trials", "4000", "--seed", "42", "--tv-threshold", "0.05",
        ]
        assert run_cli(*base, "--jobs", "1", "--out", str(out1)) == EXIT_OK
        assert run_cli(*base, "--jobs", "8", "--out", str(out8)) == EXIT_OK
        for name in ("ensemble.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out8 / name).read_bytes()
