import json

import pytest

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

    def test_impossible_tv_threshold_fails_statistically(self, tmp_path, capsys):
        code = run_cli(
            "--scenario", "star", "--detectors", "2", "--trials", "2001",
            "--seed", "3", "--tv-threshold", "1e-9", "--out", str(tmp_path),
        )
        assert code == EXIT_THRESHOLD
        assert "threshold failure" in capsys.readouterr().err


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
