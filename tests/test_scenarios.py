import json

import pytest

from wmpath import GaussianPointer, exact_mean_position, path_amplitudes
from wmpath.cli import main
from wmpath.errors import ConfigError
from wmpath.scenarios import SCENARIO_NAMES, get_scenario


class TestScenarioLibrary:
    def test_all_builtins_construct_and_verify(self):
        for name in SCENARIO_NAMES:
            get_scenario(name)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            get_scenario("nonsense")

    def test_cheshire_exact_momenta_vanish_at_any_accuracy(self):
        # all four meters, exact engine: amplitudes share a phase, so the
        # momentum reading is identically zero, not merely asymptotically
        scenario = get_scenario("cheshire")
        for name in ("PL", "PR", "sigmaL", "sigmaR"):
            observable = scenario.observable(name)
            amps = path_amplitudes(scenario.transition.with_observable(observable))
            for delta_f in (0.05, 1.0, 30.0):
                readout = exact_mean_position(amps, observable,
                                              GaussianPointer(delta_f))
                assert abs(readout.mean_lambda) < 1e-12


class TestSweepRunConsistency:
    def test_sweep_rows_match_individual_runs(self, capsys):
        code = main(["sweep", "--scenario", "spin100", "--delta-f-min", "0.5",
                     "--delta-f-max", "8.0", "--points", "2", "--log",
                     "--no-header-meta"])
        sweep_out = capsys.readouterr().out
        assert code == 0
        sweep_lines = sweep_out.strip().splitlines()

        for delta_f, row in zip(("0.5", "8.0"), sweep_lines[1:]):
            code = main(["run", "--scenario", "spin100", "--delta-f", delta_f,
                         "--no-header-meta"])
            run_out = capsys.readouterr().out
            assert code == 0
            assert run_out.strip().splitlines()[1] == row

    def test_config_file_supplies_sweep_ladder(self, tmp_path, capsys):
        config = {"name": "threebox",
                  "sweep": {"min": 0.1, "max": 10.0, "points": 3, "log": True}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["sweep", "--config", str(path), "--no-header-meta"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # header + 3 rows

    def test_config_file_supplies_output_destination(self, tmp_path, capsys):
        target = tmp_path / "from_config.json"
        config = {"name": "spin100", "delta_f": 3.0,
                  "output": {"path": str(target), "format": "json"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["run", "--config", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rows = json.loads(target.read_text())
        assert rows[0]["delta_f"] == 3.0

    def test_cli_flags_override_config_output(self, tmp_path, capsys):
        ignored = tmp_path / "ignored.csv"
        config = {"name": "spin100", "delta_f": 2.0,
                  "output": {"path": str(ignored), "format": "json"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["run", "--config", str(path), "--format", "csv",
                     "--out", str(tmp_path / "chosen.csv"), "--no-header-meta"])
        assert code == 0
        assert not ignored.exists()
        assert (tmp_path / "chosen.csv").read_text().startswith("delta_f,")
