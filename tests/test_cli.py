import json

import numpy as np
import pytest

from wmpath.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return header, rows


class TestRun:
    def test_spin100_weak_reading(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", "spin100",
                                 "--delta-f", "1e4", "--no-header-meta")
        assert code == 0 and not err
        header, rows = parse_csv(out)
        assert header == ["delta_f", "mean_f_exact", "mean_lambda_exact",
                          "mean_f_weak_asym", "mean_lambda_weak_asym",
                          "mean_f_strong_asym", "norm"]
        assert len(rows) == 1
        assert abs(rows[0]["mean_f_exact"] - 100.0) < 0.5
        assert rows[0]["mean_f_weak_asym"] == pytest.approx(100.0, abs=1e-9)

    def test_spin100_strong_reading(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--scenario", "spin100",
                               "--delta-f", "1e-3", "--no-header-meta")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["mean_f_exact"] == pytest.approx(0.0199980, abs=1e-6)

    def test_threebox_strong_projector(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--scenario", "threebox",
                               "--strong", "P1", "--no-header-meta")
        assert code == 0
        header, rows = parse_csv(out)
        row = rows[0]
        # the value-1 route is certain, the value-0 route never travelled
        by_value = {row[f"group_value_{i}"]: row[f"omega_{i}"] for i in (1, 2)}
        assert by_value[1.0] == pytest.approx(1.0, abs=1e-12)
        assert by_value[0.0] == pytest.approx(0.0, abs=1e-12)
        assert row["strong_mean"] == pytest.approx(1.0, abs=1e-12)

    def test_json_mirrors_csv(self, capsys):
        _, csv_out, _ = run_cli(capsys, "run", "--scenario", "spin100",
                                "--delta-f", "2.0", "--no-header-meta")
        _, json_out, _ = run_cli(capsys, "run", "--scenario", "spin100",
                                 "--delta-f", "2.0", "--format", "json")
        header, rows = parse_csv(csv_out)
        data = json.loads(json_out)
        assert isinstance(data, list) and len(data) == 1
        assert list(data[0].keys()) == header
        for key in header:
            assert data[0][key] == pytest.approx(rows[0][key], rel=1e-15)

    def test_unknown_scenario_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.json")
        assert code == 2
        assert "ConfigError" in err

    def test_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, "run", "--scenario", "threebox",
                               "--delta-f", "1.0", "--out", str(target),
                               "--no-header-meta")
        assert code == 0 and out == ""
        assert target.read_text().startswith("delta_f,")


class TestSweep:
    def test_spin100_log_ladder_hits_both_asymptotes(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "spin100",
                               "--delta-f-min", "1e-2", "--delta-f-max", "1e4",
                               "--points", "25", "--log", "--no-header-meta")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 25
        assert rows[0]["delta_f"] == pytest.approx(1e-2)
        assert rows[-1]["delta_f"] == pytest.approx(1e4)
        assert abs(rows[0]["mean_f_exact"] - 0.0199980) < 1e-4
        assert abs(rows[-1]["mean_f_exact"] - 100.0) < 0.5
        deltas = [row["delta_f"] for row in rows]
        assert deltas == sorted(deltas)

    def test_cheshire_momentum_column_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "cheshire",
                               "--delta-f-min", "0.1", "--delta-f-max", "10",
                               "--points", "7", "--no-header-meta")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(abs(row["mean_lambda_exact"]) < 1e-12 for row in rows)

    def test_single_point_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--scenario", "spin100",
                               "--delta-f-min", "1", "--delta-f-max", "2",
                               "--points", "1")
        assert code == 2 and "ConfigError" in err

    def test_amplitudes_computed_once_per_ladder(self, capsys, monkeypatch):
        import wmpath.cli

        calls = []
        original = wmpath.cli.path_amplitudes
        monkeypatch.setattr(wmpath.cli, "path_amplitudes",
                            lambda spec: calls.append(spec) or original(spec))
        code, out, _ = run_cli(capsys, "sweep", "--scenario", "cheshire",
                               "--delta-f-min", "0.1", "--delta-f-max", "10",
                               "--points", "7", "--no-header-meta")
        assert code == 0 and len(parse_csv(out)[1]) == 7
        assert len(calls) == 1

    def test_determinism_byte_identical(self, capsys):
        args = ("sweep", "--scenario", "threebox", "--delta-f-min", "0.5",
                "--delta-f-max", "50", "--points", "9", "--log",
                "--no-header-meta")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestCustomConfig:
    def test_custom_scenario_roundtrip(self, tmp_path, capsys):
        config = {
            "name": "custom",
            "psi": [[1.0, 0.0], [1.0, 0.0]],
            "phi": [[1.0, 0.0], [-99.0 / 101.0, 0.0]],
            "hamiltonian": None,
            "total_time": 0.0,
            "observable": [[1.0, 0.0], [0.0, -1.0]],
        }
        path = tmp_path / "spin.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "run", "--config", str(path),
                               "--delta-f", "1e4", "--no-header-meta")
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(rows[0]["mean_f_exact"] - 100.0) < 0.5

    def test_orthogonal_postselection_exits_3(self, tmp_path, capsys):
        # paths interfere destructively: total amplitude 0 with nonzero A_i
        config = {
            "name": "custom",
            "psi": [1.0, 1.0],
            "phi": [1.0, -1.0],
            "observable": [[1.0, 0.0], [0.0, -1.0]],
        }
        path = tmp_path / "orth.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3
        assert "OrthogonalPostselection" in err

    def test_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        config = {"name": "custom", "psi": [1.0, 0.0], "phi": [1.0, 1.0],
                  "observable": [[0.0, 1.0], [1.0, 0.0]]}
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3
        assert "ConvergenceError" in err

    def test_malformed_state_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "custom", "psi": [],
                                    "phi": [1.0], "observable": [[1.0]]}))
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2 and "ConfigError" in err


class TestDesign:
    def test_threebox_design(self, tmp_path, capsys):
        psi_file = tmp_path / "psi.json"
        targets_file = tmp_path / "z.json"
        psi_file.write_text(json.dumps([1.0, 1.0, 1.0]))
        targets_file.write_text(json.dumps([1.0, -1.0, 1.0]))
        code, out, _ = run_cli(capsys, "design", "--psi", str(psi_file),
                               "--targets", str(targets_file),
                               "--no-header-meta")
        assert code == 0
        _, rows = parse_csv(out)
        phi = np.array([row["phi_re"] + 1j * row["phi_im"] for row in rows])
        expected = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
        assert np.abs(phi - expected).max() < 1e-10
        assert rows[0]["round_trip_error"] < 1e-8

    def test_extreme_targets_round_trip(self, tmp_path, capsys):
        psi_file = tmp_path / "psi.json"
        targets_file = tmp_path / "z.json"
        psi_file.write_text(json.dumps([1.0, 1.0]))
        targets_file.write_text(json.dumps([100.5, -99.5]))
        code, out, _ = run_cli(capsys, "design", "--psi", str(psi_file),
                               "--targets", str(targets_file),
                               "--no-header-meta")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["round_trip_error"] < 1e-8
        realized = np.array([row["alpha_re"] + 1j * row["alpha_im"]
                             for row in rows])
        assert np.abs(realized - np.array([100.5, -99.5])).max() < 1e-8

    def test_target_count_mismatch_exits_2(self, tmp_path, capsys):
        psi_file = tmp_path / "psi.json"
        targets_file = tmp_path / "z.json"
        psi_file.write_text(json.dumps([1.0, 1.0, 1.0]))
        targets_file.write_text(json.dumps([0.5, 0.5]))
        code, _, err = run_cli(capsys, "design", "--psi", str(psi_file),
                               "--targets", str(targets_file))
        assert code == 2 and "ConfigError" in err

    def test_target_sum_violation_exits_2(self, tmp_path, capsys):
        psi_file = tmp_path / "psi.json"
        targets_file = tmp_path / "z.json"
        psi_file.write_text(json.dumps([1.0, 1.0]))
        targets_file.write_text(json.dumps([1.0, 1.0]))
        code, _, err = run_cli(capsys, "design", "--psi", str(psi_file),
                               "--targets", str(targets_file))
        assert code == 2
        assert "TargetSumViolation" in err


class TestTunnel:
    def test_fast_instance_emits_consistent_row(self, capsys):
        # narrower packet than the scenario default keeps this test quick;
        # the full-accuracy defaults are exercised by the acceptance suite
        code, out, err = run_cli(capsys, "tunnel", "--packet-width", "120",
                                 "--no-header-meta")
        assert code == 0, err
        header, rows = parse_csv(out)
        assert header == ["p", "delta_x_phase", "delta_x_integral", "delta_k",
                          "oracle_dx", "oracle_dk", "leakage"]
        row = rows[0]
        assert row["delta_x_phase"] < 0.0
        assert abs(row["delta_x_integral"] - row["delta_x_phase"]) \
            < 0.01 * abs(row["delta_x_phase"])
        assert row["delta_k"] > 0.0
        assert row["leakage"] < 1e-3
        assert abs(row["oracle_dx"] - row["delta_x_phase"]) \
            < 0.05 * abs(row["delta_x_phase"])

    def test_threshold_on_the_shift_lattice_stays_finite(self, capsys):
        # p = k_th / 2 = sqrt(0.1) / 2 puts k_th on the FFT grids' lattice
        code, out, err = run_cli(capsys, "tunnel", "--barrier-height", "0.05",
                                 "--barrier-width", "4", "--momentum",
                                 "0.15811388300841897", "--no-header-meta")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert all(np.isfinite(value) for value in rows[0].values())

    def test_zero_height_barrier_shifts_nothing(self, capsys):
        code, out, err = run_cli(capsys, "tunnel", "--barrier-height", "0",
                                 "--packet-width", "120", "--no-header-meta")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert rows[0]["delta_k"] == 0.0
        assert rows[0]["delta_x_phase"] == 0.0

    def test_above_barrier_momentum_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "tunnel", "--momentum", "5.0")
        assert code == 2
        assert "ConfigError" in err
