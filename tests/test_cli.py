import json

import numpy as np
import pytest

import wmpath.hilbert
import wmpath.paths
from wmpath import (
    EigenvaluePartition,
    GaussianPointer,
    HermitianMatrix,
    Observable,
    StateVector,
    TransitionSpec,
    exact_mean_position,
    group,
    path_amplitudes,
    relative_amplitudes,
    strong_mean,
    strong_probabilities,
    weak_asymptotics,
)
from wmpath.cli import RunRecord, main
from wmpath.errors import WmpathError
from wmpath.meter import _KERNEL_BLOCK
from wmpath.scenarios import get_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return header, rows


def test_record_names_its_non_finite_column():
    with pytest.raises(WmpathError, match="'omega_1'"):
        RunRecord("x", ("group_value_1", "omega_1"), [[1.0, 2.0], [0.0, np.nan]])


def per_point_table(transition, observable, ladder):
    """Sweep rows built one accuracy at a time from the public readings."""
    amps = path_amplitudes(transition.with_observable(observable))
    alphas = relative_amplitudes(amps)
    partition = EigenvaluePartition.from_observable(observable)
    strong = strong_mean(partition.group_values,
                         strong_probabilities(group(amps, partition)))
    rows = []
    for delta_f in ladder:
        pointer = GaussianPointer(delta_f)
        exact = exact_mean_position(amps, observable, pointer)
        weak = weak_asymptotics(alphas, observable, pointer)
        rows.append([delta_f, exact.mean_f, exact.mean_lambda, weak.mean_f,
                     weak.mean_lambda, strong, exact.norm])
    return rows


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

    @pytest.mark.parametrize("argv", [
        ("run", "--scenario", "threebox", "--strong", "P2"),
        ("run", "--scenario", "cheshire", "--strong", "sigmaL"),
        ("design", "--psi", "PSI", "--targets", "TARGETS"),
    ])
    def test_json_mirrors_csv_columns(self, tmp_path, capsys, argv):
        psi, targets = tmp_path / "psi.json", tmp_path / "z.json"
        psi.write_text(json.dumps([1.0, 0.5, [0.0, 1.0], 2.0]))
        targets.write_text(json.dumps([0.25, [0.5, 0.5], -0.25, [0.5, -0.5]]))
        argv = [str({"PSI": psi, "TARGETS": targets}.get(a, a)) for a in argv]
        csv_code, csv_out, _ = run_cli(capsys, *argv, "--no-header-meta")
        json_code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert csv_code == json_code == 0
        header, rows = parse_csv(csv_out)
        data = json.loads(json_out)
        assert [list(row) for row in data] == [header] * len(rows)
        assert [list(row.values()) for row in data] == [
            [row[key] for key in header] for row in rows]

    def test_tiny_delta_f_exits_2(self, capsys):
        # 1/delta_f^2 overflows: once an uncaught ZeroDivisionError (exit 1)
        code, out, err = run_cli(capsys, "run", "--scenario", "spin100",
                                 "--delta-f", "1e-300")
        assert code == 2 and out == ""
        assert "ValueError" in err and "7.5e-155" in err

    def test_huge_delta_f_reads_weak_limit(self, capsys):
        # delta_f^2 overflows: once an uncaught OverflowError (exit 1)
        code, out, err = run_cli(capsys, "run", "--scenario", "spin100",
                                 "--delta-f", "1e200", "--no-header-meta")
        assert code == 0 and not err
        row = parse_csv(out)[1][0]
        assert row["mean_f_exact"] == pytest.approx(row["mean_f_weak_asym"])
        assert row["mean_lambda_weak_asym"] == 0.0

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

    def test_infinite_max_rejected_before_the_ladder(self, capsys):
        # np.geomspace(1, inf) once warned before the ladder was refused
        code, out, err = run_cli(capsys, "sweep", "--scenario", "spin100",
                                 "--delta-f-min", "1", "--delta-f-max", "inf",
                                 "--points", "3", "--log")
        assert code == 2 and out == ""
        assert "ConfigError" in err

    def test_tiny_ladder_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--scenario", "spin100",
                               "--delta-f-min", "1e-300", "--delta-f-max", "1",
                               "--points", "3")
        assert code == 2 and "ValueError" in err

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

    @pytest.mark.parametrize("name", ["spin100", "cheshire", "threebox"])
    def test_rows_match_per_point_readings(self, capsys, name):
        # the one-pass ladder gives the bytes of per-point public readings
        scenario = get_scenario(name)
        observable = scenario.observable()
        code, out, _ = run_cli(capsys, "sweep", "--scenario", name,
                               "--delta-f-min", "1e-3", "--delta-f-max", "1e3",
                               "--points", "61", "--log", "--no-header-meta")
        assert code == 0
        lines = out.splitlines()[1:]
        expected = per_point_table(scenario.transition, observable,
                                   [float(line.split(",")[0]) for line in lines])
        assert lines == [",".join(f"{x:.16e}" for x in row) for row in expected]

    def test_dense_rows_match_per_point_readings(self, tmp_path, capsys):
        # N = 64 dense custom observable over a ladder of several kernel blocks
        n = 64
        rng = np.random.default_rng(64)
        raw = {key: rng.normal(size=n) + 1j * rng.normal(size=n)
               for key in ("psi", "phi")}
        h, s = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                for _ in range(2))
        raw["hamiltonian"], raw["observable"] = h + h.conj().T, s + s.conj().T
        config = {key: np.stack([v.real, v.imag], axis=-1).tolist()
                  for key, v in raw.items()}
        config.update(name="custom", total_time=0.8)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(config))
        points = 3 * (_KERNEL_BLOCK // n ** 2) + 5
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path),
                               "--delta-f-min", "0.05", "--delta-f-max", "50",
                               "--points", str(points), "--log",
                               "--no-header-meta")
        assert code == 0
        _, rows = parse_csv(out)
        got = np.array([list(row.values()) for row in rows])
        transition = TransitionSpec(StateVector(raw["psi"]), StateVector(raw["phi"]),
                                    HermitianMatrix(raw["hamiltonian"]), 0.8)
        expected = np.array(per_point_table(
            transition, Observable.from_matrix(raw["observable"]), got[:, 0]))
        assert got.shape == (points, 7)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

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

    def test_nearly_orthogonal_postselection_exits_3(self, tmp_path, capsys):
        # |sum A| = 1e-7 passes the 1e-12 threshold, but alphas of size 1e7
        # cannot be rounded to a unit sum within 1e-10; this once exited 2
        # with a bare ValueError
        psi = np.ones(3) / np.sqrt(3.0)
        phi = 1e-7 * psi + np.sqrt(1.0 - 1e-14) * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        config = {"name": "custom", "psi": psi.tolist(), "phi": phi.tolist(),
                  "observable": np.diag([1.0, 2.0, 3.0]).tolist()}
        path = tmp_path / "nearly.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 3
        assert "OrthogonalPostselection" in err and "unit sum" in err

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

    def test_design_does_no_n_by_n_work(self, tmp_path, capsys, monkeypatch):
        # N = 4096: H = 0 and T = 0, so no Hamiltonian, eigenbasis or
        # identity matrix is built; each is 256 MB at this size
        n = 4096
        rng = np.random.default_rng(44)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        targets = (rng.uniform(-2.0, 2.0, size=n)
                   + 1j * rng.uniform(-2.0, 2.0, size=n)) / np.sqrt(n)
        targets[-1] += 1.0 - targets.sum()
        psi_file = tmp_path / "psi.json"
        targets_file = tmp_path / "z.json"
        psi_file.write_text(json.dumps([[v.real, v.imag] for v in psi]))
        targets_file.write_text(json.dumps([[v.real, v.imag] for v in targets]))

        def refuse(*args, **kwargs):
            raise AssertionError("N x N work on the design path")

        monkeypatch.setattr(wmpath.hilbert, "spectral_decompose", refuse)
        monkeypatch.setattr(wmpath.paths, "spectral_decompose", refuse)
        monkeypatch.setattr(HermitianMatrix, "__init__", refuse)
        monkeypatch.setattr(np, "eye", refuse)
        code, out, err = run_cli(capsys, "design", "--psi", str(psi_file),
                                 "--targets", str(targets_file),
                                 "--no-header-meta")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == n
        phi = np.array([row["phi_re"] + 1j * row["phi_im"] for row in rows])
        realized = np.array([row["alpha_re"] + 1j * row["alpha_im"]
                             for row in rows])
        amplitudes = phi.conj() * psi  # H = 0: A_i = conj(phi_i) psi_i
        assert np.abs(realized - amplitudes / amplitudes.sum()).max() < 1e-10
        assert np.abs(realized - targets).max() < 1e-10

    @pytest.mark.parametrize("tiny", ["1e-200", "1e-310"])
    def test_tiny_psi_component_exits_3(self, tmp_path, capsys, tiny):
        # z / psi once overflowed at a subnormal psi component (exit 2, with
        # a RuntimeWarning); both sizes leave an amplitude sum of ~2 tiny
        psi_file = tmp_path / "psi.json"
        targets_file = tmp_path / "z.json"
        psi_file.write_text(f"[1, {tiny}]")
        targets_file.write_text("[0.5, 0.5]")
        code, _, err = run_cli(capsys, "design", "--psi", str(psi_file),
                               "--targets", str(targets_file))
        assert code == 3
        assert "OrthogonalPostselection" in err

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

    @pytest.mark.parametrize("momentum", ["1.4142", "1.41421356"])
    def test_momentum_at_the_threshold_exits_3(self, capsys, momentum):
        # 1.4e-5 and 2.4e-9 below k_th = sqrt(2): weak_shift's window would
        # be 1.2e6 and 6.7e9 wide, past where its first moment rounds away
        code, out, err = run_cli(capsys, "tunnel", "--momentum", momentum,
                                 "--no-header-meta")
        assert code == 3
        assert "GridError" in err and "below the barrier threshold" in err
        assert out == ""

    def test_above_barrier_momentum_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "tunnel", "--momentum", "5.0")
        assert code == 2
        assert "ConfigError" in err
