import json

import numpy as np
import pytest

from envcap.cli import EXIT_BAD_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from envcap.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    a1_curve,
    b2_curve,
    run_experiment,
)


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestLocate:
    def test_a1_root(self, capsys):
        rc, out, _ = run_cli(["locate", "a1"], capsys)
        assert rc == EXIT_OK
        assert abs(float(out.strip()) - 0.6649) < 5e-4

    def test_a1_same_sign_bracket(self, capsys):
        rc, _, err = run_cli(["locate", "a1", "--bracket", "0.0", "0.4"], capsys)
        assert rc == EXIT_NUMERICAL
        assert "sign" in err

    @pytest.mark.parametrize("flags", [["--tol", "0"], ["--tol", "-1"],
                                       ["--bracket", "0.9", "0.5"]])
    def test_bad_bisection_input(self, flags, capsys):
        rc, out, err = run_cli(["locate", "a1", *flags], capsys)
        assert rc == EXIT_BAD_CONFIG
        assert out == ""
        assert "bad configuration" in err

    def test_bad_target(self, capsys):
        rc, _, _ = run_cli(["locate", "b1"], capsys)
        assert rc == EXIT_BAD_CONFIG


class TestExitCodes:
    def test_unknown_experiment(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-an-experiment"])
        assert exc.value.code == 2

    def test_unwritable_output(self, capsys):
        rc, _, err = run_cli(
            ["a1", "--grid", "3", "--out", "/nonexistent-dir/x.csv"], capsys)
        assert rc == EXIT_IO
        assert "cannot write" in err


class TestCsvOutput:
    def test_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            rc, _, _ = run_cli(["b1", "--grid", "4", "--no-timestamp",
                                "--out", str(p)], capsys)
            assert rc == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_timestamp_line_toggles(self, capsys):
        _, with_ts, _ = run_cli(["b1", "--grid", "3"], capsys)
        _, without_ts, _ = run_cli(["b1", "--grid", "3", "--no-timestamp"], capsys)
        assert any(line.startswith("# generated:") for line in with_ts.splitlines())
        assert not any(line.startswith("# generated:") for line in without_ts.splitlines())

    def test_a1_row_at_half(self, capsys):
        rc, out, _ = run_cli(["a1", "--grid", "101", "--no-timestamp"], capsys)
        assert rc == EXIT_OK
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header, rows = lines[0].split(","), lines[1:]
        assert header == ["gamma", "t", "coherent_info"]
        first = rows[0].split(",")
        assert float(first[0]) == 0.5
        assert abs(float(first[2]) - 0.5488) < 1e-3

    def test_rows_reevaluate_exactly(self, capsys):
        _, out, _ = run_cli(["a1", "--grid", "7", "--no-timestamp"], capsys)
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        for g, t, val in rows:
            assert abs(a1_curve(float(g), float(t)) - float(val)) <= 1e-12

    def test_b2_rows_reevaluate(self, capsys):
        _, out, _ = run_cli(["b2", "--grid", "4", "--no-timestamp",
                             "--params", "0.5"], capsys)
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 4
        for t, theta, val in rows:
            assert abs(b2_curve(float(t), float(theta)) - float(val)) <= 1e-12

    def test_region_scan_contains_midpoint(self, capsys):
        _, out, _ = run_cli(["region_scan", "--grid", "5", "--no-timestamp"], capsys)
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        quarter = np.pi / 4
        hits = [r for r in rows
                if abs(float(r[0]) - quarter) < 1e-12
                and abs(float(r[1]) - quarter) < 1e-12
                and abs(float(r[2]) - quarter) < 1e-12]
        assert len(hits) == 1
        assert hits[0][3] == "true" and hits[0][4] == "true"

    def test_eh_swap_vanishes_past_threshold(self, capsys):
        _, out, _ = run_cli(["eh_swap", "--grid", "11", "--no-timestamp"], capsys)
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        by_gamma = {round(float(r[0]), 6): (float(r[1]), float(r[2])) for r in rows}
        assert by_gamma[0.9] == (0.0, 0.0)
        assert by_gamma[0.0][0] == pytest.approx(1.0, abs=1e-9)
        assert by_gamma[0.3][0] > 0.5


class TestJsonOutput:
    def test_one_object_per_row(self, capsys):
        rc, out, _ = run_cli(["a2", "--grid", "3", "--format", "json"], capsys)
        assert rc == EXIT_OK
        objs = [json.loads(l) for l in out.splitlines()]
        assert len(objs) == 3
        assert set(objs[0]) == {"t", "curve_label", "coherent_info"}
        assert objs[0]["coherent_info"] == pytest.approx(0.5487949406953985)

    def test_qhtens_argmax_column(self, capsys):
        rc, out, _ = run_cli(["qhtens", "--grid", "16", "--params", "0,0,0",
                              "--format", "json"], capsys)
        assert rc == EXIT_OK
        obj = json.loads(out.splitlines()[0])
        assert obj["value"] == pytest.approx(1.0, abs=1e-6)
        argmax = json.loads(obj["argmax"])
        assert set(argmax) == {"input", "env"}

    def test_qhtens_csv_parses_with_stdlib_reader(self, capsys):
        import csv as csvmod
        import io
        rc, out, _ = run_cli(["qhtens", "--grid", "16", "--params", "0,0,0",
                              "--no-timestamp"], capsys)
        assert rc == EXIT_OK
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        rows = list(csvmod.reader(io.StringIO(body)))
        assert rows[0] == ["value", "argmax"]
        assert len(rows[1]) == 2
        argmax = json.loads(rows[1][1])
        assert set(argmax) == {"input", "env"}


class TestConfigFile:
    def test_config_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 3, "no_timestamp": True, "params": [0.0]}))
        _, out3, _ = run_cli(["a1", "--config", str(cfg)], capsys)
        _, out5, _ = run_cli(["a1", "--config", str(cfg), "--grid", "5"], capsys)
        n3 = len([l for l in out3.splitlines() if not l.startswith("#")]) - 1
        n5 = len([l for l in out5.splitlines() if not l.startswith("#")]) - 1
        assert (n3, n5) == (3, 5)

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc, _, _ = run_cli(["a1", "--config", str(cfg)], capsys)
        assert rc == EXIT_BAD_CONFIG


class TestExperimentTables:
    def test_a3_has_six_families(self):
        header, rows = run_experiment(ExperimentConfig("a3", grid=3))
        assert header == ("t", "curve_label", "coherent_info")
        labels = {r[1] for r in rows}
        assert labels == {"s", "p1", "p2", "q1", "q2", "r"}
        # the paired edge families trace the same curves
        by = {(r[1], round(r[0], 6)): r[2] for r in rows}
        for t in (0.0, 0.5, 1.0):
            assert by[("p1", t)] == pytest.approx(by[("p2", t)], abs=1e-9)
            assert by[("q1", t)] == pytest.approx(by[("q2", t)], abs=1e-9)

    def test_experiment_names_in_cli_order(self):
        assert EXPERIMENTS == ("a1", "a2", "a3", "b1", "b2", "eh_swap", "region_scan",
                               "classify", "qhtens", "jammer")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig("a1", grid=1))

    def test_b2_theta_optimization_window(self):
        # the optimized theta family stays positive well inside (0, 1);
        # the achievable value shrinks toward the endpoints
        from envcap.experiments import b2_best_over_theta
        mid, _ = b2_best_over_theta(0.5)
        low, _ = b2_best_over_theta(0.05)
        assert mid > 1e-3
        assert 0 < low < mid
